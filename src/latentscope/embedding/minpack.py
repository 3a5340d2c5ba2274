"""MINPACK's `lmdif` (Moré, 1978), ported operation for operation.

The Levenberg–Marquardt loop and the routines it calls (`fdjac2`, `qrfac`
with column pivoting, `lmpar`, `qrsolv`, `enorm`) keep each routine whole
and every floating-point operation in MINPACK's order, so a fit returns
the bits that `scipy.optimize.leastsq` (and `curve_fit`, which calls it)
returns for the same settings.

Index conventions are MINPACK's shifted to 0-based. The Jacobian is held
as a list of its n columns, each a float64 array of length m; the n × n
triangle `r` that `lmpar` and `qrsolv` share is a nested list with
`r[i][j]` for MINPACK's r(i, j). Fortran's `x**2` is `x * x`.

Only the loops over the m residuals use numpy. Each keeps MINPACK's
arithmetic: the elementwise steps are the same single roundings, and a
running sum `s = s + a(i)*b(i)` is `np.add.accumulate`, which adds first to
last. `enorm` takes that form when every component is zero or in
MINPACK's intermediate range, where it reduces to the plain sum of
squares; otherwise it runs MINPACK's scaled three-sum loop element by
element.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_EPSMCH = float(np.finfo(np.float64).eps)    # dpmpar(1)
_DWARF = float(np.finfo(np.float64).tiny)    # dpmpar(2)
_RDWARF = 3.834e-20
_RGIANT = 1.304e19


def _running_sum(terms: np.ndarray) -> float:
    """`s = 0; s = s + terms(i)` for i in order."""
    return 0.0 + float(np.add.accumulate(terms)[-1])


def _enorm(x) -> float:
    """Euclidean norm of `x`, guarded against overflow and underflow."""
    n = len(x)
    agiant = _RGIANT / n
    if isinstance(x, np.ndarray):
        xabs = np.abs(x)
        if (((xabs > _RDWARF) & (xabs < agiant)) | (xabs == 0.0)).all():
            # s1 = s3 = x1max = x3max = 0: the norm is sqrt(s2) exactly
            return math.sqrt(_running_sum(xabs * xabs))
        x = x.tolist()
    s1 = s2 = s3 = x1max = x3max = 0.0
    for v in x:
        xabs = abs(v)
        if _RDWARF < xabs < agiant:
            s2 = s2 + xabs * xabs
        elif xabs <= _RDWARF:
            if xabs > x3max:
                t = x3max / xabs
                s3 = 1.0 + s3 * (t * t)
                x3max = xabs
            elif xabs != 0.0:
                t = xabs / x3max
                s3 = s3 + t * t
        elif xabs > x1max:
            t = x1max / xabs
            s1 = 1.0 + s1 * (t * t)
            x1max = xabs
        else:
            t = xabs / x1max
            s1 = s1 + t * t
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _fdjac2(fcn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
            fvec: np.ndarray, epsfcn: float) -> list[np.ndarray]:
    """Forward-difference Jacobian, as its list of columns."""
    eps = math.sqrt(max(epsfcn, _EPSMCH))
    fjac = []
    for j in range(x.size):
        temp = float(x[j])
        h = eps * abs(temp)
        if h == 0.0:
            h = eps
        xh = x.copy()
        xh[j] = temp + h
        fjac.append((fcn(xh) - fvec) / h)
    return fjac


def _qrfac(a: list[np.ndarray]) -> tuple[list[int], list[float], list[float]]:
    """Householder QR of the columns `a` with column pivoting, in place.

    Returns (ipvt, rdiag, acnorm): the pivot order, the diagonal of R and
    the norms of the columns as given. `a` is left holding the Householder
    vectors on and below the diagonal and R above it."""
    n, m = len(a), a[0].size
    acnorm = [_enorm(col) for col in a]
    rdiag, wa = acnorm.copy(), acnorm.copy()
    ipvt = list(range(n))
    for j in range(min(m, n)):
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[j], a[kmax] = a[kmax], a[j]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        col = a[j]
        ajnorm = _enorm(col[j:])
        if ajnorm != 0.0:
            if col[j] < 0.0:
                ajnorm = -ajnorm
            col[j:] /= ajnorm
            col[j] += 1.0
            for k in range(j + 1, n):
                ak = a[k]
                temp = _running_sum(col[j:] * ak[j:]) / float(col[j])
                ak[j:] -= temp * col[j:]
                if rdiag[k] == 0.0:
                    continue
                temp = float(ak[j]) / rdiag[k]
                rdiag[k] = rdiag[k] * math.sqrt(max(0.0, 1.0 - temp * temp))
                t = rdiag[k] / wa[k]
                if 0.05 * (t * t) <= _EPSMCH:
                    rdiag[k] = _enorm(ak[j + 1:])
                    wa[k] = rdiag[k]
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r: list[list[float]], ipvt: list[int], diag: list[float],
            qtb: list[float]) -> tuple[list[float], list[float]]:
    """Least-squares solution x of [R P^T; D] x = [qtb; 0] by Givens
    rotations, returning (x, sdiag). Writes the rotated triangle S below
    the diagonal of `r`; its diagonal and upper triangle are kept."""
    n = len(r)
    x, wa, sdiag = [0.0] * n, [0.0] * n, [0.0] * n
    for j in range(n):
        for i in range(j, n):
            r[i][j] = r[j][i]
        x[j] = r[j][j]
        wa[j] = qtb[j]
    for j in range(n):
        l = ipvt[j]
        if diag[l] != 0.0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = diag[l]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k][k]) >= abs(sdiag[k]):
                    tan = sdiag[k] / r[k][k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                else:
                    cotan = r[k][k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                r[k][k] = cos * r[k][k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cos * r[i][k] + sin * sdiag[i]
                    sdiag[i] = -sin * r[i][k] + cos * sdiag[i]
                    r[i][k] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        s = 0.0
        for i in range(j + 1, nsing):
            s = s + r[i][j] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r: list[list[float]], ipvt: list[int], diag: list[float],
           qtb: list[float], delta: float, par: float) -> tuple[float, list[float]]:
    """Levenberg–Marquardt parameter for step bound `delta`, starting from
    `par`; returns (par, x), x the step that solves the damped system."""
    n = len(r)
    nsing = n
    wa1 = [0.0] * n
    for j in range(n):
        wa1[j] = qtb[j]
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        wa1[j] = wa1[j] / r[j][j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] = wa1[i] - r[i][j] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]

    it = 0
    wa2 = [diag[j] * x[j] for j in range(n)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x

    parl = 0.0
    if nsing >= n:
        for j in range(n):
            l = ipvt[j]
            wa1[j] = diag[l] * (wa2[l] / dxnorm)
        for j in range(n):
            s = 0.0
            for i in range(j):
                s = s + r[i][j] * wa1[i]
            wa1[j] = (wa1[j] - s) / r[j][j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp

    for j in range(n):
        s = 0.0
        for i in range(j + 1):
            s = s + r[i][j] * qtb[i]
        wa1[j] = s / diag[ipvt[j]]
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)

    par = max(par, parl)
    par = min(par, paru)
    if par == 0.0:
        par = gnorm / dxnorm

    while True:
        it += 1
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        temp = math.sqrt(par)
        wa1 = [temp * diag[j] for j in range(n)]
        x, sdiag = _qrsolv(r, ipvt, wa1, qtb)
        wa2 = [diag[j] * x[j] for j in range(n)]
        dxnorm = _enorm(wa2)
        temp = fp
        fp = dxnorm - delta
        if (abs(fp) <= 0.1 * delta
                or parl == 0.0 and fp <= temp and temp < 0.0
                or it == 10):
            return par, x
        for j in range(n):
            l = ipvt[j]
            wa1[j] = diag[l] * (wa2[l] / dxnorm)
        for j in range(n):
            wa1[j] = wa1[j] / sdiag[j]
            temp = wa1[j]
            for i in range(j + 1, n):
                wa1[i] = wa1[i] - r[i][j] * temp
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)


def lmdif(fcn: Callable[[np.ndarray], np.ndarray], x0, *, ftol: float,
          xtol: float, gtol: float, maxfev: int, epsfcn: float,
          factor: float) -> tuple[np.ndarray, int]:
    """Minimise sum(fcn(x)**2) from `x0` with a forward-difference
    Jacobian, in MINPACK's mode 1 (variables scaled by the column norms of
    the Jacobian). Returns (x, info), info as in MINPACK: 1–4 converged,
    5 `maxfev` reached, 6–8 a tolerance too small to meet."""
    x = np.array(x0, dtype=np.float64)
    n = x.size
    fvec = fcn(x)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    it = 1
    info = 0
    while True:
        fjac = _fdjac2(fcn, x, fvec, epsfcn)
        nfev += n
        ipvt, rdiag, acnorm = _qrfac(fjac)
        if it == 1:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = _enorm([diag[j] * float(x[j]) for j in range(n)])
            delta = factor * xnorm
            if delta == 0.0:
                delta = factor

        # (Q^T fvec)[:n] into qtf; R's diagonal back into fjac
        wa4 = fvec.copy()
        qtf = [0.0] * n
        for j in range(n):
            col = fjac[j]
            if col[j] != 0.0:
                temp = -_running_sum(col[j:] * wa4[j:]) / float(col[j])
                wa4[j:] += col[j:] * temp
            col[j] = rdiag[j]
            qtf[j] = float(wa4[j])
        r = [[float(fjac[j][i]) for j in range(n)] for i in range(n)]

        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] == 0.0:
                    continue
                s = 0.0
                for i in range(j + 1):
                    s = s + r[i][j] * (qtf[i] / fnorm)
                gnorm = max(gnorm, abs(s / acnorm[l]))
        if gnorm <= gtol:
            return x, 4
        diag = [max(diag[j], acnorm[j]) for j in range(n)]

        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            wa1 = [-v for v in step]
            wa2 = np.array([float(x[j]) + wa1[j] for j in range(n)])
            pnorm = _enorm([diag[j] * wa1[j] for j in range(n)])
            if it == 1:
                delta = min(delta, pnorm)
            wa4 = fcn(wa2)
            nfev += 1
            fnorm1 = _enorm(wa4)

            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                t = fnorm1 / fnorm
                actred = 1.0 - t * t
            wa3 = [0.0] * n
            for j in range(n):
                temp = wa1[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] = wa3[i] + r[i][j] * temp
            temp1 = _enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + (temp2 * temp2) / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = 0.0
            if prered != 0.0:
                ratio = actred / prered

            if not ratio > 0.25:
                if actred >= 0.0:
                    temp = 0.5
                if actred < 0.0:
                    temp = 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            elif not (par != 0.0 and ratio < 0.75):
                delta = pnorm / 0.5
                par = 0.5 * par

            if not ratio < 1e-4:
                x = wa2
                xnorm = _enorm([diag[j] * float(x[j]) for j in range(n)])
                fvec = wa4
                fnorm = fnorm1
                it += 1

            small_reduction = (abs(actred) <= ftol and prered <= ftol
                               and 0.5 * ratio <= 1.0)
            if small_reduction:
                info = 1
            if delta <= xtol * xnorm:
                info = 2
            if small_reduction and info == 2:
                info = 3
            if info:
                return x, info
            if nfev >= maxfev:
                info = 5
            if (abs(actred) <= _EPSMCH and prered <= _EPSMCH
                    and 0.5 * ratio <= 1.0):
                info = 6
            if delta <= _EPSMCH * xnorm:
                info = 7
            if gnorm <= _EPSMCH:
                info = 8
            if info:
                return x, info
            if not ratio < 1e-4:
                break
