"""Windowed 3D SSIM with an analytic gradient.

Uniform cubic window of side WINDOW = 7 (shrunk to the smallest axis for tiny
volumes), constants C1=(0.01)^2 and C2=(0.03)^2 at dynamic range L=1, mean
over all valid window positions. Window sums use cumulative-sum box filters,
so cost is linear in voxel count.

The gradient with respect to x decomposes per window into the three chain
terms through mu_x, sigma_x^2 and sigma_xy; collecting voxel contributions
turns each into an adjoint ("spread") box filter of a per-window coefficient:

    dSSIM/dx = (spread(G_mu - 2 G_v mu_x - G_c mu_y)
                + 2 x spread(G_v) + y spread(G_c)) / (W P)

with G_mu = 2 (mu_y A2 B1 - mu_x A1 A2) / (B1^2 B2),
     G_v  = -A1 A2 / (B1 B2^2),
     G_c  = 2 A1 / (B1 B2),
W the window count and P the voxels per window.

A call runs in two scratch arrays of the volume's size and seven of the
window grid's, reused from step to step. Every elementwise step runs in
place with the operands, order and association it has when each step
makes a fresh array, and the box and spread filters take their running
sums in the scratch (along the first two axes as sums of whole planes,
which numpy's cumsum is several times slower at), so the bits are those
of the fresh-array computation (tests/test_ssim.py keeps a copy of it).
ssim3d_with_grad writes the gradient into `out` if given; no function
here writes x or y.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

C1 = 0.01**2
C2 = 0.03**2
WINDOW = 7


def _along(a: np.ndarray, axis: int, index) -> np.ndarray:
    """a[..., index, ...] with `index` at `axis`."""
    return a[(slice(None),) * axis + (index,)]


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """The C-contiguous array of `shape` at the start of the flat `buf`."""
    return buf[:math.prod(shape)].reshape(shape)


def _running_sum(a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """np.cumsum(a, axis=axis) into `out` (which may be `a`), bitwise: each
    entry is the one before it plus the next input. Along the last axis
    that is numpy's cumsum; along the others, numpy's is several times
    slower than adding whole planes in turn."""
    if axis == a.ndim - 1:
        return np.cumsum(a, axis=axis, out=out)
    _along(out, axis, 0)[...] = _along(a, axis, 0)
    for k in range(1, a.shape[axis]):
        np.add(_along(out, axis, k - 1), _along(a, axis, k), out=_along(out, axis, k))
    return out


def _box_axis(a: np.ndarray, w: int, axis: int, cs: np.ndarray, out: np.ndarray) -> None:
    """Sliding-window sums of length w along `axis` (valid positions only)
    into `out`. With C the running sum of `a`, formed in `cs` (which may be
    `a`; `a` is written only then), out[0] = C[w-1] and
    out[j] = C[j+w-1] - C[j-1]."""
    _running_sum(a, axis, cs)
    _along(out, axis, 0)[...] = _along(cs, axis, w - 1)
    np.subtract(_along(cs, axis, slice(w, None)), _along(cs, axis, slice(None, -w)),
                out=_along(out, axis, slice(1, None)))


def _box3(a: np.ndarray, w: int, out: np.ndarray, ws) -> np.ndarray:
    """Window sums of side w over all three axes of `a`, into `out`. The
    workspace ws = (A, B), two flat buffers of a.size or more, holds the
    running sums (A) and the partial results (B); `a` is written only if
    it is A's own array, where the first running sum is formed in place."""
    scratch_a, scratch_b = ws
    shape = list(a.shape)
    for axis in range(3):
        cs = _view(scratch_a, shape)
        shape[axis] -= w - 1
        dst = out if axis == 2 else _view(scratch_b, shape)
        _box_axis(a, w, axis, cs, dst)
        a = dst
    return out


def _spread_axis(g: np.ndarray, w: int, axis: int, cs: np.ndarray, out: np.ndarray) -> None:
    """Adjoint of _box_axis: scatter each window sum of `g` back over its
    window, into `out` (w - 1 longer along `axis`). With C the running sum
    of g followed by zeros, formed in `cs` (its tail is C's last value plus
    0.0), out[k] = C[k] for k < w and C[k] - C[k-w] after. `g` is read
    before `out` is written, so it may share out's buffer."""
    n = g.shape[axis]
    _running_sum(g, axis, _along(cs, axis, slice(0, n)))
    np.add(_along(cs, axis, slice(n - 1, n)), 0.0, out=_along(cs, axis, slice(n, None)))
    _along(out, axis, slice(0, w))[...] = _along(cs, axis, slice(0, w))
    np.subtract(_along(cs, axis, slice(w, None)), _along(cs, axis, slice(None, -w)),
                out=_along(out, axis, slice(w, None)))


def _spread3(g: np.ndarray, w: int, out: np.ndarray, ws) -> np.ndarray:
    """Adjoint of _box3 into `out`, in the workspace ws (see _box3); `g`
    is not written unless it lies in B."""
    scratch_a, scratch_b = ws
    shape = list(g.shape)
    for axis in range(3):
        shape[axis] += w - 1
        cs = _view(scratch_a, shape)
        dst = out if axis == 2 else _view(scratch_b, shape)
        _spread_axis(g, w, axis, cs, dst)
        g = dst
    return out


def _window_for(dims: tuple[int, ...]) -> int:
    eff = min(WINDOW, min(dims))
    if eff < 1:
        raise ShapeError(f"dims {dims} too small for any SSIM window")
    return eff


def _workspace(size: int):
    """The two flat scratch buffers of _box3 and _spread3."""
    return np.empty(size), np.empty(size)


def _terms(x: np.ndarray, y: np.ndarray, w: int, ws):
    """The window means and SSIM's four factors, each a fresh array over
    the valid window positions: (mx, my, a1, a2, b1, b2) with
    a1 = 2 mx my + C1, a2 = 2 cxy + C2, b1 = mx^2 + my^2 + C1 and
    b2 = vx + vy + C2, the moments mx = box(x) / P, vx = box(x x) / P - mx mx
    and cxy = box(x y) / P - mx my. Each step runs in place, in the order
    and association of these formulas; x and y are not written."""
    scratch_a, scratch_b = ws
    p = float(w**3)
    dims = [d - w + 1 for d in x.shape]

    def mean_of(a):
        out = _box3(a, w, np.empty(dims), ws)
        out /= p
        return out

    mx, my = mean_of(x), mean_of(y)
    b2 = mean_of(np.multiply(x, x, out=_view(scratch_a, x.shape)))
    b2 -= np.multiply(mx, mx, out=_view(scratch_b, dims))  # vx
    a1 = mean_of(np.multiply(y, y, out=_view(scratch_a, x.shape)))
    a1 -= np.multiply(my, my, out=_view(scratch_b, dims))  # vy
    a2 = mean_of(np.multiply(x, y, out=_view(scratch_a, x.shape)))
    a2 -= np.multiply(mx, my, out=_view(scratch_b, dims))  # cxy
    a2 *= 2.0
    a2 += C2
    b2 += a1
    b2 += C2
    np.multiply(2.0, mx, out=a1)
    a1 *= my
    a1 += C1
    b1 = np.multiply(mx, mx)
    b1 += np.multiply(my, my, out=_view(scratch_b, dims))
    b1 += C1
    return mx, my, a1, a2, b1, b2


def ssim3d(x: np.ndarray, y: np.ndarray) -> float:
    """Mean windowed SSIM of two 3D arrays; exactly 1.0 when x is y."""
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {y.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = _window_for(x.shape)
    _, _, a1, a2, b1, b2 = _terms(x, y, w, _workspace(x.size))
    a1 *= a2
    b1 *= b2
    a1 /= b1
    return float(np.mean(a1))


def ssim3d_with_grad(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None):
    """Returns (ssim, dssim/dx). y is held fixed.

    The gradient is written into `out` if given (an array of x's shape),
    else into a fresh array; x and y are not written. Besides the
    gradient, a call holds two scratch arrays of x's size and seven of the
    window grid's, whatever the order of its steps.
    """
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {y.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = _window_for(x.shape)
    ws = scratch_a, scratch_b = _workspace(x.size)
    mx, my, a1, a2, b1, b2 = _terms(x, y, w, ws)
    dims = mx.shape
    q = np.multiply(b1, b2, out=_view(scratch_a, dims))
    g_v = np.multiply(a1, a2)
    s = np.divide(g_v, q, out=_view(scratch_b, dims))
    n_windows = s.size
    value = float(np.mean(s))
    t = np.multiply(mx, a1, out=s)
    t *= a2
    # G_c = 2 a1 / (b1 b2), in a1's place
    g_c = a1
    g_c *= 2.0
    g_c /= q
    # G_v = -(a1 a2) / (b1 b2 b2)
    np.negative(g_v, out=g_v)
    q *= b2
    g_v /= q
    # G_mu = 2 (my a2 b1 - mx a1 a2) / (b1 b1 b2), in a2's place
    g_mu = a2
    g_mu *= my
    g_mu *= b1
    g_mu -= t
    g_mu *= 2.0
    np.multiply(b1, b1, out=q)
    q *= b2
    g_mu /= q
    # spread(G_mu - 2 G_v mx - G_c my) + 2 x spread(G_v) + y spread(G_c)
    g_mu -= np.multiply(np.multiply(2.0, g_v, out=t), mx, out=t)
    g_mu -= np.multiply(g_c, my, out=t)
    grad = _spread3(g_mu, w, np.empty(x.shape) if out is None else out, ws)
    spread = _spread3(g_v, w, _view(scratch_b, x.shape), ws)
    grad += np.multiply(np.multiply(2.0, x, out=_view(scratch_a, x.shape)), spread,
                        out=_view(scratch_a, x.shape))
    spread = _spread3(g_c, w, _view(scratch_b, x.shape), ws)
    grad += np.multiply(y, spread, out=_view(scratch_a, x.shape))
    grad /= n_windows * float(w**3)
    return value, grad
