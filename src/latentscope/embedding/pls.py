"""Partial least squares (PLS2) with both-sides deflation, in kernel form.

Each component's weight vector w maximizes Cov^2(Xw, Y) over unit vectors;
it is the dominant left singular vector of the cross-covariance X^T Y, which
is what NIPALS converges to. After extracting the score t = Xw, both X and Y
are deflated by their rank-1 regressions on t, and the next component is
computed from the residuals. X is standardized and Y centered beforehand
(one-hot class indicators are the usual Y here).

The fit runs in subject space, on the n x n kernel K = X X^T
(`GramLayer.gram_standardized`), as kernel PLS does (Rannar, Lindgren,
Geladi and Wold, 1994, J. Chemometrics). With M = Y^T K Y, the Gram
matrix of the cross-covariance X^T Y, each component takes
- c, the dominant eigenvector of M, and sigma = sqrt of its eigenvalue, so
  that w = X^T Y c / sigma is the unit left singular vector;
- the score t = K Y c / sigma = X w;
- the deflation P = I - t t^T / t^T t: K <- P K P and Y <- P Y, the kernels
  of X - t p^T and Y - t q^T.
A component is degenerate, and the fit stops, when the cross-covariance
norm sqrt(trace M) or t^T t falls below 1e-12, the two rules of the p-space
form, or when X has run out of rank: the scores are orthogonal and lie in
the column space of X, so there are at most rank(K) of them, with numpy's
`matrix_rank` rule for a Hermitian matrix (eigenvalues of K above
w_max * n * eps). In p-space the deflated X of such a fit is rounding noise
and the cross-covariance rule stops it; the Gram squares the scale of X, so
the noise left in a deflated K would pass both rules, and the rank rule
stands in for them. For the same reason a component whose cross-covariance
is small is resolved less well than in p-space: to about
eps * trace(K) * ||Y||^2 / sigma^2, against eps * ||X|| * ||Y|| / sigma.

The outputs that live in feature space come from one pass over the blocks
of the standardized X_0, after the fit. The scores are orthogonal, so the
deflated X_a gives X_a^T Y_a = X_0^T Y_a and X_a^T t_a = X_0^T t_a: the
weights are X_0^T (Y_a c_a) / sigma_a and the x-loadings X_0^T t_a / t_a^T
t_a. Sign convention: each weight vector is flipped so its largest-magnitude
entry (the first, on a tie) is positive, and its score and both loadings
with it. That is exact, because the deflation does not depend on the sign
of t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInputError
from .common import EmbeddingMatrix, GramLayer, sign_flips

_TINY = 1e-12


@dataclass
class PlsModel:
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: np.ndarray
    x_weights: np.ndarray  # (k, p), unit rows
    x_loadings: np.ndarray  # (k, p)
    y_loadings: np.ndarray  # (k, q)
    n_components: int
    degenerate_components: int
    metadata: dict = field(default_factory=dict)


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    classes = np.unique(labels)
    out = np.zeros((labels.shape[0], classes.shape[0]))
    for j, c in enumerate(classes):
        out[labels == c, j] = 1.0
    return out


def pls_fit_transform(x: np.ndarray | GramLayer, y: np.ndarray, k: int = 3,
                      subject_ids: list[str] | None = None,
                      layer: str = "L3") -> tuple[PlsModel, EmbeddingMatrix]:
    """PLS of the rows of `x` on `y`. `x` is a layer the caller shares
    between fits or an array, read in column blocks."""
    grams = GramLayer.of(x)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n, p = grams.shape
    if n != y.shape[0]:
        raise DegenerateInputError("X and Y row counts differ")
    if np.allclose(y, y[0], atol=_TINY):
        raise DegenerateInputError("constant Y: PLS target carries no signal")
    y_mean = y.mean(axis=0)
    yd = y - y_mean
    kd = grams.gram_standardized.copy()
    spectrum = np.linalg.eigvalsh(kd)
    rank = int((spectrum > spectrum[-1] * n * np.finfo(np.float64).eps).sum())

    y_loadings = np.zeros((k, yd.shape[1]))
    scores = np.zeros((n, k))
    tts = np.zeros(k)
    directions = np.zeros((n, k))  # Y_a c_a / sigma_a: X_0^T of it is w_a
    degenerate = 0
    for comp in range(k):
        ky = kd @ yd
        m = yd.T @ ky
        if comp == rank or np.sqrt(max(np.trace(m), 0.0)) < _TINY:
            degenerate = k - comp
            break
        # dominant eigenpair of the cross-covariance's Gram matrix
        evals, evecs = np.linalg.eigh(m)
        c, sigma = evecs[:, -1], np.sqrt(evals[-1])
        t = (ky @ c) / sigma
        tt = float(t @ t)
        if tt < _TINY:
            degenerate = k - comp
            break
        y_loadings[comp] = (yd.T @ t) / tt
        directions[:, comp] = (yd @ c) / sigma
        scores[:, comp], tts[comp] = t, tt
        deflate = np.eye(n) - np.outer(t, t) / tt
        kd = deflate @ kd @ deflate
        yd -= np.outer(t, y_loadings[comp])

    weights = np.zeros((k, p))
    x_loadings = np.zeros((k, p))
    done = k - degenerate
    if done:
        w_rows = np.ascontiguousarray(directions[:, :done].T)
        t_rows = np.ascontiguousarray(scores[:, :done].T)
        for start, stop, xs in grams.standardized_blocks():
            weights[:done, start:stop] = w_rows @ xs
            x_loadings[:done, start:stop] = (t_rows @ xs) / tts[:done, None]
        flip = sign_flips(weights[:done])
        for arr in (weights, x_loadings, y_loadings):
            arr[:done][flip] *= -1.0
        scores[:, :done][:, flip] *= -1.0
    model = PlsModel(
        x_mean=grams.mean,
        x_scale=grams.scale,
        y_mean=y_mean,
        x_weights=weights,
        x_loadings=x_loadings,
        y_loadings=y_loadings,
        n_components=k,
        degenerate_components=degenerate,
        metadata={"n": n},
    )
    emb = EmbeddingMatrix(
        method="pls",
        layer=layer,
        values=scores,
        subject_ids=subject_ids,
        metadata={"degenerate_components": degenerate},
    )
    return model, emb
