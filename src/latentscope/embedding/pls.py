"""Partial least squares (PLS2) with both-sides deflation.

Each component's weight vector w maximizes Cov^2(Xw, Y) over unit vectors;
it is the dominant left singular vector of the cross-covariance X^T Y, which
is what NIPALS converges to. After extracting the score t = Xw, both X and Y
are deflated by their rank-1 regressions on t, and the next component is
computed from the residuals. X is standardized and Y centered beforehand
(one-hot class indicators are the usual Y here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInputError
from .common import EmbeddingMatrix, PreparedLayer, center

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


def pls_fit_transform(x: np.ndarray | PreparedLayer, y: np.ndarray, k: int = 3,
                      subject_ids: list[str] | None = None,
                      layer: str = "L3") -> tuple[PlsModel, EmbeddingMatrix]:
    """PLS of the rows of `x` on `y`. `x` is a layer prepared by the caller,
    which this consumes, or an array, which this standardizes and deflates
    in a private copy."""
    prepared = PreparedLayer.of(x)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    n, p = prepared.shape
    if n != y.shape[0]:
        raise DegenerateInputError("X and Y row counts differ")
    if np.allclose(y, y[0], atol=_TINY):
        raise DegenerateInputError("constant Y: PLS target carries no signal")
    # deflated in place below
    xd = prepared.consume()
    yd, y_mean = center(y)

    weights = np.zeros((k, p))
    x_loadings = np.zeros((k, p))
    y_loadings = np.zeros((k, yd.shape[1]))
    scores = np.zeros((n, k))
    degenerate = 0
    for comp in range(k):
        cov = xd.T @ yd
        if np.linalg.norm(cov) < _TINY:
            degenerate = k - comp
            break
        # dominant left singular vector of the cross-covariance
        u, s, vt = np.linalg.svd(cov, full_matrices=False)
        w = u[:, 0]
        j = int(np.argmax(np.abs(w)))
        if w[j] < 0:
            w = -w
        t = xd @ w
        tt = float(t @ t)
        if tt < _TINY:
            degenerate = k - comp
            break
        p_load = (xd.T @ t) / tt
        q_load = (yd.T @ t) / tt
        # row by row, the products and differences of xd - outer(t, p_load)
        # without an n x p temporary
        for i in range(n):
            xd[i] -= t[i] * p_load
        yd -= np.outer(t, q_load)
        weights[comp] = w
        x_loadings[comp] = p_load
        y_loadings[comp] = q_load
        scores[:, comp] = t
    model = PlsModel(
        x_mean=prepared.mean,
        x_scale=prepared.scale,
        y_mean=y_mean,
        x_weights=weights,
        x_loadings=x_loadings,
        y_loadings=y_loadings,
        n_components=k,
        degenerate_components=degenerate,
        metadata={"n": n},
    )
    if subject_ids is None:
        subject_ids = [f"S{i:04d}" for i in range(n)]
    emb = EmbeddingMatrix(
        method="pls",
        layer=layer,
        values=scores,
        subject_ids=list(subject_ids),
        metadata={"degenerate_components": degenerate},
    )
    return model, emb
