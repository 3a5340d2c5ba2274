"""Principal component analysis through the n x n Gram matrix of the subjects.

Encoder activations are far wider than they are tall: a 64^3 volume gives
2^19 L1 features for a few dozen subjects. So the eigenpairs of the empirical
covariance S = X_c^T X_c / (n-1) are taken in subject space, by the snapshot
method (Sirovich, 1987, Q. Appl. Math.). The Gram matrix G = X_c X_c^T is
only n x n; its eigenpairs (w_i, u_i) give the singular values
s_i = sqrt(w_i) of X_c, and the axes v_i = X_c^T u_i / s_i, built for all
kept axes in one product. The cost is one n x n x p product for G and one
k x n x p product for the axes, in place of a full SVD of the n x p matrix.
Eigenvalues are lambda_i = w_i/(n-1), and scores are the centered rows
projected onto the axes. The price is accuracy on axes far below the first:
G squares the singular values, so axis i is resolved to about
eps * w_0 / (w_i - w_{i+1}), against eps * s_0 / (s_i - s_{i+1}) from an
SVD of X_c.

Rank is numpy's `matrix_rank` rule for a Hermitian matrix, applied to G:
eigenvalues above w_0 * n * eps count. Axes beyond the rank are zero rows
with zero eigenvalues. Sign convention: each axis is flipped so its
largest-magnitude loading is positive, which makes axes reproducible across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInputError
from .common import EmbeddingMatrix, PreparedLayer


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, p), rows orthonormal (zero rows when deficient)
    eigenvalues: np.ndarray  # (k,), descending
    rank: int
    rank_deficient: bool
    metadata: dict = field(default_factory=dict)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i in range(out.shape[0]):
        row = out[i]
        if row.any():
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0:
                out[i] = -row
    return out


def pca_fit_transform(x: np.ndarray | PreparedLayer, k: int = 3,
                      subject_ids: list[str] | None = None,
                      layer: str = "L3") -> tuple[PcaModel, EmbeddingMatrix]:
    """PCA of the rows of `x`, a layer prepared by the caller, which this
    centres, or an array, which this centres in a private copy."""
    prepared = PreparedLayer.of(x)
    n, p = prepared.shape
    if n < 2:
        raise DegenerateInputError("PCA needs at least 2 rows")
    xc = prepared.centred()
    # eigenpairs of the Gram matrix, descending
    w, u = np.linalg.eigh(xc @ xc.T)
    w, u = w[::-1], u[:, ::-1]
    rank = int((w > w[0] * n * np.finfo(np.float64).eps).sum())
    components = np.zeros((k, p))
    eigenvalues = np.zeros(k)
    usable = min(k, rank)
    s = np.sqrt(w[:usable])
    components[:usable] = (u[:, :usable].T @ xc) / s[:, None]
    eigenvalues[:usable] = w[:usable] / (n - 1)
    components = _fix_signs(components)
    scores = xc @ components.T
    model = PcaModel(
        mean=prepared.mean,
        components=components,
        eigenvalues=eigenvalues,
        rank=rank,
        rank_deficient=rank < k,
        metadata={"n": n, "k": k},
    )
    if subject_ids is None:
        subject_ids = [f"S{i:04d}" for i in range(n)]
    emb = EmbeddingMatrix(
        method="pca",
        layer=layer,
        values=scores,
        subject_ids=list(subject_ids),
        metadata={"rank_deficient": model.rank_deficient},
    )
    return model, emb
