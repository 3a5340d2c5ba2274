"""Shared embedding plumbing: the EmbeddingMatrix record and preprocessing.

Preprocessing conventions (applied inside each method): t-SNE and UMAP
standardize features to zero mean / unit variance (features with sigma below
1e-12 are left centered); PCA centers only; PLS standardizes X and centers Y.

Memory contract. An n x p layer matrix is the largest thing an embedding
holds, so preprocessing makes at most one n x p array beside its input:
`center` and `standardize` allocate only their result, and
`pairwise_sq_dists` none (its output is n x n). The per-feature `std` is
taken over blocks of `COLUMN_BLOCK` columns, and the row norms of
`pairwise_sq_dists` over blocks of `ROW_BLOCK` rows, so the temporaries are
n x COLUMN_BLOCK and ROW_BLOCK x p.

The blocks keep the bits of the whole-array forms. A C-ordered axis-0
reduction adds each column's rows one after another in row order, and it
does so for a block of columns too. Only a block one column wide would
differ: numpy then reduces the column as a 1-D strided array, with pairwise
summation. So a one-column remainder joins the block before it. A row's
sum over axis 1 is the same pairwise sum whichever rows share its block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError

SIGMA_GUARD = 1e-12
COLUMN_BLOCK = 1024
ROW_BLOCK = 4


@dataclass
class EmbeddingMatrix:
    method: str  # pca | pls | tsne | umap
    layer: str  # L1 | L2 | L3
    values: np.ndarray  # (n_subjects, 3) float64
    subject_ids: list[str]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("embedding values must be 2D")
        if len(self.subject_ids) != self.values.shape[0]:
            raise ShapeError("subject id count != embedding row count")
        if not np.isfinite(self.values).all():
            raise NumericError(f"non-finite entries in {self.method}/{self.layer} embedding")

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


def center(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    return x - mean, mean


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-feature z-scoring; near-constant features stay centered (scale 1).

    Returns (standardized, mean, scale, n_degenerate).
    """
    xc, mean = center(x)
    p = xc.shape[1]
    starts = list(range(0, p, COLUMN_BLOCK))
    if len(starts) > 1 and p - starts[-1] == 1:  # no block one column wide
        starts.pop()
    sigma = np.empty(p)
    for start, stop in zip(starts, starts[1:] + [p]):
        sigma[start:stop] = xc[:, start:stop].std(axis=0)
    degenerate = sigma < SIGMA_GUARD
    scale = np.where(degenerate, 1.0, sigma)
    xc /= scale
    return xc, mean, scale, int(degenerate.sum())


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distance matrix of float rows, exact zero
    diagonal."""
    sq = np.empty(x.shape[0], dtype=x.dtype)
    for start in range(0, x.shape[0], ROW_BLOCK):
        rows = x[start : start + ROW_BLOCK]
        sq[start : start + ROW_BLOCK] = (rows * rows).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2
