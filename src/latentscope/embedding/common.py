"""Shared embedding plumbing: the EmbeddingMatrix record and preprocessing.

Preprocessing conventions (applied inside each method): t-SNE and UMAP
standardize features to zero mean / unit variance (features with sigma below
1e-12 are left centered); PCA centers only; PLS standardizes X and centers Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, ShapeError

SIGMA_GUARD = 1e-12


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
    sigma = xc.std(axis=0)
    degenerate = sigma < SIGMA_GUARD
    scale = np.where(degenerate, 1.0, sigma)
    xc /= scale
    return xc, mean, scale, int(degenerate.sum())


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distance matrix, exact zero diagonal."""
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2
