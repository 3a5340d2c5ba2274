"""Shared embedding plumbing: the EmbeddingMatrix record, and the one
preparation of a layer matrix that the four methods share.

Preprocessing conventions: PCA reads the centred matrix; t-SNE and UMAP read
the squared distances between standardized rows (zero mean, unit variance;
features with sigma below 1e-12 are left centred); PLS reads the
standardized X and centres Y itself.

`PreparedLayer` holds one layer matrix and prepares it in place, once, in a
fixed order: it centres the matrix (for PCA), then scales it and builds the
distances of its rows (for t-SNE and UMAP), and then hands it to PLS, whose
deflation consumes it. A step asked for after a later one, or after PLS,
raises. Each method takes a `PreparedLayer` or an array; it prepares an
array on a private copy, and `center` and `standardize` are the first two
steps on such a copy.

Memory contract. An n x p layer matrix is the largest thing an embedding
holds. Preparation allocates no n x p array: centring and scaling work in
the matrix itself, the per-feature `std` is taken over blocks of
`COLUMN_BLOCK` columns, and the row norms of `pairwise_sq_dists` over blocks
of `ROW_BLOCK` rows, so the temporaries are n x COLUMN_BLOCK and
ROW_BLOCK x p. An array argument costs one n x p array beside it, its
private copy.

The blocks keep the bits of the whole-array forms. A C-ordered axis-0
reduction adds each column's rows one after another in row order, and it
does so for a block of columns too. Only a block one column wide would
differ: numpy then reduces the column as a 1-D strided array, with pairwise
summation. So a one-column remainder joins the block before it. A row's
sum over axis 1 is the same pairwise sum whichever rows share its block.
Centring in place (`x -= mean`) and scaling in place (`x /= scale`) give
every element the one subtraction and division of `x - mean` and
`(x - mean) / scale`.
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


# preparation steps, in the order they run
_RAW, _CENTRED, _SCALED, _CONSUMED = range(4)
_STEP_NAMES = ("raw", "centred", "standardized", "consumed by PLS")


class PreparedLayer:
    """An n x p float64 layer matrix, prepared in place for the embedding
    methods; the matrix passed in is changed.

    `centred()` and `standardized()` return the matrix itself after that
    step, and `sq_dists()` the distances of its standardized rows, built on
    the first call and read-only. `consume()` hands the standardized matrix
    over to be changed; every later call raises. A step runs the ones before
    it first, and each runs once. `mean`, `scale` and `n_degenerate` are set
    by the step that computes them."""

    def __init__(self, x: np.ndarray):
        if x.dtype != np.float64:
            raise TypeError(f"a prepared layer is float64, not {x.dtype}")
        self.shape = x.shape
        self.mean = self.scale = None
        self.n_degenerate = 0
        self._x = x
        self._d2 = None
        self._step = _RAW

    @classmethod
    def of(cls, x) -> "PreparedLayer":
        """`x` if it is prepared already, else a layer prepared on a private
        float64 copy of `x` in its memory order."""
        if isinstance(x, cls):
            return x
        return cls(np.array(x, dtype=np.float64))

    def centred(self) -> np.ndarray:
        return self._advance(_CENTRED)

    def standardized(self) -> np.ndarray:
        return self._advance(_SCALED)

    def sq_dists(self) -> np.ndarray:
        x = self._advance(_SCALED)
        if self._d2 is None:
            self._d2 = pairwise_sq_dists(x)
            self._d2.flags.writeable = False
        return self._d2

    def consume(self) -> np.ndarray:
        x = self._advance(_SCALED)
        self._step = _CONSUMED
        self._x = self._d2 = None
        return x

    def _advance(self, step: int) -> np.ndarray:
        if self._step > step:
            raise RuntimeError(f"layer already {_STEP_NAMES[self._step]}; "
                               f"it cannot be {_STEP_NAMES[step]} again")
        x = self._x
        if self._step < _CENTRED:
            self.mean = x.mean(axis=0)
            x -= self.mean
        if self._step < _SCALED <= step:
            p = x.shape[1]
            starts = list(range(0, p, COLUMN_BLOCK))
            if len(starts) > 1 and p - starts[-1] == 1:  # no block one column wide
                starts.pop()
            sigma = np.empty(p)
            for start, stop in zip(starts, starts[1:] + [p]):
                sigma[start:stop] = x[:, start:stop].std(axis=0)
            degenerate = sigma < SIGMA_GUARD
            self.scale = np.where(degenerate, 1.0, sigma)
            self.n_degenerate = int(degenerate.sum())
            x /= self.scale
        self._step = step
        return x


def center(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    layer = PreparedLayer.of(x)
    return layer.centred(), layer.mean


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per-feature z-scoring; near-constant features stay centered (scale 1).

    Returns (standardized, mean, scale, n_degenerate).
    """
    layer = PreparedLayer.of(x)
    return layer.standardized(), layer.mean, layer.scale, layer.n_degenerate


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
