"""Shared embedding plumbing: the EmbeddingMatrix record, and `GramLayer`,
the one pass over a layer's column blocks that the four methods share.

Preprocessing conventions: PCA reads the centred matrix; t-SNE and UMAP read
the squared distances between standardized rows (zero mean, unit variance;
features with sigma below 1e-12 are left centred); PLS reads the
standardized X and centres Y itself.

Memory contract. No n x p array is built. A layer is read as column blocks
(`column_blocks`): `COLUMN_BLOCK` features each, every block an n x w
C-ordered array of all n rows. `GramLayer` passes over the blocks once and
keeps what the methods work from in subject space: the per-feature mean and
scale, the centred Gram matrix G_c = Xc Xc^T and the standardized Gram
matrix G_s = Xs Xs^T, each summed block by block in block order. The
outputs that live in feature space (PCA's axes, PLS's weights and loadings,
t-SNE's jitter) come from one more pass over the blocks, one block at a
time. So a fit holds an n x n pair, its own n x n work arrays, k x p
outputs and one n x COLUMN_BLOCK block. An array is read through the same
blocks, column slices copied one at a time, so it costs one block beside it
and gives the bits of the same matrix read from the activation spill file.

The per-feature statistics keep the bits of the whole-array forms
`x.mean(axis=0)` and `(x - mean).std(axis=0)`. A C-ordered axis-0
reduction adds each column's rows one after another in row order, and it
does so for a block of columns too. Only a block one column wide would
differ: numpy then reduces the column as a 1-D array, with pairwise
summation. So a one-column remainder joins the block before it. The Gram
matrices are sums of one product per block, so their trailing digits
differ from one product of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import NumericError, ShapeError

SIGMA_GUARD = 1e-12
COLUMN_BLOCK = 1024


@dataclass
class EmbeddingMatrix:
    method: str  # pca | pls | tsne | umap
    layer: str  # L1 | L2 | L3
    values: np.ndarray  # (n_subjects, 3) float64
    subject_ids: list[str] | None = None  # None: "S0000", "S0001", ...
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("embedding values must be 2D")
        if self.subject_ids is None:
            self.subject_ids = [f"S{i:04d}" for i in range(self.values.shape[0])]
        self.subject_ids = list(self.subject_ids)
        if len(self.subject_ids) != self.values.shape[0]:
            raise ShapeError("subject id count != embedding row count")
        if not np.isfinite(self.values).all():
            raise NumericError(f"non-finite entries in {self.method}/{self.layer} embedding")

    @property
    def n_components(self) -> int:
        return self.values.shape[1]


def column_blocks(p: int) -> list[tuple[int, int]]:
    """(start, stop) of the column blocks of a p-feature layer, in order:
    `COLUMN_BLOCK` columns each, the last narrower, and a one-column
    remainder joined to the block before it."""
    starts = list(range(0, p, COLUMN_BLOCK))
    if len(starts) > 1 and p - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [p]))


def sign_flips(rows: np.ndarray) -> np.ndarray:
    """Per row of `rows`, True where its largest-magnitude entry (the first
    such, as `argmax` finds it) is negative; an all-zero row is never
    flipped."""
    j = np.argmax(np.abs(rows), axis=1)
    return rows[np.arange(rows.shape[0]), j] < 0


def gram_sq_dists(gram: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of the rows whose Gram matrix is `gram`:
    G_ii + G_jj - 2 G_ij, clipped at 0, with an exact zero diagonal."""
    sq = np.diagonal(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Dense squared Euclidean distance matrix of a few float rows (row
    norms as `axis=1` sums), exact zero diagonal: the form the t-SNE
    optimiser uses on its low-dimensional points."""
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


class GramLayer:
    """An n x p layer seen through its column blocks: one pass at
    construction sets `mean`, `scale` and `n_degenerate` (per feature) and
    the n x n `gram_centred` and `gram_standardized`; `centred_blocks` and
    `standardized_blocks` read the blocks again, one at a time.

    `read_blocks()` returns the layer's blocks in `column_blocks(p)` order,
    each a fresh C-ordered float64 (n, w) array that the layer may change;
    it is called once per pass."""

    def __init__(self, n: int, p: int, read_blocks: Callable[[], Iterable[np.ndarray]]):
        self.shape = (n, p)
        self._read_blocks = read_blocks
        self.mean, self.scale = np.empty(p), np.empty(p)
        self.n_degenerate = 0
        self.gram_centred, self.gram_standardized = np.zeros((n, n)), np.zeros((n, n))
        for start, stop, xb in self._blocks():
            mean = xb.mean(axis=0)
            xb -= mean
            self.gram_centred += xb @ xb.T
            sigma = xb.std(axis=0)
            degenerate = sigma < SIGMA_GUARD
            scale = np.where(degenerate, 1.0, sigma)
            xb /= scale
            self.gram_standardized += xb @ xb.T
            self.mean[start:stop], self.scale[start:stop] = mean, scale
            self.n_degenerate += int(degenerate.sum())
        self._d2 = None

    @classmethod
    def of(cls, x) -> "GramLayer":
        """`x` if it is a layer already, else the layer of the 2-D array
        `x`, read in blocks of its columns, each copied to float64."""
        if isinstance(x, cls):
            return x
        x = np.asarray(x)
        if x.ndim != 2:
            raise ShapeError(f"a layer matrix is 2-D, not {x.ndim}-D")
        return cls(*x.shape, lambda: (np.array(x[:, start:stop], dtype=np.float64, order="C")
                                      for start, stop in column_blocks(x.shape[1])))

    def _blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        n, p = self.shape
        for (start, stop), xb in zip(column_blocks(p), self._read_blocks(), strict=True):
            if xb.shape != (n, stop - start):
                raise ShapeError(f"block {start}:{stop} has shape {xb.shape}, "
                                 f"expected {(n, stop - start)}")
            yield start, stop, xb

    def centred_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(start, stop, Xc[:, start:stop]) for every block, in order."""
        for start, stop, xb in self._blocks():
            xb -= self.mean[start:stop]
            yield start, stop, xb

    def standardized_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """(start, stop, Xs[:, start:stop]) for every block, in order."""
        for start, stop, xb in self.centred_blocks():
            xb /= self.scale[start:stop]
            yield start, stop, xb

    def sq_dists(self) -> np.ndarray:
        """The squared distances of the standardized rows, built from
        `gram_standardized` on the first call; read-only."""
        if self._d2 is None:
            self._d2 = gram_sq_dists(self.gram_standardized)
            self._d2.flags.writeable = False
        return self._d2


def layer_group(layers: dict, seeds: dict[str, int] | None,
                method: str) -> tuple[dict[str, GramLayer], dict[str, int], int]:
    """The layers of a group of fits (name -> layer or array) as
    `GramLayer`s, each fit's seed (default 0) and their one row count."""
    grams = {name: GramLayer.of(x) for name, x in layers.items()}
    sizes = sorted({g.shape[0] for g in grams.values()})
    if len(sizes) != 1:
        raise ShapeError(f"{method} layers fitted together need one row "
                         f"count, got {sizes}")
    return grams, {name: (seeds or {}).get(name, 0) for name in grams}, sizes[0]
