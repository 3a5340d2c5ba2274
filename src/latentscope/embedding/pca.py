"""Principal component analysis through the n x n Gram matrix of the subjects.

Encoder activations are far wider than they are tall: a 64^3 volume gives
2^19 L1 features for a few dozen subjects. So the eigenpairs of the empirical
covariance S = X_c^T X_c / (n-1) are taken in subject space, by the snapshot
method (Sirovich, 1987, Q. Appl. Math.). The Gram matrix G = X_c X_c^T is
only n x n (`GramLayer.gram_centred`, summed over column blocks); its
eigenpairs (w_i, u_i) give the singular values s_i = sqrt(w_i) of X_c, the
scores u_i s_i and the axes v_i = X_c^T u_i / s_i. The axes are built in one
pass over the column blocks of X_c, a k x w product per block, and no SVD of
the n x p matrix is taken. Eigenvalues are lambda_i = w_i/(n-1). The price
is accuracy on axes far below the first: G squares the singular values, so
axis i is resolved to about eps * w_0 / (w_i - w_{i+1}), against
eps * s_0 / (s_i - s_{i+1}) from an SVD of X_c.

Rank is numpy's `matrix_rank` rule for a Hermitian matrix, applied to G:
eigenvalues above w_0 * n * eps count. Axes beyond the rank are zero rows
with zero eigenvalues and zero scores. Sign convention: each axis is flipped
so its largest-magnitude loading (the first, on a tie) is positive, and its
scores with it, which makes axes reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateInputError
from .common import EmbeddingMatrix, GramLayer, sign_flips


@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (k, p), rows orthonormal (zero rows when deficient)
    eigenvalues: np.ndarray  # (k,), descending
    rank: int
    rank_deficient: bool
    metadata: dict = field(default_factory=dict)


def pca_fit_transform(x: np.ndarray | GramLayer, k: int = 3,
                      subject_ids: list[str] | None = None,
                      layer: str = "L3") -> tuple[PcaModel, EmbeddingMatrix]:
    """PCA of the rows of `x`, a layer the caller shares between fits or an
    array, read in column blocks."""
    grams = GramLayer.of(x)
    n, p = grams.shape
    if n < 2:
        raise DegenerateInputError("PCA needs at least 2 rows")
    # eigenpairs of the Gram matrix, descending
    w, u = np.linalg.eigh(grams.gram_centred)
    w, u = w[::-1], u[:, ::-1]
    rank = int((w > w[0] * n * np.finfo(np.float64).eps).sum())
    usable = min(k, rank)
    components = np.zeros((k, p))
    eigenvalues = np.zeros(k)
    scores = np.zeros((n, k))
    if usable:
        s = np.sqrt(w[:usable])
        basis = np.ascontiguousarray(u[:, :usable].T)
        for start, stop, xc in grams.centred_blocks():
            components[:usable, start:stop] = (basis @ xc) / s[:, None]
        eigenvalues[:usable] = w[:usable] / (n - 1)
        scores[:, :usable] = u[:, :usable] * s
        flip = sign_flips(components[:usable])
        components[:usable][flip] *= -1.0
        scores[:, :usable][:, flip] *= -1.0
    model = PcaModel(
        mean=grams.mean,
        components=components,
        eigenvalues=eigenvalues,
        rank=rank,
        rank_deficient=rank < k,
        metadata={"n": n, "k": k},
    )
    emb = EmbeddingMatrix(
        method="pca",
        layer=layer,
        values=scores,
        subject_ids=subject_ids,
        metadata={"rank_deficient": model.rank_deficient},
    )
    return model, emb
