"""One dispatcher over the four embedding methods, as the embed stage calls it.

`embed_once(x, method, ...)` fits PCA, PLS, t-SNE or UMAP on the rows of `x`
and returns the `EmbeddingMatrix`; method-specific hyperparameters pass
through as keyword arguments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .common import EmbeddingMatrix, PreparedLayer
from .pca import pca_fit_transform
from .pls import pls_fit_transform, one_hot
from .tsne import tsne_embed
from .umap import umap_embed

# The order in which the methods can share one PreparedLayer: PCA reads the
# centred matrix, t-SNE and UMAP the distances of the standardized rows, and
# PLS consumes the standardized matrix.
PREPARED_ORDER = ("pca", "tsne", "umap", "pls")


def embed_once(x: np.ndarray | PreparedLayer, method: str, seed: int = 0,
               labels=None, subject_ids=None, layer: str = "L3", dims: int = 3,
               **hyper) -> EmbeddingMatrix:
    """Uniform dispatch over the four embedding methods.

    `x` is an array, which the method prepares on a private copy, or a
    `PreparedLayer` that several calls share, made in `PREPARED_ORDER`."""
    if method == "pca":
        _, emb = pca_fit_transform(x, k=dims, subject_ids=subject_ids, layer=layer)
        return emb
    if method == "pls":
        if labels is None:
            raise ConfigError("PLS embedding needs class labels")
        _, emb = pls_fit_transform(x, one_hot(labels), k=dims,
                                   subject_ids=subject_ids, layer=layer)
        return emb
    if method == "tsne":
        return tsne_embed(x, dims=dims, seed=seed, subject_ids=subject_ids,
                          layer=layer, **hyper)
    if method == "umap":
        return umap_embed(x, dims=dims, seed=seed, subject_ids=subject_ids,
                          layer=layer, **hyper)
    raise ConfigError(f"unknown embedding method {method!r}")
