"""One dispatcher over the four embedding methods, as the embed stage calls it.

`embed_once(layers, method, ...)` fits PCA, PLS, t-SNE or UMAP on the rows
of each of `layers` and returns their `EmbeddingMatrix`es; method-specific
hyperparameters pass through as keyword arguments.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .common import EmbeddingMatrix, GramLayer
from .pca import pca_fit_transform
from .pls import pls_fit_transform, one_hot
from .tsne import tsne_embed_many
from .umap import umap_embed_many


def embed_once(layers: dict[str, np.ndarray | GramLayer], method: str,
               seeds: dict[str, int] | None = None, labels=None,
               subject_ids=None, dims: int = 3, **hyper) -> list[EmbeddingMatrix]:
    """Uniform dispatch over the four embedding methods: one embedding of
    each of `layers` (name -> layer, all of the same subjects), in their
    order, the fit of layer `name` seeded with `seeds[name]` (default 0).

    A layer is an array, which the method reads in column blocks, or a
    `GramLayer` that several calls share, in any order. t-SNE and UMAP fit
    the layers together in lockstep; PCA and PLS fit one after another."""
    if method == "pca":
        return [pca_fit_transform(x, k=dims, subject_ids=subject_ids, layer=name)[1]
                for name, x in layers.items()]
    if method == "pls":
        if labels is None:
            raise ConfigError("PLS embedding needs class labels")
        return [pls_fit_transform(x, one_hot(labels), k=dims,
                                  subject_ids=subject_ids, layer=name)[1]
                for name, x in layers.items()]
    if method == "tsne":
        return tsne_embed_many(layers, seeds, dims=dims, subject_ids=subject_ids,
                               **hyper)
    if method == "umap":
        return umap_embed_many(layers, seeds, dims=dims, subject_ids=subject_ids,
                               **hyper)
    raise ConfigError(f"unknown embedding method {method!r}")
