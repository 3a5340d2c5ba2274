"""Dimensionality reduction of latent activations into 3-component embeddings."""

from .common import EmbeddingMatrix, center, standardize, pairwise_sq_dists
from .pca import PcaModel, pca_fit_transform
from .pls import PlsModel, pls_fit_transform, one_hot
from .tsne import tsne_embed, conditional_probabilities, kl_divergence
from .umap import umap_embed, fit_ab, fuzzy_graph, cross_entropy
from .bootstrap import embed_once

__all__ = [
    "EmbeddingMatrix",
    "center",
    "standardize",
    "pairwise_sq_dists",
    "PcaModel",
    "pca_fit_transform",
    "PlsModel",
    "pls_fit_transform",
    "one_hot",
    "tsne_embed",
    "conditional_probabilities",
    "kl_divergence",
    "umap_embed",
    "fit_ab",
    "fuzzy_graph",
    "cross_entropy",
    "embed_once",
]
