"""The embed_once dispatcher over the four embedding methods."""

import numpy as np
import pytest

from latentscope.embedding.bootstrap import embed_once
from latentscope.errors import ConfigError


class TestEmbedOnce:
    def test_dispatch_tags(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        labels = np.array([0] * 10 + [1] * 10)
        assert embed_once(x, "pca").method == "pca"
        assert embed_once(x, "pls", labels=labels).method == "pls"
        assert embed_once(x, "tsne", perplexity=4.0, iters=10).method == "tsne"
        assert embed_once(x, "umap", n_neighbors=4, epochs=10).method == "umap"

    def test_common_shape(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 5))
        for method, hyper in [("pca", {}), ("tsne", {"perplexity": 4.0, "iters": 5}),
                              ("umap", {"n_neighbors": 4, "epochs": 5})]:
            emb = embed_once(x, method, dims=3, **hyper)
            assert emb.values.shape == (16, 3)

    def test_pls_requires_labels(self):
        with pytest.raises(ConfigError):
            embed_once(np.zeros((10, 3)), "pls")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            embed_once(np.zeros((10, 3)), "isomap")

    def test_layer_and_ids_forwarded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 4))
        ids = [f"Z{i}" for i in range(8)]
        emb = embed_once(x, "pca", subject_ids=ids, layer="L1")
        assert emb.layer == "L1"
        assert emb.subject_ids == ids

