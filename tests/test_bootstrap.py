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
        assert embed_once({"L3": x}, "pca")[0].method == "pca"
        assert embed_once({"L3": x}, "pls", labels=labels)[0].method == "pls"
        assert embed_once({"L3": x}, "tsne", perplexity=4.0, iters=10)[0].method == "tsne"
        assert embed_once({"L3": x}, "umap", n_neighbors=4, epochs=10)[0].method == "umap"

    def test_common_shape(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 5))
        for method, hyper in [("pca", {}), ("tsne", {"perplexity": 4.0, "iters": 5}),
                              ("umap", {"n_neighbors": 4, "epochs": 5})]:
            emb, = embed_once({"L3": x}, method, dims=3, **hyper)
            assert emb.values.shape == (16, 3)

    def test_pls_requires_labels(self):
        with pytest.raises(ConfigError):
            embed_once({"L3": np.zeros((10, 3))}, "pls")

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            embed_once({"L3": np.zeros((10, 3))}, "isomap")

    def test_layer_and_ids_forwarded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 4))
        ids = [f"Z{i}" for i in range(8)]
        emb, = embed_once({"L1": x}, "pca", subject_ids=ids)
        assert emb.layer == "L1"
        assert emb.subject_ids == ids

    @pytest.mark.parametrize("method, hyper", [
        ("pca", {}), ("tsne", {"perplexity": 4.0, "iters": 10}),
        ("umap", {"n_neighbors": 4, "epochs": 10})])
    def test_each_layer_fitted_as_alone_with_its_seed(self, method, hyper):
        rng = np.random.default_rng(3)
        layers = {"L3": rng.normal(size=(16, 3)), "L1": rng.normal(size=(16, 9))}
        seeds = {"L3": 7, "L1": 8}
        fits = embed_once(layers, method, seeds=seeds, **hyper)
        assert [emb.layer for emb in fits] == ["L3", "L1"]
        for emb in fits:
            alone, = embed_once({emb.layer: layers[emb.layer]}, method,
                                seeds={emb.layer: seeds[emb.layer]}, **hyper)
            assert emb.values.tobytes() == alone.values.tobytes()
