"""One layer matrix prepared in place and shared by the four embedding
methods: the bits of each method on a private copy, no n x p array beside
the layer, and no step once PLS has consumed it."""

import tracemalloc

import numpy as np
import pytest

from latentscope.embedding import (PREPARED_ORDER, PreparedLayer, embed_once,
                                   pairwise_sq_dists, standardize)
from latentscope.embedding.common import COLUMN_BLOCK

HYPER = {"tsne": {"perplexity": 5.0, "iters": 40, "kl_every": 10},
         "umap": {"n_neighbors": 8, "epochs": 20}}


def _layer(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.1, 5.0, size=p)
    x[:, 3] = 0.25  # a constant feature: the degenerate-sigma branch
    return x


def _fit(layer, method, labels):
    return embed_once(layer, method, seed=11, layer="L1",
                      labels=labels if method == "pls" else None,
                      **HYPER.get(method, {}))


def _bits(emb):
    meta = {k: np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
            for k, v in emb.metadata.items()}
    return emb.values.tobytes(), meta


def test_shared_layer_gives_each_method_its_private_bits():
    x = _layer(30, 2 * COLUMN_BLOCK + 1, seed=1)
    labels = np.arange(30) % 2
    private = {m: _bits(_fit(x, m, labels)) for m in PREPARED_ORDER}
    layer = PreparedLayer(x.copy())
    for method in PREPARED_ORDER:
        assert _bits(_fit(layer, method, labels)) == private[method], method


def test_methods_on_a_prepared_layer_allocate_no_n_by_p_array():
    """PCA, t-SNE, UMAP and PLS on one prepared layer, traced from the
    moment the layer exists: their peak stays under half the layer."""
    n, p = 64, 8 * COLUMN_BLOCK + 1
    x = _layer(n, p, seed=2)
    labels = np.arange(n) % 3
    tracemalloc.start()
    try:
        layer = PreparedLayer(x)
        for method in PREPARED_ORDER:
            _fit(layer, method, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 2


def test_steps_run_in_order_and_once():
    x = _layer(12, 40, seed=3)
    layer = PreparedLayer(x)
    xc = layer.centred()
    assert xc is x and np.allclose(x.mean(axis=0), 0.0)
    d2 = layer.sq_dists()
    want = standardize(_layer(12, 40, seed=3))
    assert layer.standardized().tobytes() == want[0].tobytes()
    assert layer.scale.tobytes() == want[2].tobytes()
    assert layer.n_degenerate == want[3] == 1
    assert layer.sq_dists() is d2 and not d2.flags.writeable
    with pytest.raises(RuntimeError, match="already standardized"):
        layer.centred()


def test_layer_is_spent_after_pls():
    layer = PreparedLayer(_layer(20, 30, seed=4))
    labels = np.arange(20) % 2
    _fit(layer, "pls", labels)
    for method in PREPARED_ORDER:
        with pytest.raises(RuntimeError, match="consumed by PLS"):
            _fit(layer, method, labels)
    with pytest.raises(RuntimeError, match="consumed by PLS"):
        layer.sq_dists()


def test_an_array_argument_is_left_as_it_is():
    x = _layer(20, 30, seed=5)
    before = x.copy()
    labels = np.arange(20) % 2
    for method in PREPARED_ORDER:
        _fit(x, method, labels)
    assert x.tobytes() == before.tobytes()


def test_tsne_jitter_never_reaches_the_shared_distances():
    """Duplicate rows make t-SNE jitter its copy of the standardized rows;
    the layer and the d2 that UMAP then reads keep their bits."""
    x = _layer(24, 50, seed=6)
    x[7] = x[2]
    layer = PreparedLayer(x.copy())
    d2 = layer.sq_dists()
    before = layer.standardized().copy(), d2.copy()
    assert d2[2, 7] == 0.0
    emb = _fit(layer, "tsne", None)
    assert "duplicate_points_jittered" in emb.metadata["notes"]
    assert layer.standardized().tobytes() == before[0].tobytes()
    assert layer.sq_dists() is d2 and d2.tobytes() == before[1].tobytes()
    assert d2.tobytes() == pairwise_sq_dists(standardize(x)[0]).tobytes()
    assert _bits(_fit(layer, "umap", None)) == _bits(_fit(x, "umap", None))


def test_a_prepared_layer_is_float64():
    with pytest.raises(TypeError):
        PreparedLayer(np.zeros((4, 3), dtype=np.float32))
