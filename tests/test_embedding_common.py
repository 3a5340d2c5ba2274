"""The column-block path of embedding/common.py: `GramLayer` against the
whole-array `_ref_*` formulas, the spill file against an array, and no
n x p array in a fit."""

import tempfile
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope.autoencoder import ActivationSet, spill_rows
from latentscope.embedding import embed_once
from latentscope.embedding.common import (COLUMN_BLOCK, GramLayer, column_blocks,
                                          gram_sq_dists, sign_flips)
from latentscope.embedding.pca import pca_fit_transform
from latentscope.embedding.pls import one_hot, pls_fit_transform
from latentscope.embedding.tsne import conditional_probabilities
from latentscope.errors import ShapeError

from conftest import _ref_standardize

METHODS = ("pca", "pls", "tsne", "umap")
HYPER = {"tsne": {"perplexity": 3.0, "iters": 40, "kl_every": 10},
         "umap": {"n_neighbors": 8, "epochs": 20}}


def _ref_grams(x):
    """(G_c, G_s): one product of the whole centred and standardized
    matrices."""
    xs, mean, _, _ = _ref_standardize(x)
    xc = x - mean
    return xc @ xc.T, xs @ xs.T


def _ref_sq_dists(x):
    """Squared distances of the standardized rows, from their row norms."""
    xs = _ref_standardize(x)[0]
    sq = (xs * xs).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (xs @ xs.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    return d2


def _ref_pca(x, k):
    """PCA on the whole centred matrix, through its Gram matrix:
    (components, eigenvalues, scores, rank)."""
    xc = x - x.mean(axis=0)
    n = x.shape[0]
    w, u = np.linalg.eigh(xc @ xc.T)
    w, u = w[::-1], u[:, ::-1]
    rank = int((w > w[0] * n * np.finfo(np.float64).eps).sum())
    usable = min(k, rank)
    components, eigenvalues = np.zeros((k, x.shape[1])), np.zeros(k)
    components[:usable] = (u[:, :usable].T @ xc) / np.sqrt(w[:usable])[:, None]
    eigenvalues[:usable] = w[:usable] / (n - 1)
    components[sign_flips(components)] *= -1.0
    return components, eigenvalues, xc @ components.T, rank


def _ref_pls(x, y, k):
    """PLS2 in feature space: the weight is the dominant left singular vector
    of the deflated X^T Y, and X and Y are deflated by their regressions on
    t. (weights, x_loadings, y_loadings, scores, sigmas, degenerate), with
    sigma_a the top singular value of component a's X^T Y."""
    xd = _ref_standardize(x)[0]
    yd = y - y.mean(axis=0)
    n, p = xd.shape
    weights, x_load = np.zeros((k, p)), np.zeros((k, p))
    y_load, scores, sigmas = np.zeros((k, y.shape[1])), np.zeros((n, k)), np.zeros(k)
    for comp in range(k):
        cov = xd.T @ yd
        if np.linalg.norm(cov) < 1e-12:
            return weights, x_load, y_load, scores, sigmas, k - comp
        u, s, _ = np.linalg.svd(cov, full_matrices=False)
        w = u[:, 0]
        j = int(np.argmax(np.abs(w)))
        w = -w if w[j] < 0 else w
        t = xd @ w
        tt = float(t @ t)
        if tt < 1e-12:
            return weights, x_load, y_load, scores, sigmas, k - comp
        x_load[comp], y_load[comp] = (xd.T @ t) / tt, (yd.T @ t) / tt
        xd -= np.outer(t, x_load[comp])
        yd -= np.outer(t, y_load[comp])
        weights[comp], scores[:, comp], sigmas[comp] = w, t, s[0]
    return weights, x_load, y_load, scores, sigmas, 0


def _data(n, p, seed, n_constant=1, n_duplicate=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.1, 50.0, size=p)
    x += rng.normal(size=p) * 20.0
    x[:, rng.choice(p, size=min(n_constant, p), replace=False)] = 0.1
    for i in range(n_duplicate):
        x[n - 1 - i] = x[i]
    return x


def _spilled(x, batch):
    """The layer of `x` written in batches of `batch` rows to a spill file
    as `extract_activations` writes one, and read back as it is read."""
    n, p = x.shape
    spill = tempfile.TemporaryFile()
    for start in range(0, n, batch):
        spill_rows(spill, 0, n, start, x[start:start + batch])
    acts = ActivationSet([f"S{i}" for i in range(n)], {"L1": (p,)}, {"L1": 0}, spill)
    return acts, GramLayer(n, p, partial(acts.blocks, "L1"))


def _fit(x, method, labels):
    return embed_once({"L1": x}, method, seeds={"L1": 11},
                      labels=labels if method == "pls" else None,
                      **HYPER.get(method, {}))[0]


def _bits(emb):
    meta = {k: np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
            for k, v in emb.metadata.items()}
    return emb.values.tobytes(), meta


# a one-column remainder after whole blocks, widths around one block, one
# column, and n = 2
SHAPES = [(2, 2 * COLUMN_BLOCK + 1), (2, 3), (5, COLUMN_BLOCK + 1),
          (11, 2 * COLUMN_BLOCK + 1), (13, COLUMN_BLOCK - 1), (13, COLUMN_BLOCK),
          (13, COLUMN_BLOCK + 2), (7, 1), (5, 1)]


@pytest.mark.parametrize("p", [1, 2, COLUMN_BLOCK - 1, COLUMN_BLOCK,
                               COLUMN_BLOCK + 1, COLUMN_BLOCK + 2,
                               3 * COLUMN_BLOCK + 1])
def test_column_blocks_cover_the_layer_without_a_one_column_block(p):
    blocks = column_blocks(p)
    assert blocks[0][0] == 0 and blocks[-1][1] == p
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert all(1 <= stop - start <= COLUMN_BLOCK + 1 for start, stop in blocks)
    assert p == 1 or all(stop - start > 1 for start, stop in blocks)


@pytest.mark.parametrize("n,p", SHAPES)
def test_statistics_are_the_whole_array_bits(n, p):
    x = _data(n, p, seed=n * 7919 + p)
    layer = GramLayer.of(x)
    _, mean, scale, n_degenerate = _ref_standardize(x)
    assert layer.n_degenerate == n_degenerate >= 1
    assert layer.mean.tobytes() == mean.tobytes()
    assert layer.scale.tobytes() == scale.tobytes()


@pytest.mark.parametrize("n,p", SHAPES)
def test_grams_and_distances_agree_with_the_whole_array(n, p):
    x = _data(n, p, seed=n + p)
    layer = GramLayer.of(x)
    for got, want in zip((layer.gram_centred, layer.gram_standardized), _ref_grams(x)):
        assert (got == got.T).all()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    scale = np.diagonal(_ref_grams(x)[1]).max()
    np.testing.assert_allclose(layer.sq_dists(), _ref_sq_dists(x), rtol=0,
                               atol=1e-12 * scale)
    assert (np.diagonal(layer.sq_dists()) == 0.0).all()
    assert not layer.sq_dists().flags.writeable


@pytest.mark.parametrize("order", ["C", "F"])
def test_bits_in_either_memory_order(order):
    x = _data(9, 2 * COLUMN_BLOCK + 1, seed=3)
    want = GramLayer.of(x)
    got = GramLayer.of(np.asarray(x, order=order))
    for name in ("mean", "scale", "gram_centred", "gram_standardized"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_gram_sq_dists_of_points():
    x = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    np.testing.assert_array_equal(gram_sq_dists(x @ x.T),
                                  [[0, 25, 1], [25, 0, 20], [1, 20, 0]])


def test_block_of_the_wrong_shape_raises():
    with pytest.raises(ShapeError, match="block"):
        GramLayer(4, 3, lambda: iter([np.zeros((4, 2))]))
    with pytest.raises(ShapeError, match="2-D"):
        GramLayer.of(np.zeros(5))


def test_shared_layer_gives_each_method_the_bits_of_an_array():
    """One layer, shared by all four fits in either order, gives each fit
    the bits of that fit on the array."""
    x = _data(30, 2 * COLUMN_BLOCK + 1, seed=1)
    original = x.copy()
    labels = np.arange(30) % 2
    alone = {m: _bits(_fit(x, m, labels)) for m in METHODS}
    for order in (METHODS, METHODS[::-1]):
        layer = GramLayer.of(x)
        for method in order:
            assert _bits(_fit(layer, method, labels)) == alone[method], method
    assert x.tobytes() == original.tobytes()  # the blocks read are copies


@pytest.mark.parametrize("batch", [1, 4, 30])
def test_spill_file_and_array_give_the_same_bits(batch):
    x = _data(30, 2 * COLUMN_BLOCK + 1, seed=2, n_duplicate=2)
    labels = np.arange(30) % 3
    acts, layer = _spilled(x, batch)
    with acts:
        assert acts.matrix("L1").tobytes() == x.tobytes()
        for method in METHODS:
            assert _bits(_fit(layer, method, labels)) == _bits(_fit(x, method, labels))


def test_jitter_leaves_the_layer_and_its_distances_as_they_are():
    """Duplicate rows make t-SNE jitter the blocks it reads; the layer's
    statistics and distances stay as they were."""
    x = _data(12, 40, seed=3)
    x[5] = x[2]
    layer = GramLayer.of(x)
    d2 = layer.sq_dists()
    before = d2.tobytes(), layer.gram_standardized.tobytes()
    emb, = embed_once({"L3": layer}, "tsne", perplexity=3.0, iters=20)
    assert emb.metadata["notes"] == ["duplicate_points_jittered"]
    assert layer.sq_dists() is d2
    assert (d2.tobytes(), layer.gram_standardized.tobytes()) == before


def test_fits_allocate_no_n_by_p_array():
    """Building a layer from an array and running all four fits on it,
    traced from before the layer exists: the peak is a few blocks, the
    layer's mean and scale, PLS's k x p weights and loadings and n x n work
    arrays, under a third of the layer matrix."""
    n, p, k = 48, 32 * COLUMN_BLOCK + 1, 3
    x = _data(n, p, seed=2)
    labels = np.arange(n) % 3
    tracemalloc.start()
    try:
        layer = GramLayer.of(x)
        for method in METHODS:
            _fit(layer, method, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block, square = n * (COLUMN_BLOCK + 1) * 8, n * n * 8
    vectors, outputs = 2 * p * 8, 2 * k * p * 8
    assert peak < 3 * block + vectors + outputs + 32 * square < x.nbytes // 3


@st.composite
def layers(draw):
    """A float layer of 4..12 rows, narrower than one block or a whole
    number of blocks plus one column, with constant columns and duplicate
    rows."""
    n = draw(st.integers(4, 12))
    p = draw(st.one_of(st.integers(1, COLUMN_BLOCK - 1),
                       st.integers(1, 2).map(lambda k: k * COLUMN_BLOCK + 1)))
    return _data(n, p, seed=draw(st.integers(0, 2**32 - 1)),
                 n_constant=draw(st.integers(0, 3)),
                 n_duplicate=draw(st.integers(0, n // 2 - 1)))


def _aligned(got, want, axis):
    """`got` with each component (rows for axis=1, columns for axis=0)
    flipped to the sign of the same component of `want`."""
    dots = (got * want).sum(axis=axis, keepdims=True)
    return np.where(dots < 0, -got, got)


def _check_sign_rule(rows):
    assert not sign_flips(rows).any()


@settings(max_examples=40, deadline=None)
@given(layers())
def test_block_statistics_and_grams_match_the_whole_array(x):
    layer = GramLayer.of(x)
    _, mean, scale, n_degenerate = _ref_standardize(x)
    assert layer.mean.tobytes() == mean.tobytes()
    assert layer.scale.tobytes() == scale.tobytes()
    assert layer.n_degenerate == n_degenerate
    g_c, g_s = _ref_grams(x)
    for got, want in ((layer.gram_centred, g_c), (layer.gram_standardized, g_s)):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(np.abs(want).max(), 1e-300))
    np.testing.assert_allclose(layer.sq_dists(), _ref_sq_dists(x), rtol=0,
                               atol=1e-12 * max(np.diagonal(g_s).max(), 1e-300))


@settings(max_examples=40, deadline=None)
@given(layers(), st.integers(1, 12))
def test_spill_input_gives_the_bits_of_array_input(x, batch):
    n = x.shape[0]
    labels = np.arange(n) % 2
    acts, spilled = _spilled(x, batch)
    with acts:
        direct = GramLayer.of(x)
        for name in ("mean", "scale", "gram_centred", "gram_standardized"):
            assert getattr(spilled, name).tobytes() == getattr(direct, name).tobytes()
        for method in ("pca", "pls"):
            assert _bits(_fit(spilled, method, labels)) == _bits(_fit(direct, method, labels))


@settings(max_examples=40, deadline=None)
@given(layers())
def test_tsne_affinities_match_the_whole_array(x):
    """On the rows whose bandwidth search converged on both sides: where
    the distances are thousands, the search passes through underflowing
    rows, and a row that ends unconverged can end anywhere."""
    if (_ref_sq_dists(x)[~np.eye(len(x), dtype=bool)] == 0.0).any():
        return  # duplicate rows: t-SNE jitters them first
    perplexity = (len(x) - 1) / 3.0
    got = conditional_probabilities(GramLayer.of(x).sq_dists(), perplexity)
    want = conditional_probabilities(_ref_sq_dists(x), perplexity)

    def converged(p_cond):
        logs = np.log(np.where(p_cond > 0, p_cond, 1.0))
        return np.abs(-(p_cond * logs).sum(axis=1) - np.log(perplexity)) < 1e-4

    rows = converged(got) & converged(want)
    np.testing.assert_allclose(got[rows], want[rows], rtol=0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(layers())
def test_pca_matches_the_whole_array(x):
    k = 3
    model, emb = pca_fit_transform(x, k=k)
    components, eigenvalues, scores, rank = _ref_pca(x, k)
    top = max(eigenvalues[0], 1e-300)
    np.testing.assert_allclose(model.eigenvalues, eigenvalues, rtol=0, atol=1e-10 * top)
    _check_sign_rule(model.components)
    # compare the axes that are resolved: inside both ranks and apart from
    # their neighbours' eigenvalues
    ev = np.concatenate([[np.inf], eigenvalues, [0.0]])
    for i in range(min(model.rank, rank, k)):
        gap = min(ev[i] - ev[i + 1], ev[i + 1] - ev[i + 2]) / top
        if gap < 1e-6:
            continue
        tol = 1e-12 / gap
        np.testing.assert_allclose(
            _aligned(model.components[i:i + 1], components[i:i + 1], axis=1),
            components[i:i + 1], rtol=0, atol=tol)
        np.testing.assert_allclose(
            _aligned(emb.values[:, i:i + 1], scores[:, i:i + 1], axis=0),
            scores[:, i:i + 1], rtol=0, atol=tol * np.sqrt(top * (len(x) - 1)))


@settings(max_examples=40, deadline=None)
@given(layers())
def test_pls_matches_the_whole_array(x):
    """Component a agrees to 1e-9 of its scale, plus the error the Gram
    adds where the cross-covariance is small: about eps * trace(K) *
    ||Y||^2 / sigma_a^2, against eps * ||X|| * ||Y|| / sigma_a in
    feature space."""
    n, k = x.shape[0], 3
    y = one_hot(np.arange(n) % 2)
    model, emb = pls_fit_transform(x, y, k=k)
    weights, x_load, y_load, scores, sigmas, degenerate = _ref_pls(x, y, k)
    assert model.degenerate_components == degenerate
    _check_sign_rule(model.x_weights)
    trace, yy = np.trace(_ref_grams(x)[1]), ((y - y.mean(axis=0)) ** 2).sum()
    for a in range(k - degenerate):
        tol = 1e-9 + 16 * np.finfo(float).eps * trace * yy / sigmas[a] ** 2
        for got, want in ((model.x_weights[a], weights[a]),
                          (model.x_loadings[a], x_load[a]),
                          (model.y_loadings[a], y_load[a]),
                          (emb.values[:, a], scores[:, a])):
            got = -got if got @ want < 0 else got
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=tol * np.abs(want).max())
