"""UMAP tests: fuzzy graph properties, kernel fit quality, benchmark recovery,
and pinned bits of the optimiser."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope.embedding.common import pairwise_sq_dists, standardize
from latentscope.embedding.umap import (
    _SMOOTH_ITERS,
    _add_rows,
    _flat_rows,
    _repel,
    cross_entropy,
    fit_ab,
    fuzzy_graph,
    is_connected,
    low_dim_curve,
    smooth_knn_calibration,
    umap_embed,
)
from latentscope.errors import DegenerateInputError, NumericError

from conftest import cluster_margin, two_clusters


class TestFuzzyGraph:
    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(0)
        graph, _ = fuzzy_graph(pairwise_sq_dists(rng.normal(size=(30, 4))),
                               n_neighbors=5)
        w = graph[graph > 0]
        assert np.all(w <= 1.0 + 1e-12)
        assert np.all(w > 0.0)
        np.testing.assert_array_equal(np.diag(graph), np.zeros(30))

    def test_exact_symmetry(self):
        # fuzzy union w1 + w2 - w1*w2 is symmetric in floating point too
        rng = np.random.default_rng(1)
        graph, _ = fuzzy_graph(pairwise_sq_dists(rng.normal(size=(40, 6))),
                               n_neighbors=8)
        np.testing.assert_array_equal(graph, graph.T)

    def test_nearest_neighbor_weight_is_one(self):
        # the distance shift by rho makes each point's nearest neighbor weight
        # exp(0) = 1 in the directed graph, so the union keeps it at 1
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 3))
        graph, _ = fuzzy_graph(pairwise_sq_dists(x), n_neighbors=5)
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        for i in range(25):
            assert graph[i, np.argmin(d2[i])] == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_graph_warns(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 3)) * 0.01
        b = rng.normal(size=(10, 3)) * 0.01 + 1000.0
        with pytest.warns(UserWarning, match="disconnected"):
            graph, notes = fuzzy_graph(pairwise_sq_dists(np.vstack([a, b])),
                                         n_neighbors=3)
        assert "disconnected_graph" in notes
        assert np.all(graph[:10, 10:] == 0.0)

    def test_is_connected_agrees_with_csgraph(self):
        """Random symmetric graphs, connected and disconnected, some with an
        edge weight that underflows to 0 or sits at csgraph's 1e-8 floor:
        the sweep from point 0 reaches every point exactly when csgraph
        finds one component."""
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(5)
        edge_weights = [np.exp(-800.0), 5e-324, 1e-8, np.nextafter(1e-8, 1.0)]
        seen = set()
        for trial in range(400):
            n = int(rng.integers(2, 40))
            w = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.15)
            # a weak link between the first half and the rest
            w[rng.integers(0, n // 2 + 1), rng.integers(n // 2, n)] = (
                edge_weights[trial % len(edge_weights)])
            graph = np.triu(w, 1)
            graph = graph + graph.T
            want = connected_components(graph, directed=False,
                                        return_labels=False) == 1
            assert is_connected(graph) == want
            seen.add(want)
        assert seen == {True, False}

    def test_calibration_hits_log2_k(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 5))
        d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        order = np.argsort(d, axis=1, kind="stable")
        k = 10
        knn = np.take_along_axis(d, order[:, 1 : k + 1], axis=1)
        rho, sigma = smooth_knn_calibration(knn)
        np.testing.assert_array_equal(rho, knn[:, 0])
        for i in range(40):
            s = np.exp(-np.maximum(knn[i] - rho[i], 0.0) / sigma[i]).sum()
            assert s == pytest.approx(np.log2(k), abs=1e-4)


class TestKernelFit:
    def test_fit_quality(self):
        # the fitted rational kernel should track the plateau-exponential
        # target closely in mean absolute error
        for min_dist in (0.1, 0.25, 0.5):
            a, b = fit_ab(min_dist)
            xv = np.linspace(0.0, 3.0, 300)
            yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist)))
            err = float(np.mean(np.abs(low_dim_curve(xv, a, b) - yv)))
            assert err <= 0.03
        a, b = fit_ab(0.1)
        assert a > 0 and b > 0

    def test_fit_is_curve_fit_bitwise(self):
        """The MINPACK port returns the bits of scipy's `curve_fit` at the
        settings `fit_ab` used to pass it, on 501 min_dist values."""
        from scipy.optimize import curve_fit

        xv = np.linspace(0.0, 3.0, 300)
        for min_dist in np.linspace(0.0, 1.0, 501):
            yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist)))
            (a, b), _ = curve_fit(low_dim_curve, xv, yv, p0=(1.0, 1.0),
                                  maxfev=10000)
            assert fit_ab(float(min_dist)) == (float(a), float(b)), min_dist

    def test_fit_that_does_not_converge_raises(self, monkeypatch):
        import latentscope.embedding.umap as umap

        monkeypatch.setattr(umap, "lmdif", lambda *args, **kwargs: ((1.0, 1.0), 5))
        with pytest.raises(NumericError, match="did not converge"):
            fit_ab(0.1)

    def test_kernel_monotone_decreasing(self):
        a, b = fit_ab(0.1)
        d = np.linspace(0.01, 5.0, 200)
        vals = low_dim_curve(d, a, b)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] <= 1.0


class TestCrossEntropy:
    def test_zero_on_match(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.05, 0.95, size=(10, 10))
        assert cross_entropy(w, w) == pytest.approx(0.0, abs=1e-9)

    def test_positive_on_mismatch(self):
        w = np.array([0.9, 0.1])
        w_hat = np.array([0.1, 0.9])
        assert cross_entropy(w, w_hat) > 0.5

    def test_handles_hard_zeros_and_ones(self):
        w = np.array([0.0, 1.0, 0.5])
        w_hat = np.array([0.2, 0.8, 0.5])
        val = cross_entropy(w, w_hat)
        assert np.isfinite(val) and val > 0


class TestEmbedding:
    def test_n_leq_neighbors_raises(self):
        with pytest.raises(DegenerateInputError):
            umap_embed(np.zeros((10, 3)), n_neighbors=15)

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 4))
        a = umap_embed(x, n_neighbors=5, epochs=30, seed=4)
        b = umap_embed(x, n_neighbors=5, epochs=30, seed=4)
        c = umap_embed(x, n_neighbors=5, epochs=30, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_output_record(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 5))
        ids = [f"U{i}" for i in range(20)]
        emb = umap_embed(x, dims=2, n_neighbors=4, epochs=20, seed=0,
                         subject_ids=ids, layer="L2")
        assert emb.values.shape == (20, 2)
        assert emb.method == "umap"
        assert emb.layer == "L2"
        assert emb.subject_ids == ids
        assert emb.metadata["n_neighbors"] == 4
        assert np.isfinite(emb.values).all()

    def test_separates_planted_clusters(self):
        # the acceptance benchmark shape: 20 points, 10-sigma separation
        for seed in range(3):
            values = two_clusters(seed=seed)
            emb = umap_embed(values, dims=3, n_neighbors=15, epochs=300,
                             seed=seed)
            assert cluster_margin(emb.values) > 0.0

    def test_clusters_tighter_than_gap(self):
        # within-cluster spread should be small next to the between-cluster
        # distance, the qualitative property the method promises
        values = two_clusters(seed=2)
        emb = umap_embed(values, dims=3, n_neighbors=15, epochs=300, seed=2)
        va, vb = emb.values[:10], emb.values[10:]
        spread = max(va.std(axis=0).max(), vb.std(axis=0).max())
        gap = float(np.linalg.norm(va.mean(axis=0) - vb.mean(axis=0)))
        assert gap > 3.0 * spread


@st.composite
def row_updates(draw):
    """A small 2-D array, row indices with repeats, and one update row per
    index, with magnitudes far apart so that the order of additions shows."""
    n = draw(st.integers(1, 5))
    dims = draw(st.integers(1, 4))
    m = draw(st.integers(0, 24))
    values = st.floats(-1e17, 1e17, allow_nan=False, allow_infinity=False)
    y = np.array(draw(st.lists(values, min_size=n * dims, max_size=n * dims)))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                  max_size=m)), dtype=np.intp)
    upd = np.array(draw(st.lists(values, min_size=m * dims,
                                 max_size=m * dims)))
    return y.reshape(n, dims), rows, upd.reshape(m, dims)


class TestFlatAddAt:
    @settings(max_examples=300, deadline=None)
    @given(row_updates())
    def test_flat_add_at_equals_row_add_at_bitwise(self, case):
        # the optimiser holds y feature-major, as a C-contiguous (dims, n)
        y, rows, upd = case
        want = y.copy()
        np.add.at(want, rows, upd)
        got = np.ascontiguousarray(y.T)
        _add_rows(got, _flat_rows(rows, *y.shape), np.ascontiguousarray(upd.T))
        assert got.T.tobytes() == want.tobytes()


# (a, b) at the ends and inside of the min_dist range that config accepts
_KERNELS = [fit_ab(min_dist) for min_dist in (0.0, 0.1, 0.5, 1.0)]


@st.composite
def negative_rounds(draw):
    """A feature-major y that holds no -0.0, heads and negative targets
    with some targets equal to their heads, and the round's scalars."""
    n = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 3))
    m = draw(st.integers(0, 20))
    # + 0.0 turns a drawn -0.0 into +0.0 and leaves every other value
    values = st.floats(-20.0, 20.0).map(lambda v: v + 0.0)
    yt = np.array(draw(st.lists(values, min_size=n * dims, max_size=n * dims)))
    index = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    heads = np.array(draw(index), dtype=np.intp)
    targets = np.array(draw(index), dtype=np.intp)
    targets[::3] = heads[::3]
    a, b = draw(st.sampled_from(_KERNELS))
    alpha = draw(st.floats(0.002, 1.0))
    return yt.reshape(dims, n), heads, targets, a, b, alpha


class TestSelfDraws:
    @settings(max_examples=200, deadline=None)
    @given(negative_rounds())
    def test_round_with_self_draws_kept_equals_dropped_bitwise(self, case):
        # a self-draw has diff +0.0, so its step is +0.0, and adding +0.0
        # to a y that holds no -0.0 changes no bit
        yt, heads, targets, a, b, alpha = case
        dims, n = yt.shape
        kept = yt.copy()
        _repel(kept, heads, _flat_rows(heads, n, dims), targets, a, b, alpha)
        keep = np.flatnonzero(targets != heads)
        dropped = yt.copy()
        _repel(dropped, heads[keep], _flat_rows(heads[keep], n, dims),
               targets[keep], a, b, alpha)
        assert kept.tobytes() == dropped.tobytes()


def _rowwise_smooth_knn_calibration(knn_dists):
    """The per-row bisection that `smooth_knn_calibration` vectorises, and
    the number of tries each row took."""
    n, k = knn_dists.shape
    target = np.log2(k)
    rho = knn_dists[:, 0].copy()
    sigma = np.zeros(n)
    tries = np.zeros(n, dtype=int)
    for i in range(n):
        shifted = np.maximum(knn_dists[i] - rho[i], 0.0)
        lo, hi, mid = 0.0, np.inf, 1.0
        for _ in range(_SMOOTH_ITERS):
            s = np.exp(-shifted / mid).sum()
            if abs(s - target) < 1e-5:
                break
            tries[i] += 1
            if s > target:
                hi = mid
                mid = (lo + hi) / 2.0
            else:
                lo = mid
                mid = mid * 2.0 if hi == np.inf else (lo + hi) / 2.0
        mean_d = knn_dists[i].mean()
        sigma[i] = max(mid, 1e-3 * mean_d) if mean_d > 0 else max(mid, 1e-3)
    return rho, sigma, tries


def _knn_dists(x, k):
    d = np.sqrt(pairwise_sq_dists(x))
    order = np.argsort(d, axis=1, kind="stable")
    return np.take_along_axis(d, order[:, 1 : k + 1], axis=1)


class TestVectorisedCalibration:
    """`smooth_knn_calibration` bisects all rows at once and gives the
    bytes of the per-row loop."""

    def _same_bytes(self, knn):
        rho, sigma, tries = _rowwise_smooth_knn_calibration(knn)
        got_rho, got_sigma = smooth_knn_calibration(knn)
        assert got_rho.tobytes() == rho.tobytes()
        assert got_sigma.tobytes() == sigma.tobytes()
        return sigma, tries

    def test_cohort_sized_rows(self):
        x = standardize(np.random.default_rng(240).normal(size=(240, 16)))[0]
        _, tries = self._same_bytes(_knn_dists(x, 15))
        assert len(set(tries.tolist())) > 3

    def test_duplicates_and_rows_that_use_every_try(self):
        # a point with 5 exact duplicates has k zero distances (mean 0,
        # sigma floored at 1e-3); a point 1e-9 from tight pairs needs more
        # halvings than the cap allows
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 3))
        x = np.vstack([base, np.repeat(base[:1], 5, axis=0),
                       base[1:4] + 1e-9 * rng.normal(size=(3, 3))])
        knn = _knn_dists(x, 5)
        assert (knn.mean(axis=1) == 0.0).any()
        sigma, tries = self._same_bytes(knn)
        assert (tries == _SMOOTH_ITERS).any()
        assert (tries < _SMOOTH_ITERS).any()
        assert (sigma[knn.mean(axis=1) == 0.0] == 1e-3).all()


def _star(center: np.ndarray, rng, k: int = 12) -> np.ndarray:
    """A center point and k points at distance about 1 around it: the
    center is every other point's nearest neighbour."""
    spokes = rng.normal(size=(k, 3))
    spokes /= np.linalg.norm(spokes, axis=1, keepdims=True)
    return np.vstack([center,
                      center + spokes * (1.0 + 0.01 * rng.uniform(size=(k, 1)))])


class TestPinnedBits:
    """Digests of `values`, recorded before the optimiser loop was rewritten
    around a flat `np.add.at`. Any change to the float operations of the
    loop, their order, or the RNG calls moves them."""

    def test_disconnected_graph_with_hub(self):
        rng = np.random.default_rng(13)
        x = np.vstack([_star(np.zeros(3), rng), _star(np.full(3, 1000.0), rng)])
        with pytest.warns(UserWarning, match="disconnected"):
            graph, _ = fuzzy_graph(pairwise_sq_dists(standardize(x)[0]), 4)
        heads, _ = np.nonzero(graph)
        # point 0 heads 11 edges, all of weight 1: they are sampled in the
        # same epochs, so its row gets repeated updates in one add.at
        assert np.bincount(heads).max() == 11
        with pytest.warns(UserWarning, match="disconnected"):
            emb = umap_embed(x, n_neighbors=4, epochs=200, seed=8)
        assert emb.metadata["notes"] == ["disconnected_graph"]
        assert hashlib.sha256(emb.values.tobytes()).hexdigest() == (
            "397acfecc9eee4ba123b0d768261f0b81aecd211f5074afd7e73f334205dc3b8")

    def test_connected_graph_in_two_dims(self):
        x = np.random.default_rng(60).normal(size=(60, 6))
        emb = umap_embed(x, dims=2, n_neighbors=8, epochs=200, seed=9)
        assert emb.metadata["notes"] == []
        assert hashlib.sha256(emb.values.tobytes()).hexdigest() == (
            "05e68d50f3e1e7017183882bf45dacae86d13c4b5bf506024c06e4a26829dba1")
