"""t-SNE tests: affinity calibration oracles, KL behavior, benchmark recovery,
and pinned bits of the optimiser."""

import hashlib
import math

import numpy as np
import pytest

from latentscope.embedding import tsne
from latentscope.embedding.common import GramLayer, pairwise_sq_dists
from latentscope.embedding.tsne import (
    _BISECT_TRIES,
    _kl_on_support,
    conditional_probabilities,
    kl_divergence,
    perplexity_of,
    tsne_embed,
    tsne_embed_many,
)
from latentscope.errors import ConfigError, DegenerateInputError, ShapeError

from conftest import _ref_standardize, cluster_margin, two_clusters


class TestAffinities:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        d2 = pairwise_sq_dists(rng.normal(size=(25, 4)))
        p = conditional_probabilities(d2, perplexity=8.0)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(25), atol=1e-12)
        np.testing.assert_array_equal(np.diag(p), np.zeros(25))

    def test_per_row_perplexity_hits_target(self):
        rng = np.random.default_rng(1)
        d2 = pairwise_sq_dists(rng.normal(size=(30, 5)))
        for target in (5.0, 12.0, 20.0):
            p = conditional_probabilities(d2, perplexity=target)
            for i in range(30):
                assert perplexity_of(p[i]) == pytest.approx(target, abs=1e-3)

    def test_symmetrized_matrix_sums_to_one(self):
        rng = np.random.default_rng(2)
        d2 = pairwise_sq_dists(rng.normal(size=(20, 3)))
        p_cond = conditional_probabilities(d2, perplexity=6.0)
        p = (p_cond + p_cond.T) / (2 * 20)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p, p.T, atol=1e-15)

    def test_uniform_distribution_perplexity(self):
        m = 17
        row = np.full(m, 1.0 / m)
        assert perplexity_of(row) == pytest.approx(m, rel=1e-12)

    def test_perplexity_of_point_mass(self):
        row = np.zeros(10)
        row[3] = 1.0
        assert perplexity_of(row) == pytest.approx(1.0, rel=1e-12)

    def test_nearest_neighbor_gets_most_mass(self):
        # low perplexity concentrates each row on its nearest neighbors
        x = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1]])
        d2 = pairwise_sq_dists(x)
        p = conditional_probabilities(d2, perplexity=1.5)
        for i in range(6):
            partner = i + 1 if i % 2 == 0 else i - 1
            assert np.argmax(p[i]) == partner


class TestKl:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=(10, 10))
        np.fill_diagonal(p, 0.0)
        p /= p.sum()
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(size=50)
        p /= p.sum()
        q = rng.uniform(size=50)
        q /= q.sum()
        assert kl_divergence(p, q) >= 0.0

    def test_tail_non_increasing_on_benchmark(self):
        # after early exaggeration ends the optimizer should settle; each of
        # the last 100 recorded steps may rise by at most 1e-6
        values = two_clusters(seed=0)
        emb = tsne_embed(values, dims=3, perplexity=5.0, lr=100.0,
                         iters=1000, seed=0)
        kl = emb.metadata["kl_history"]
        tail = kl[-100:]
        worst = float(np.max(np.diff(tail)))
        assert worst <= 1e-6
        assert np.isfinite(kl).all()


    def test_support_form_equals_reference_bitwise(self):
        # the optimiser gathers p's support once and q on it every iteration
        rng = np.random.default_rng(9)
        for n, zero_share in ((6, 0.0), (30, 0.3), (50, 0.9)):
            p = rng.uniform(size=(n, n)) ** 8
            p[rng.uniform(size=(n, n)) < zero_share] = 0.0
            np.fill_diagonal(p, 0.0)
            p /= p.sum()
            q = np.maximum(rng.uniform(size=(n, n)) / n**2, 1e-12)
            support = np.flatnonzero(p > 0)
            got = _kl_on_support(p.reshape(-1)[support], q, support,
                                 np.empty(support.size))
            assert got.hex() == kl_divergence(p, q).hex()

    def test_loop_kl_equals_reference_at_first_iteration(self):
        # iteration 0 sees y as drawn from the seed, so q can be rebuilt
        # outside the optimiser and scored with the public kl_divergence
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 5))
        emb = tsne_embed(x, dims=3, perplexity=8.0, iters=1, seed=4)
        p_cond = conditional_probabilities(GramLayer.of(x).sq_dists(), 8.0)
        p = (p_cond + p_cond.T) / (2.0 * 40)
        y = np.random.default_rng(4).normal(0.0, 1e-4, size=(40, 3))
        num = 1.0 / (1.0 + pairwise_sq_dists(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        assert emb.metadata["kl_history"][0].hex() == kl_divergence(p, q).hex()


class TestEmbedding:
    def test_too_few_rows_raises(self):
        with pytest.raises(DegenerateInputError):
            tsne_embed(np.zeros((3, 4)))

    def test_perplexity_lowered_with_warning(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4))
        with pytest.warns(UserWarning, match="perplexity"):
            emb = tsne_embed(x, perplexity=30.0, iters=5, seed=0)
        assert emb.metadata["perplexity"] == pytest.approx((20 - 1) // 3)
        assert any("perplexity_lowered" in s for s in emb.metadata["notes"])

    def test_duplicate_points_jittered(self):
        x = np.zeros((8, 3))
        x[4:] = 1.0  # two stacks of identical points
        emb = tsne_embed(x, perplexity=2.0, iters=5, seed=0)
        assert "duplicate_points_jittered" in emb.metadata["notes"]
        assert np.isfinite(emb.values).all()

    def test_seed_determinism(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 4))
        a = tsne_embed(x, perplexity=4.0, iters=50, seed=9)
        b = tsne_embed(x, perplexity=4.0, iters=50, seed=9)
        c = tsne_embed(x, perplexity=4.0, iters=50, seed=10)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_output_shape_and_metadata(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 6))
        emb = tsne_embed(x, dims=2, perplexity=3.0, iters=20, seed=1,
                         subject_ids=[f"Q{i}" for i in range(12)], layer="L1")
        assert emb.values.shape == (12, 2)
        assert emb.method == "tsne"
        assert emb.layer == "L1"
        assert emb.subject_ids == [f"Q{i}" for i in range(12)]
        assert len(emb.metadata["kl_history"]) == 20

    def test_embedding_is_centered(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 5))
        emb = tsne_embed(x, perplexity=3.0, iters=30, seed=2)
        np.testing.assert_allclose(emb.values.mean(axis=0), 0.0, atol=1e-9)


class TestBenchmark:
    def test_separates_planted_clusters_at_defaults(self):
        # 20 points, two 10-sigma-apart gaussian clusters; library defaults
        # (perplexity auto-lowered, lr 200, 1000 iterations) must separate
        # them for every seed tried
        for seed in range(3):
            values = two_clusters(seed=seed)
            with pytest.warns(UserWarning, match="perplexity"):
                emb = tsne_embed(values, dims=3, seed=seed)
            assert cluster_margin(emb.values) > 0.0

    def test_standardization_is_applied(self):
        # scaling one feature by 1000 must not change the result: distances
        # are computed on z-scored features
        values = two_clusters(seed=1)
        scaled = values.copy()
        scaled[:, 0] *= 1000.0
        xs_a, _, _, _ = _ref_standardize(values)
        xs_b, _, _, _ = _ref_standardize(scaled)
        np.testing.assert_allclose(xs_a, xs_b, atol=1e-12)
        # rounding noise in the rescaled z-scores amplifies through the
        # optimizer, so the invariant is checked on the affinities
        p_a = conditional_probabilities(pairwise_sq_dists(xs_a), 5.0)
        p_b = conditional_probabilities(pairwise_sq_dists(xs_b), 5.0)
        np.testing.assert_allclose(p_a, p_b, atol=1e-9)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _symmetric_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    n = x.shape[0]
    p_cond = conditional_probabilities(
        pairwise_sq_dists(_ref_standardize(x)[0]), perplexity)
    return (p_cond + p_cond.T) / (2.0 * n)


class TestPinnedBits:
    """Digests of `values` and `kl_history`, recorded when the input
    distances came to be taken from the block-summed Gram matrix of the
    standardized rows. Any change to the float operations of the
    distances or the loop, or to their order, moves them."""

    def test_full_support(self):
        # n = 240 as in the cohort-analysis embeddings; every off-diagonal
        # affinity is positive, so the KL support is the whole off-diagonal
        x = np.random.default_rng(240).normal(size=(240, 16))
        off = ~np.eye(240, dtype=bool)
        assert (_symmetric_affinities(x, 30.0)[off] > 0).all()
        emb = tsne_embed(x, perplexity=30.0, iters=300, seed=3)
        assert _digest(emb.values) == (
            "3ae8e7932b5f5f597631c5ed4f2dc9cbba8b9754eabc1fb4c02f305af97758e3")
        assert _digest(emb.metadata["kl_history"]) == (
            "4c7d6cd44bb6f8ca3f5afb4be47e3907360c793517c3b6be10662621b20710e3")

    def test_underflowing_affinities(self):
        # two tight clusters far apart at a small perplexity: the affinities
        # across clusters underflow to 0 and drop out of the KL support
        a = np.random.default_rng(12).normal(size=(12, 4)) * 0.01
        x = np.vstack([a, a[::-1] * 0.5 + 100.0])
        off = ~np.eye(24, dtype=bool)
        assert (_symmetric_affinities(x, 3.0)[off] == 0.0).sum() > 100
        emb = tsne_embed(x, perplexity=3.0, iters=300, seed=5)
        assert _digest(emb.values) == (
            "12c77d7cdea938424bac814cbfb3a1b00b95f8fefa994e821682b68570db32ef")
        assert _digest(emb.metadata["kl_history"]) == (
            "7e3ad3ee0bc9049d8698de144a1d1b3236b2783388dcefc81eb88c1036ef64e8")

    def test_lowered_perplexity_in_two_dims(self):
        with pytest.warns(UserWarning, match="perplexity"):
            emb = tsne_embed(two_clusters(seed=4), dims=2, iters=300, seed=6)
        assert emb.metadata["notes"] == ["perplexity_lowered_from=30.0"]
        assert _digest(emb.values) == (
            "13a36a45506c538e1f79f6988ea26940d1b828e11540df7ca48360bac59f4f18")
        assert _digest(emb.metadata["kl_history"]) == (
            "58fdcff4fa9199adde71c47264b274cd16127f3ddb2db22b569c0607267331d2")

    def test_duplicate_jitter(self):
        x = np.zeros((8, 3))
        x[4:] = 1.0
        emb = tsne_embed(x, perplexity=2.0, iters=300, seed=7)
        assert emb.metadata["notes"] == ["duplicate_points_jittered"]
        assert _digest(emb.values) == (
            "3783f3cdf7a01a02d10a1544bf2b5a692cc8b48bdad709a34bbb91ae2a2deb93")
        assert _digest(emb.metadata["kl_history"]) == (
            "fe53f0d44f43c3ac89fc549b0756f6681a4f3beef69754333de891c23021183a")


@pytest.fixture(scope="module")
def full_support_fit():
    """The input and the every-iteration fit of TestPinnedBits.test_full_support."""
    x = np.random.default_rng(240).normal(size=(240, 16))
    return x, tsne_embed(x, perplexity=30.0, iters=300, seed=3)


class TestKlCheckpoints:
    @pytest.mark.parametrize("k", [1, 7, 50, 301])
    def test_values_kept_and_history_thinned(self, full_support_fit, k):
        x, every = full_support_fit
        emb = tsne_embed(x, perplexity=30.0, iters=300, seed=3, kl_every=k)
        assert emb.values.tobytes() == every.values.tobytes()
        assert emb.metadata["kl_every"] == k
        kl = emb.metadata["kl_history"]
        assert len(kl) == math.ceil(300 / k)
        picked = sorted(set(range(k - 1, 300, k)) | {299})
        assert [v.hex() for v in kl] == [
            every.metadata["kl_history"][i].hex() for i in picked]

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigError, match="kl_every"):
            tsne_embed(two_clusters(seed=1), perplexity=3.0, iters=10, kl_every=0)


def _row_entropy_and_probs(d2_row, beta):
    """One row at a time, as `entropy_and_probs` did before it took rows."""
    p = np.exp(-d2_row * beta)
    total = p.sum()
    if total <= 0.0 or not np.isfinite(total):
        return 0.0, np.zeros_like(p)
    h = np.log(total) + beta * float(d2_row @ p) / total
    return float(h), p / total


def _rowwise_conditional_probabilities(d2, perplexity):
    """The per-row bisection that `conditional_probabilities` vectorises,
    and the number of tries each row took."""
    n = d2.shape[0]
    target = np.log(perplexity)
    p_cond = np.zeros((n, n))
    tries = np.zeros(n, dtype=int)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d2[i, others[i]]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, p = _row_entropy_and_probs(row, beta)
        for _ in range(_BISECT_TRIES):
            if abs(h - target) < 1e-5:
                break
            tries[i] += 1
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
            h, p = _row_entropy_and_probs(row, beta)
        p_cond[i, others[i]] = p
    return p_cond, tries


class TestVectorisedBisection:
    """`conditional_probabilities` bisects all rows at once and gives the
    bytes of the per-row loop."""

    def _same_bytes(self, d2, perplexity):
        want, tries = _rowwise_conditional_probabilities(d2, perplexity)
        assert conditional_probabilities(d2, perplexity).tobytes() == want.tobytes()
        return want, tries

    def test_cohort_sized_rows(self):
        # n = 240 as in cohort-analysis: rows converge after different tries
        x = np.random.default_rng(240).normal(size=(240, 16))
        _, tries = self._same_bytes(pairwise_sq_dists(_ref_standardize(x)[0]), 30.0)
        assert len(set(tries.tolist())) > 3

    def test_rows_that_use_every_try(self):
        # a cluster 1e-12 wide needs a bandwidth beyond 50 doublings, so its
        # rows stop at the cap while the others converge
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(20, 3)),
                       rng.normal(size=(5, 3)) * 1e-12 + 5.0])
        _, tries = self._same_bytes(pairwise_sq_dists(x), 3.0)
        assert (tries == _BISECT_TRIES).any()
        assert (tries < _BISECT_TRIES).any()

    def test_rows_whose_total_underflows(self):
        # interior points on a unit grid have two nearest neighbours, so at
        # perplexity 1 beta doubles until every exp underflows to 0
        x = np.arange(8.0)[:, None]
        want, _ = self._same_bytes(pairwise_sq_dists(x), 1.0)
        np.testing.assert_array_equal(want.sum(axis=1) == 0.0,
                                      [False] + [True] * 6 + [False])


def _fit_bits(emb):
    """The bytes of a fit's values and of every metadata entry."""
    meta = {k: np.asarray(v).tobytes() if isinstance(v, np.ndarray) else v
            for k, v in emb.metadata.items()}
    return emb.layer, emb.values.tobytes(), meta


def _lockstep_layers():
    """Three layers of 24 rows and different widths; the second has a
    duplicate row. At n = 24 the default perplexity is lowered."""
    rng = np.random.default_rng(31)
    dup = rng.normal(size=(24, 6))
    dup[9] = dup[4]
    return ({"L3": rng.normal(size=(24, 5)), "L2": dup,
             "L1": rng.normal(size=(24, 1100))},
            {"L3": 1, "L2": 2, "L1": 3})


@pytest.fixture
def group_sizes(monkeypatch):
    """The number of fits of each lockstep group `tsne_embed_many` runs."""
    sizes = []
    optimise = tsne._optimise

    def spying(p, *args):
        sizes.append(p.shape[0])
        return optimise(p, *args)

    monkeypatch.setattr(tsne, "_optimise", spying)
    return sizes


class TestLockstep:
    """`tsne_embed_many` fits its layers in lockstep groups and gives each
    the bits of `tsne_embed` on that layer alone."""

    def _both(self, **hyper):
        layers, seeds = _lockstep_layers()
        with pytest.warns(UserWarning, match="perplexity"):
            group = [_fit_bits(emb) for emb in tsne_embed_many(layers, seeds, **hyper)]
            alone = [_fit_bits(tsne_embed(x, seed=seeds[name], layer=name, **hyper))
                     for name, x in layers.items()]
        return group, alone

    def test_group_equals_fits_one_at_a_time(self, group_sizes):
        group, alone = self._both(iters=120, kl_every=7)
        assert group_sizes[0] == 3
        assert group == alone
        assert group[1][2]["notes"] == ["perplexity_lowered_from=30.0",
                                        "duplicate_points_jittered"]
        assert group[0][2]["notes"] == ["perplexity_lowered_from=30.0"]

    def test_byte_budget_splits_the_group(self, monkeypatch, group_sizes):
        monkeypatch.setattr(tsne, "_GROUP_BYTES", 2 * 24 * 24 * 8 + 8)
        group, alone = self._both(dims=2, iters=60)
        assert group_sizes[:2] == [2, 1]
        assert group == alone

    def test_budget_runs_cohort_sized_fits_alone(self, group_sizes):
        x = np.random.default_rng(9).normal(size=(240, 4))
        tsne_embed_many({"L3": x, "L2": x * 2.0}, iters=2)
        assert group_sizes == [1, 1]
        with pytest.warns(UserWarning, match="perplexity"):
            tsne_embed_many({"L3": x[:80], "L2": x[:80] * 2.0, "L1": x[:80] + 1.0},
                            iters=2)
        assert group_sizes == [1, 1, 3]

    def test_layers_need_one_row_count(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ShapeError, match="row count"):
            tsne_embed_many({"L3": rng.normal(size=(12, 3)),
                             "L2": rng.normal(size=(13, 3))}, perplexity=3.0)
