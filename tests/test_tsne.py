"""t-SNE tests: affinity calibration oracles, KL behavior, benchmark recovery,
and pinned bits of the optimiser."""

import hashlib
import math

import numpy as np
import pytest

from latentscope.embedding.common import pairwise_sq_dists, standardize
from latentscope.embedding.tsne import (
    _BISECT_TRIES,
    _kl_on_support,
    conditional_probabilities,
    kl_divergence,
    perplexity_of,
    tsne_embed,
)
from latentscope.errors import ConfigError, DegenerateInputError

from conftest import cluster_margin, two_clusters


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
        p_cond = conditional_probabilities(
            pairwise_sq_dists(standardize(x)[0]), 8.0)
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
        xs_a, _, _, _ = standardize(values)
        xs_b, _, _, _ = standardize(scaled)
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
        pairwise_sq_dists(standardize(x)[0]), perplexity)
    return (p_cond + p_cond.T) / (2.0 * n)


class TestPinnedBits:
    """Digests of `values` and `kl_history`, recorded before the optimiser
    loop was rewritten to reuse its buffers. Any change to the float
    operations of the loop, or to their order, moves them."""

    def test_full_support(self):
        # n = 240 as in the cohort-analysis embeddings; every off-diagonal
        # affinity is positive, so the KL support is the whole off-diagonal
        x = np.random.default_rng(240).normal(size=(240, 16))
        off = ~np.eye(240, dtype=bool)
        assert (_symmetric_affinities(x, 30.0)[off] > 0).all()
        emb = tsne_embed(x, perplexity=30.0, iters=300, seed=3)
        assert _digest(emb.values) == (
            "3dfbe633d778e9806ff4555d74901cc317d845f4981a26025698b1bc2c82525c")
        assert _digest(emb.metadata["kl_history"]) == (
            "a58c8c7b50850d45122f1789a01529b35a4f0633148756421b366a18e6ccd70d")

    def test_underflowing_affinities(self):
        # two tight clusters far apart at a small perplexity: the affinities
        # across clusters underflow to 0 and drop out of the KL support
        a = np.random.default_rng(12).normal(size=(12, 4)) * 0.01
        x = np.vstack([a, a[::-1] * 0.5 + 100.0])
        off = ~np.eye(24, dtype=bool)
        assert (_symmetric_affinities(x, 3.0)[off] == 0.0).sum() > 100
        emb = tsne_embed(x, perplexity=3.0, iters=300, seed=5)
        assert _digest(emb.values) == (
            "b54a213c641a68954ad92955c45512aaec89a42054c4e333efc83f506768b48d")
        assert _digest(emb.metadata["kl_history"]) == (
            "92a473a50476eb1e7be1bfc0a3199c7e810be5475afd31d9737c9aed44c87622")

    def test_lowered_perplexity_in_two_dims(self):
        with pytest.warns(UserWarning, match="perplexity"):
            emb = tsne_embed(two_clusters(seed=4), dims=2, iters=300, seed=6)
        assert emb.metadata["notes"] == ["perplexity_lowered_from=30.0"]
        assert _digest(emb.values) == (
            "1c79b1abb618db003fd76c490948cd2e1a0a1534f9c88bb6c5186927000a0655")
        assert _digest(emb.metadata["kl_history"]) == (
            "6349e2cf154ae611864594490a213dd5824fe439d8b06ece008bf38d9ceb01cd")

    def test_duplicate_jitter(self):
        x = np.zeros((8, 3))
        x[4:] = 1.0
        emb = tsne_embed(x, perplexity=2.0, iters=300, seed=7)
        assert emb.metadata["notes"] == ["duplicate_points_jittered"]
        assert _digest(emb.values) == (
            "2171c89245c71bae91c27f29272478ea973cdb42fd3714708d2d2612abe484dc")
        assert _digest(emb.metadata["kl_history"]) == (
            "ff7d05a4a0a7746b02f87f6343698fa3723e73178f4f37bd890464f9fbe583cc")


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
        _, tries = self._same_bytes(pairwise_sq_dists(standardize(x)[0]), 30.0)
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
