"""Bound-corrected significance tests with frozen reference values."""

import math

import numpy as np
import pytest

from latentscope.data import RegionProfileMatrix
from latentscope.embedding.common import EmbeddingMatrix
from latentscope.errors import ConfigError, DegenerateInputError
from latentscope.regionstats import correlate_embedding_regions, critical_r
from latentscope.validation import (
    BoundConfig,
    concentration_bound,
    correct_table,
    cubv_corrected_error,
    pac_bayes_corrected_accuracy,
    pac_bayes_penalty,
    sar_margin,
    sar_relevance,
)


class TestConcentrationBound:
    def test_reference_values(self):
        # sqrt(ln(1/0.05) / (2 * 100)) = 0.122387...
        assert concentration_bound(100, 0.05) == pytest.approx(0.12239, abs=1e-5)
        assert concentration_bound(50, 0.05) == pytest.approx(0.173082, abs=1e-5)

    def test_closed_form(self):
        for n, delta, c in [(10, 0.1, 1.0), (400, 0.01, 2.0), (7, 0.5, 0.25)]:
            expected = math.sqrt(c * math.log(1 / delta) / (2 * n))
            assert concentration_bound(n, delta, c) == pytest.approx(
                expected, rel=1e-12)

    def test_delta_one_gives_zero(self):
        assert concentration_bound(100, 1.0) == 0.0

    def test_monotone_decreasing_in_n(self):
        vals = [concentration_bound(n, 0.05) for n in (10, 50, 100, 500, 5000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_increasing_in_confidence(self):
        vals = [concentration_bound(100, d) for d in (0.5, 0.1, 0.05, 0.01)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scales_with_complexity(self):
        base = concentration_bound(100, 0.05, 1.0)
        assert concentration_bound(100, 0.05, 4.0) == pytest.approx(
            2 * base, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            concentration_bound(0, 0.05)
        with pytest.raises(ConfigError):
            concentration_bound(100, 0.0)
        with pytest.raises(ConfigError):
            concentration_bound(100, 1.5)
        with pytest.raises(ConfigError):
            concentration_bound(100, 0.05, 0.0)


class TestCubv:
    def test_reference_case(self):
        res = cubv_corrected_error(0.3, n=200)
        assert res.psi == pytest.approx(0.08654, abs=1e-5)
        assert res.corrected == pytest.approx(0.38654, abs=1e-5)
        assert res.significant is True

    def test_correction_capped_at_one(self):
        res = cubv_corrected_error(0.95, n=5, delta=0.01)
        assert res.corrected == 1.0
        assert res.significant is False

    def test_flip_at_half(self):
        # exactly 0.5 after correction is not significant: strict inequality
        psi = concentration_bound(100, 0.05)
        res = cubv_corrected_error(0.5 - psi, n=100)
        assert res.corrected == pytest.approx(0.5, abs=1e-12)
        assert res.significant is False
        res2 = cubv_corrected_error(0.5 - psi - 1e-6, n=100)
        assert res2.significant is True

    def test_monotone_in_empirical(self):
        grid = np.linspace(0.0, 0.9, 10)
        corr = [cubv_corrected_error(e, n=50).corrected for e in grid]
        assert all(a <= b for a, b in zip(corr, corr[1:]))

    def test_range_checked(self):
        with pytest.raises(ConfigError):
            cubv_corrected_error(1.2, n=50)
        with pytest.raises(ConfigError):
            cubv_corrected_error(-0.1, n=50)


class TestPacBayes:
    def test_reference_case(self):
        res = pac_bayes_corrected_accuracy(0.9, parameter_count=2, eta=0.5,
                                           n=400, delta=0.05)
        assert res.penalty == pytest.approx(0.067905, abs=1e-5)
        assert res.corrected == pytest.approx(0.832095, abs=1e-5)
        assert res.significant is True

    def test_penalty_closed_form(self):
        for p, eta, n, delta in [(2, 0.5, 400, 0.05), (10, 0.0, 100, 0.01),
                                 (3, 0.9, 50, 0.1)]:
            expected = math.sqrt(((1 - eta) * p * math.log(2)
                                  + math.log(1 / delta)) / (2 * n))
            assert pac_bayes_penalty(p, eta, n, delta) == pytest.approx(
                expected, rel=1e-12)

    def test_eta_discounts_parameters(self):
        # higher dropout -> smaller effective parameter count -> smaller penalty
        vals = [pac_bayes_penalty(20, eta, 100) for eta in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_corrected_floor_zero(self):
        res = pac_bayes_corrected_accuracy(0.05, parameter_count=50, eta=0.0,
                                           n=10)
        assert res.corrected == 0.0
        assert res.significant is False

    def test_flip_above_half(self):
        pen = pac_bayes_penalty(2, 0.5, 400)
        res = pac_bayes_corrected_accuracy(0.5 + pen, 2, 0.5, 400)
        assert res.corrected == pytest.approx(0.5, abs=1e-12)
        assert res.significant is False
        res2 = pac_bayes_corrected_accuracy(0.5 + pen + 1e-6, 2, 0.5, 400)
        assert res2.significant is True

    def test_monotone_in_n(self):
        vals = [pac_bayes_penalty(5, 0.5, n) for n in (10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            pac_bayes_penalty(0, 0.5, 100)
        with pytest.raises(ConfigError):
            pac_bayes_penalty(5, 1.0, 100)
        with pytest.raises(ConfigError):
            pac_bayes_corrected_accuracy(1.2, 2, 0.5, 100)

    def test_bound_config_validation(self):
        BoundConfig().validate()
        with pytest.raises(ConfigError):
            BoundConfig(delta=0.0).validate()
        with pytest.raises(ConfigError):
            BoundConfig(eta=1.0).validate()


class TestSar:
    def test_perfect_linear_fit_relevant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        y = 2.0 * x + 1.0
        res = sar_relevance(x, y)
        assert res.relevant is True
        assert res.slope == pytest.approx(2.0, abs=1e-10)
        assert res.intercept == pytest.approx(1.0, abs=1e-10)
        assert res.model_mae == pytest.approx(0.0, abs=1e-10)

    def test_constant_x_flagged(self):
        rng = np.random.default_rng(1)
        res = sar_relevance(np.ones(50), rng.normal(size=50))
        assert res.relevant is False
        assert "degenerate_constant_x" in res.flags
        assert res.slope == 0.0

    def test_constant_x_with_inexact_mean_flagged(self):
        # the computed mean of twelve 0.1s is an ulp off 0.1
        res = sar_relevance(np.full(12, 0.1), np.arange(12.0))
        assert res.flags == ["degenerate_constant_x"]
        assert res.relevant is False and res.slope == 0.0

    def test_null_rejection_rate(self):
        # independent pairs at n = 300: SAR should essentially never declare
        # relevance (it demands a 2-psi MAE gap, far beyond chance wiggle)
        rng = np.random.default_rng(2)
        hits = 0
        trials = 200
        for _ in range(trials):
            x = rng.normal(size=300)
            y = rng.normal(size=300)
            if sar_relevance(x, y).relevant:
                hits += 1
        assert hits <= trials * 0.01

    def test_power_on_strong_signal(self):
        # slope 1 with noise sigma 0.5 at n = 300 gives a large MAE gap;
        # SAR should catch nearly every replicate
        rng = np.random.default_rng(3)
        hits = 0
        trials = 200
        for _ in range(trials):
            x = rng.normal(size=300)
            y = x + 0.5 * rng.normal(size=300)
            if sar_relevance(x, y).relevant:
                hits += 1
        assert hits >= trials * 0.95

    def test_absolute_scale_conservatism(self):
        # the bound is additive on the MAE scale, so a perfect fit whose
        # response spread is small next to psi still fails the gap test;
        # relevance requires effect size on the bound's own scale
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        y = 0.5 + 0.01 * x
        res = sar_relevance(x, y)
        assert res.model_mae == pytest.approx(0.0, abs=1e-12)
        assert res.relevant is False

    def test_significant_but_weak_not_relevant(self):
        # a correlation just past the p < 0.05 threshold at n = 300 explains
        # about one percent of variance; the bound comparison rejects it
        rng = np.random.default_rng(4)
        rc = critical_r(300)  # about 0.113
        target_r = rc * 1.1
        rejected = 0
        trials = 100
        for _ in range(trials):
            x = rng.normal(size=300)
            noise = rng.normal(size=300)
            beta = target_r / math.sqrt(1 - target_r ** 2)
            y = beta * x + noise
            res = sar_relevance(x, y)
            if not res.relevant:
                rejected += 1
        assert rejected >= trials * 0.95

    def test_small_n_raises(self):
        with pytest.raises(DegenerateInputError):
            sar_relevance(np.arange(9.0), np.arange(9.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigError):
            sar_relevance(np.arange(10.0), np.arange(11.0))


def build_table():
    # synthetic correlation table with one strong pair (large response
    # spread, near-perfect fit), one barely p-significant pair, and noise;
    # spreads are sized so the strong pair clears the 2-psi SAR gap
    rng = np.random.default_rng(5)
    n = 300
    ids = [f"S{i:03d}" for i in range(n)]
    strong = rng.normal(size=n)
    weak_raw = rng.normal(size=n)
    emb = EmbeddingMatrix(method="pca", layer="L3",
                          values=np.column_stack([strong, weak_raw]),
                          subject_ids=ids)
    rc = critical_r(n)
    beta = 1.25 * rc / math.sqrt(1 - (1.25 * rc) ** 2)
    prof = np.column_stack([
        0.5 * strong + 0.01 * rng.normal(size=n),      # strong signal
        beta * weak_raw + rng.normal(size=n),          # barely significant
        rng.normal(size=n),                            # pure noise
    ])
    profiles = RegionProfileMatrix(values=prof, subject_ids=ids)
    return correlate_embedding_regions(emb, profiles)


class TestCorrectTable:
    def test_pvalue_mode_keeps_significant(self):
        table = build_table()
        kept = correct_table(table, "pvalue")
        regions = set(zip(kept["component"].tolist(), kept["region"].tolist()))
        assert (0, 1) in regions  # strong pair survives
        assert all(kept["p_value"] < 0.05)

    def test_sar_mode_is_stricter(self):
        table = build_table()
        by_p = correct_table(table, "pvalue")
        by_sar = correct_table(table, "sar")
        keys_p = set(zip(by_p["component"].tolist(), by_p["region"].tolist()))
        keys_s = set(zip(by_sar["component"].tolist(), by_sar["region"].tolist()))
        assert keys_s <= keys_p
        assert (0, 1) in keys_s  # the strong pair survives both
        assert (1, 2) in keys_p and (1, 2) not in keys_s  # weak one drops

    def test_unknown_mode_raises(self):
        table = build_table()
        with pytest.raises(ConfigError):
            correct_table(table, "fdr")

    def test_empty_table_passes_through(self):
        from latentscope.regionstats import ROW_DTYPE, CorrelationTable

        empty = CorrelationTable("pca", "L3", np.zeros((1, 0, 0), dtype=ROW_DTYPE))
        assert correct_table(empty, "pvalue").size == 0


class TestSarMargin:
    """The margin written beside corrected_sar.csv: how far each table is
    from SAR relevance."""

    def test_margin_explains_the_kept_rows(self):
        table = build_table()
        margin = sar_margin(table, delta=0.05)
        rows = table.rows
        assert margin["pairs"] == int((rows["flag"] == "").sum()) == 6
        assert margin["delta"] == 0.05
        assert margin["pair_delta"] == 0.05 / 6
        assert margin["n"] == [300]
        assert margin["two_psi"] == [2.0 * concentration_bound(300, 0.05 / 6)]
        gaps = rows["baseline_mae"] - rows["model_mae"]
        assert margin["max_gap"] == float(gaps.max()) > margin["two_psi"][0]
        assert margin["kept"] == len(correct_table(table, "sar")) == int(
            (gaps > margin["two_psi"][0]).sum())

    def test_nothing_kept_when_the_largest_gap_is_inside_the_margin(self):
        table = build_table()
        table.rows["model_mae"] = table.rows["baseline_mae"] - 0.01
        margin = sar_margin(table)
        assert margin["max_gap"] < margin["two_psi"][0]
        assert margin["kept"] == 0

    def test_one_margin_per_class_size(self):
        table = build_table()
        table.rows["n"][0, 0] = 40  # one row of a smaller class
        table.rows["n"][0, 1, 2] = 5  # one below SAR_MIN_N: never tested
        margin = sar_margin(table)
        assert margin["n"] == [40, 300]
        assert margin["two_psi"] == [2.0 * concentration_bound(m, 0.05 / 6)
                                     for m in (40, 300)]

    def test_no_testable_row_has_no_gap(self):
        table = build_table()
        table.rows["flag"] = "undefined"
        margin = sar_margin(table)
        assert margin["pairs"] == 0 and margin["n"] == [] and margin["kept"] == 0
        assert math.isnan(margin["max_gap"])
