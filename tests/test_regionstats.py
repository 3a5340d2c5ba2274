"""Correlation statistics tests with independent numerical oracles."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from latentscope.data import RegionProfileMatrix
from latentscope.embedding.common import EmbeddingMatrix
from latentscope.errors import ConfigError, DegenerateInputError, ShapeError
from latentscope.regionstats import (
    ROW_DTYPE,
    CorrelationTable,
    _block,
    correlate_embedding_regions,
    critical_r,
    overlap_report,
    pearson,
    pearson_pvalue,
    top_regions,
)
from latentscope.validation import correct_table


def t_tail_by_quadrature(t_obs: float, nu: int) -> float:
    """Two-tailed Student-t tail mass by direct numerical integration."""
    c = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))

    def density(u):
        return c * (1 + u * u / nu) ** (-(nu + 1) / 2)

    tail, _ = quad(density, abs(t_obs), np.inf)
    return 2.0 * tail


class TestPearson:
    def test_hand_example(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_and_anti(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -2 * x + 4) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base = pearson(x, y)
        assert pearson(2 * x + 3, 5 * y - 7) == pytest.approx(base, abs=1e-12)
        assert pearson(-x, y) == pytest.approx(-base, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson(x, y) == pearson(y, x)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_constant_with_inexact_mean_raises(self):
        # twelve 0.1s sum to 1.2000000000000002: the mean is an ulp off 0.1
        x = np.full(12, 0.1)
        assert x.mean() != 0.1
        for a, b in ((x, np.arange(12.0)), (np.arange(12.0), x)):
            with pytest.raises(DegenerateInputError):
                pearson(a, b)

    def test_short_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0], [3.0, 4.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=30)
            y = x * rng.normal() + rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1],
                                                  abs=1e-12)


class TestPvalue:
    @pytest.mark.parametrize("nu", [1, 10, 100, 298])
    def test_matches_quadrature(self, nu):
        n = nu + 2
        for r in (0.05, 0.1, 0.3, 0.7):
            t_obs = r * math.sqrt(nu / (1 - r * r))
            expected = t_tail_by_quadrature(t_obs, nu)
            assert pearson_pvalue(r, n) == pytest.approx(expected, abs=1e-6)

    def test_r_zero_gives_one(self):
        assert pearson_pvalue(0.0, 30) == pytest.approx(1.0, abs=1e-12)

    def test_r_one_gives_zero(self):
        assert pearson_pvalue(1.0, 30) == 0.0
        assert pearson_pvalue(-1.0, 30) == 0.0

    def test_monotone_in_abs_r(self):
        rs = np.linspace(0.0, 0.99, 40)
        ps = [pearson_pvalue(r, 50) for r in rs]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_monotone_in_n(self):
        ns = [5, 10, 30, 100, 300, 1000]
        ps = [pearson_pvalue(0.2, n) for n in ns]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_symmetric_in_sign(self):
        assert pearson_pvalue(0.4, 25) == pytest.approx(
            pearson_pvalue(-0.4, 25), abs=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(DegenerateInputError):
            pearson_pvalue(0.5, 2)
        with pytest.raises(ConfigError):
            pearson_pvalue(1.5, 10)

    def test_null_calibration(self):
        # under independence the p-value is uniform; the 0.05 rejection rate
        # over 1000 trials at n=300 should land near its binomial expectation
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(1000):
            x = rng.normal(size=300)
            y = rng.normal(size=300)
            if pearson_pvalue(pearson(x, y), 300) < 0.05:
                hits += 1
        assert 30 <= hits <= 70


class TestCriticalR:
    def test_reference_value_n300(self):
        # the significance threshold at n = 300 sits near 0.113, so a
        # correlation there explains only about 1.2 percent of variance
        rc = critical_r(300)
        assert rc == pytest.approx(0.1133, abs=0.002)
        assert rc * rc == pytest.approx(0.0128, abs=5e-4)

    def test_inverts_pvalue(self):
        for n in (10, 50, 300):
            rc = critical_r(n)
            assert pearson_pvalue(rc, n) == pytest.approx(0.05, abs=1e-6)

    def test_decreases_with_n(self):
        vals = [critical_r(n) for n in (10, 30, 100, 300, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_r_squared_regime(self):
        # an r of 0.11 leaves 98.8 percent of variance unexplained
        assert 0.11 ** 2 == pytest.approx(0.0121, abs=1e-4)


def make_table(n_subjects=30, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"S{i:03d}" for i in range(n_subjects)]
    comp0 = rng.normal(size=n_subjects)
    emb = EmbeddingMatrix(method="pca", layer="L3",
                          values=np.column_stack([comp0, rng.normal(size=n_subjects)]),
                          subject_ids=ids)
    prof = np.column_stack([
        0.5 + 0.1 * comp0,                       # region 1 tracks component 0
        rng.normal(0.5, 0.05, size=n_subjects),  # region 2 noise
        np.full(n_subjects, 0.25),               # region 3 constant
    ])
    profiles = RegionProfileMatrix(values=prof, subject_ids=ids)
    return emb, profiles


class TestCorrelationTable:
    def test_planted_region_found(self):
        emb, profiles = make_table()
        table = correlate_embedding_regions(emb, profiles)
        planted = table.rows[0, 0, 0]  # pooled, component 0, region 1
        assert (planted["component"], planted["region"]) == (0, 1)
        assert planted["r"] == pytest.approx(1.0, abs=1e-9)
        assert planted["p_value"] < 1e-12
        assert planted["r_squared"] == pytest.approx(planted["r"] ** 2, abs=1e-12)

    def test_constant_region_flagged(self):
        emb, profiles = make_table()
        table = correlate_embedding_regions(emb, profiles)
        flagged = table.rows[table.rows["region"] == 3]
        assert flagged.size and all(flagged["flag"] == "undefined")
        assert all(np.isnan(flagged["r"]))
        assert all(table.rows[table.rows["region"] != 3]["flag"] == "")

    def test_row_count(self):
        emb, profiles = make_table()
        table = correlate_embedding_regions(emb, profiles)
        assert len(table) == 2 * 3  # components x regions, pooled only

    def test_stratified_adds_class_rows(self):
        emb, profiles = make_table()
        labels = np.array([0] * 15 + [3] * 15)
        table = correlate_embedding_regions(emb, profiles, labels=labels,
                                            stratify=True)
        names = set(table.rows["class_label"].ravel().tolist())
        assert names == {"pooled", "NOR", "AD"}
        nor = table.rows[table.rows["class_label"] == "NOR"]
        assert all(nor["n"] == 15)

    def test_tiny_class_flagged_not_correlated(self):
        emb, profiles = make_table()
        labels = np.array([0] * 28 + [1] * 2)
        table = correlate_embedding_regions(emb, profiles, labels=labels,
                                            stratify=True)
        mci = table.rows[table.rows["class_label"] == "MCI"]
        assert mci.size and all(mci["flag"] == "too_few")

    def test_stratify_without_labels_raises(self):
        emb, profiles = make_table()
        with pytest.raises(ConfigError):
            correlate_embedding_regions(emb, profiles, stratify=True)

    def test_subject_order_mismatch_raises(self):
        emb, profiles = make_table()
        shuffled = RegionProfileMatrix(values=profiles.values,
                                       subject_ids=list(reversed(profiles.subject_ids)))
        with pytest.raises(ShapeError):
            correlate_embedding_regions(emb, shuffled)


class TestTopRegions:
    def test_ranking_and_tie_rule(self):
        emb, profiles = make_table()
        table = correlate_embedding_regions(emb, profiles)
        top = top_regions(table, n=2)
        assert top[0].region == 1
        assert abs(top[0].r) >= abs(top[1].r)

    def test_tie_prefers_lower_region_id(self):
        ids = ["a", "b", "c", "d"]
        x = np.array([1.0, 2.0, 3.0, 4.0])
        emb = EmbeddingMatrix(method="pca", layer="L3", values=x[:, None],
                              subject_ids=ids)
        prof = RegionProfileMatrix(values=np.column_stack([x, x]),
                                   subject_ids=ids, region_ids=[7, 4])
        table = correlate_embedding_regions(emb, prof)
        top = top_regions(table, n=2)
        assert [t.region for t in top] == [4, 7]

    def test_empty_table_raises(self):
        with pytest.raises(DegenerateInputError):
            top_regions(CorrelationTable("pca", "L3",
                                         np.zeros((1, 0, 0), dtype=ROW_DTYPE)))


class TestOverlapReport:
    def test_pairwise_intersections(self):
        report = overlap_report({
            "NOR_AD": [1, 2, 3, 4],
            "NOR_MCI": [2, 3, 5],
            "NOR_MCIc": [3, 4, 5],
        })
        assert report.pair_overlaps[("NOR_AD", "NOR_MCI")] == [2, 3]
        assert report.pair_overlaps[("NOR_AD", "NOR_MCIc")] == [3, 4]
        assert report.pair_overlaps[("NOR_MCI", "NOR_MCIc")] == [3, 5]
        assert report.recurring_regions == [3]

    def test_region_ids_of_top_region_lists(self):
        emb, profiles = make_table()
        table = correlate_embedding_regions(emb, profiles)
        top = [t.region for t in top_regions(table, n=2)]
        report = overlap_report({"A": top, "B": top[::-1]})
        assert report.pair_overlaps[("A", "B")] == sorted(top)

    def test_single_comparison_raises(self):
        with pytest.raises(ConfigError):
            overlap_report({"only": [1, 2]})

    def test_disjoint_sets(self):
        report = overlap_report({"A": [1, 2], "B": [3, 4]})
        assert report.pair_overlaps[("A", "B")] == []
        assert report.recurring_regions == []


ROW_FIELDS = ("class_label", "component", "region", "n", "r", "r_squared",
              "p_value", "flag")


def row_digest(rows) -> str:
    """sha256 over tuples of plain values, floats written exactly in hex."""
    h = hashlib.sha256()
    for row in rows:
        h.update("|".join(v.hex() if isinstance(v, float) else str(v)
                          for v in row).encode() + b"\n")
    return h.hexdigest()


def table_rows(rows):
    return rows[list(ROW_FIELDS)].ravel().tolist()


def pin_table():
    """34 subjects in shuffled order: NOR 14, MCI 2 (too_few), MCIc 6
    (correlated, but below SAR's n >= 10) and AD 12. Component 1 is minus
    component 0 and region 3 is twice region 6, so |r| ties across
    components and regions; region 8 is constant (undefined), region 1 is
    constant within MCIc only, and region 5's pooled SAR gap sits between
    the bounds at the 45 correlated pairs and at the 36 with n >= 10."""
    rng = np.random.default_rng(909)
    labels = rng.permutation(np.array([0] * 14 + [1] * 2 + [2] * 6 + [3] * 12))
    n = labels.size
    ids = [f"S{i:03d}" for i in range(n)]
    s = rng.normal(size=n)
    emb = EmbeddingMatrix(method="umap", layer="L2",
                          values=np.column_stack([s, -s, rng.normal(size=n)]),
                          subject_ids=ids)
    signal = 0.5 + 0.1 * s + 0.02 * rng.normal(size=n)
    noise = 0.5 + 0.05 * rng.normal(size=n)
    noise[labels == 2] = 0.5
    weak = 1.55 * s + rng.normal(size=n)
    prof = np.column_stack([signal, 2.0 * signal, np.full(n, 0.25), noise, weak])
    profiles = RegionProfileMatrix(values=prof, subject_ids=ids,
                                   region_ids=[6, 3, 8, 1, 5])
    return correlate_embedding_regions(emb, profiles, labels=labels, stratify=True)


class TestBitPins:
    """sha256 digests recorded before the table became one structured array;
    any change to a row's arithmetic, the row order, the SAR pair count or
    the top-region tie rules changes them."""

    def test_rows_pin(self):
        table = pin_table()
        assert len(table) == 5 * 3 * 5
        assert row_digest(table_rows(table.rows)) == (
            "1212e734429aaa5b5bba96e70c730285db5f000b0687245b47b685dc3e93695d")

    def test_corrected_pvalue_pin(self):
        kept = correct_table(pin_table(), "pvalue")
        assert row_digest(table_rows(kept)) == (
            "ee8993418eb2eeca7aad18270bf09c545120bdd7678dc59f0270b84b56474275")

    def test_corrected_sar_pin(self):
        kept = correct_table(pin_table(), "sar")
        assert row_digest(table_rows(kept)) == (
            "5c8ad074a768a374a115e18b8fe3dd207c8a776d2a70d7af26f5b52b7fd29a92")

    def test_top_regions_pin(self):
        top = top_regions(pin_table(), n=10)
        assert row_digest((t.region, t.r, t.p_value, t.component, t.class_label)
                          for t in top) == (
            "0689ba5e6edb12fa0f6469f55901b94e5d95caea075c940a08475eeac1a0742f")


def per_cell_reference(x, y):
    """r, p, slope, intercept, model MAE and baseline MAE of one pair by the
    1-D formulas the block kernel must reproduce bit for bit; a vector of
    one repeated value has that value as its mean."""
    def mean(v):
        return float(v[0]) if v.min() == v.max() else float(v.mean())

    xd = x - mean(x)
    yd = y - mean(y)
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        r = p = float("nan")
    else:
        r = min(1.0, max(-1.0, float(xd @ yd) / (sx * sy)))
        p = pearson_pvalue(r, x.size)
    y_mean = mean(y)
    baseline = float(np.abs(y - y_mean).mean())
    if sx == 0.0:
        return r, p, 0.0, y_mean, baseline, baseline
    slope = float(xd @ (y - y_mean)) / float(xd @ xd)
    intercept = y_mean - slope * mean(x)
    model = float(np.abs(y - (slope * x + intercept)).mean())
    return r, p, slope, intercept, model, baseline


class TestBlockKernel:
    @pytest.mark.parametrize("n", [3, 4, 9, 10, 17, 128, 129, 300, 1031])
    def test_matches_per_cell_formulas(self, n):
        rng = np.random.default_rng(n)
        s = rng.normal(size=n)
        # constant 0.1 has an inexact computed mean, 0.25 an exact one; both
        # are constant (sxx == 0: r undefined and a flat SAR line)
        x = np.column_stack([s, np.full(n, 0.1), 3.0 + 1e-3 * rng.normal(size=n),
                             np.full(n, 0.25), 0.5 * s + rng.normal(size=n)])
        y = np.column_stack([0.5 + 0.1 * s + 0.01 * rng.normal(size=n),
                             np.full(n, 0.25), rng.normal(size=n),
                             -2.0 * x[:, 4], rng.uniform(size=n)])
        block = _block(x, y)
        got = np.stack(np.broadcast_arrays(
            block.r, block.p, block.slope, block.intercept, block.model_mae,
            block.baseline_mae[None, :]), axis=-1)
        want = np.array([[per_cell_reference(x[:, c], y[:, j]) for j in range(5)]
                         for c in range(5)])
        assert got.tobytes() == want.tobytes()
        assert block.sxx[1] == block.sxx[3] == 0.0

    def test_constant_column_with_inexact_mean_is_constant(self):
        """A zero-range column is constant even where its computed mean is
        not its value: zero deviations, r and p undefined, a flat line."""
        x, y = np.full((12, 1), 0.1), np.arange(12.0)[:, None]
        block = _block(x, y)
        assert block.sxx[0] == 0.0 and block.slope[0, 0] == 0.0
        assert np.isnan(block.r[0, 0]) and np.isnan(block.p[0, 0])
        assert block.intercept[0, 0] == 5.5
        assert block.model_mae[0, 0] == block.baseline_mae[0] == 3.0
        back = _block(y, x)
        assert np.isnan(back.r[0, 0]) and np.isnan(back.p[0, 0])
        assert back.baseline_mae[0] == back.model_mae[0, 0] == 0.0
