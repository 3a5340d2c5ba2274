"""Tests for the dual-verdict latent-region profiling grid."""

import hashlib
import json

import numpy as np
import pytest

from latentscope.data import AtlasMap, RegionProfileMatrix, balanced_indices
from latentscope.embedding.common import EmbeddingMatrix
from latentscope.errors import (
    ConfigError,
    DegenerateInputError,
    DependencyError,
    ShapeError,
)
from latentscope.lrcp import (
    CATEGORIES,
    accuracy_map,
    lrcp_cell,
    lrcp_grid,
    summary_counts,
)
from latentscope.seeds import derive_seed
from latentscope.validation import pac_bayes_penalty


def paired_labels(n_per=20):
    return np.array([0] * n_per + [3] * n_per)


class TestCellCategories:
    def test_both(self):
        # component separates the classes and tracks the region
        rng = np.random.default_rng(0)
        labels = paired_labels()
        x = np.where(labels == 3, 2.0, -2.0) + 0.1 * rng.normal(size=40)
        y = x + 0.1 * rng.normal(size=40)
        cell = lrcp_cell(x, y, labels)
        assert cell.category == "both"
        assert cell.corr_significant and cell.class_significant
        assert cell.empirical_error == 0.0
        assert cell.p_value < 1e-10

    def test_corr_only(self):
        # strong x-y coupling, labels independent of both
        rng = np.random.default_rng(1)
        labels = paired_labels()
        x = rng.normal(size=40)
        y = x + 0.05 * rng.normal(size=40)
        cell = lrcp_cell(x, y, labels)
        assert cell.corr_significant
        assert not cell.class_significant
        assert cell.category == "corr_only"

    def test_class_only(self):
        # classes split cleanly in x, region is unrelated noise
        rng = np.random.default_rng(2)
        labels = paired_labels()
        x = np.where(labels == 3, 1.0, -1.0) + 0.1 * rng.normal(size=40)
        y = rng.normal(size=40)
        cell = lrcp_cell(x, y, labels)
        assert not cell.corr_significant
        assert cell.class_significant
        assert cell.category == "class_only"

    def test_neither(self):
        rng = np.random.default_rng(3)
        labels = paired_labels()
        cell = lrcp_cell(rng.normal(size=40), rng.normal(size=40), labels)
        assert cell.category == "neither"

    def test_categories_partition(self):
        # the four categories are exhaustive and exclusive by construction;
        # sweep random cells and check every one lands in exactly one bucket
        rng = np.random.default_rng(4)
        labels = paired_labels()
        for _ in range(20):
            x = rng.normal(size=40) + rng.uniform(0, 2) * (labels == 3)
            y = rng.normal(size=40) + rng.uniform(0, 2) * x
            cell = lrcp_cell(x, y, labels)
            assert cell.category in CATEGORIES
            expected = {
                (True, True): "both",
                (True, False): "corr_only",
                (False, True): "class_only",
                (False, False): "neither",
            }[(cell.corr_significant, cell.class_significant)]
            assert cell.category == expected

    def test_corrected_error_uses_three_parameter_penalty(self):
        rng = np.random.default_rng(5)
        labels = paired_labels()
        x = np.where(labels == 3, 1.0, -1.0)
        y = rng.normal(size=40)
        cell = lrcp_cell(x, y, labels)
        penalty = pac_bayes_penalty(3, 0.5, 40, 0.05)
        assert cell.corrected_error == pytest.approx(
            cell.empirical_error + penalty, abs=1e-12)

    def test_xor_needs_quadratic_term(self):
        # XOR class structure in (x, y): linearly inseparable, separable
        # with the product feature
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.uniform(0.5, 1.5, 10), rng.uniform(-1.5, -0.5, 10),
                            rng.uniform(0.5, 1.5, 10), rng.uniform(-1.5, -0.5, 10)])
        y = np.concatenate([rng.uniform(0.5, 1.5, 10), rng.uniform(-1.5, -0.5, 10),
                            rng.uniform(-1.5, -0.5, 10), rng.uniform(0.5, 1.5, 10)])
        labels = np.array([0] * 20 + [3] * 20)  # class = sign(x * y)
        linear = lrcp_cell(x, y, labels)
        quad = lrcp_cell(x, y, labels, quadratic=True)
        assert linear.empirical_error >= 0.3
        assert not linear.class_significant
        assert quad.empirical_error == 0.0
        assert quad.class_significant
        # the quadratic model pays for its extra parameter
        assert quad.corrected_error == pytest.approx(
            pac_bayes_penalty(4, 0.5, 40, 0.05), abs=1e-12)

    def test_degenerate_constant_feature(self):
        labels = paired_labels()
        rng = np.random.default_rng(7)
        cell = lrcp_cell(rng.normal(size=40), np.full(40, 0.5), labels)
        assert cell.category == "neither"
        assert "degenerate_constant_feature" in cell.flags
        assert np.isnan(cell.r)

    def test_constant_component_with_inexact_mean(self):
        # the computed mean of twelve 0.1s is an ulp off 0.1; the region
        # alone would classify the two classes perfectly
        cell = lrcp_cell(np.full(12, 0.1), np.arange(12.0), paired_labels(6))
        assert cell.category == "neither"
        assert cell.flags == ["degenerate_constant_feature"]
        assert np.isnan(cell.r)

    def test_validation_errors(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        three = np.array([0] * 14 + [1] * 13 + [3] * 13)
        with pytest.raises(ConfigError):
            lrcp_cell(x, y, three)
        tiny = np.array([0] * 36 + [3] * 4)
        with pytest.raises(DegenerateInputError):
            lrcp_cell(x, y, tiny)
        with pytest.raises(ShapeError):
            lrcp_cell(x[:39], y, paired_labels())


def small_grid_inputs(seed=0, n_per=(20, 20)):
    """Cohort rows: class 0 then class 3; region 1 tracks the component,
    region 2 is noise."""
    rng = np.random.default_rng(seed)
    n = sum(n_per)
    labels = np.array([0] * n_per[0] + [3] * n_per[1])
    ids = [f"S{i:03d}" for i in range(n)]
    comp = np.where(labels == 3, 1.5, -1.5) + 0.2 * rng.normal(size=n)
    emb = EmbeddingMatrix(method="pca", layer="L1",
                          values=np.column_stack([comp, rng.normal(size=n)]),
                          subject_ids=ids)
    prof = np.column_stack([
        0.5 + 0.1 * comp + 0.02 * rng.normal(size=n),
        0.5 + 0.05 * rng.normal(size=n),
    ])
    profiles = RegionProfileMatrix(values=prof, subject_ids=ids)
    return emb, profiles, labels


class TestGrid:
    def test_planted_cell_is_both(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[("NOR_AD", (0, 3))])
        # regions run fastest: component 0 holds region 1, then region 2
        planted, noise_cell = grid.cells.reshape(grid.shape)[0, 0, 0, 0]
        assert grid.region_ids == [1, 2]
        assert planted["category"] == "both"
        assert noise_cell["category"] in ("class_only", "neither")

    def test_grid_shape(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        # 1 comparison x 1 method x 1 layer x 2 components x 2 regions
        assert len(grid.cells) == 4
        assert grid.comparisons == ["NOR_AD"]
        assert grid.methods == ["pca"]
        assert grid.layers == ["L1"]
        assert grid.components == [0, 1]
        assert grid.region_ids == [1, 2]

    def test_balanced_subsetting(self):
        emb, profiles, labels = small_grid_inputs(n_per=(30, 12))
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[("NOR_AD", (0, 3))], seed=5)
        assert grid.cells["n"].tolist() == [24] * len(grid.cells)

    def test_balancing_shared_with_data(self):
        # the grid keeps the rows the pipeline's balancing policy picks
        emb, profiles, labels = small_grid_inputs(n_per=(30, 12))
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[("NOR_AD", (0, 3))], seed=5)
        keep = balanced_indices(labels, {0, 3}, derive_seed(5, "NOR_AD", "pca", "L1"))
        assert keep.size == 24
        for index, record in zip(np.ndindex(grid.shape), grid.cells):
            *_, k, j = index
            cell = lrcp_cell(emb.values[keep, k], profiles.values[keep, j], labels[keep])
            assert record["n"] == cell.n
            assert np.float64(record["r"]).tobytes() == np.float64(cell.r).tobytes()

    def test_subsetting_deterministic(self):
        emb, profiles, labels = small_grid_inputs(n_per=(30, 12))
        g1 = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                       comparisons=[(0, 3)], seed=5)
        g2 = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                       comparisons=[(0, 3)], seed=5)
        assert g1.cells["r"].tolist() == g2.cells["r"].tolist()

    def test_grid_cells_match_lrcp_cell(self):
        # without subsampling every grid record is the single-cell verdict
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        for index, record in zip(np.ndindex(grid.shape), grid.cells):
            *_, k, j = index
            cell = lrcp_cell(emb.values[:, k], profiles.values[:, j], labels)
            assert (record["n"], record["r"], record["p_value"],
                    record["empirical_error"], record["corrected_error"],
                    record["category"]) == (
                cell.n, cell.r, cell.p_value, cell.empirical_error,
                cell.corrected_error, cell.category)

    def test_missing_embedding_raises(self):
        emb, profiles, labels = small_grid_inputs()
        other = EmbeddingMatrix(method="tsne", layer="L2", values=emb.values,
                                subject_ids=emb.subject_ids)
        with pytest.raises(DependencyError):
            lrcp_grid({("pca", "L1"): emb, ("tsne", "L2"): other},
                      profiles, labels, comparisons=[(0, 3)])

    def test_comparison_specific_embedding_wins(self):
        emb, profiles, labels = small_grid_inputs()
        rng = np.random.default_rng(9)
        decoy = EmbeddingMatrix(method="pca", layer="L1",
                                values=rng.normal(size=emb.values.shape),
                                subject_ids=emb.subject_ids)
        grid = lrcp_grid({("NOR_AD", "pca", "L1"): emb, ("pca", "L1"): decoy},
                         profiles, labels, comparisons=[("NOR_AD", (0, 3))])
        cell = grid.cells.reshape(grid.shape)[0, 0, 0, 0, 0]
        assert cell["category"] == "both"  # the planted fit, not the decoy

    def test_absent_class_raises(self):
        emb, profiles, labels = small_grid_inputs()
        with pytest.raises(ConfigError):
            lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                      comparisons=[(0, 1)])  # no MCI subjects present

    def test_unknown_subject_raises(self):
        emb, profiles, labels = small_grid_inputs()
        bad = EmbeddingMatrix(method="pca", layer="L1", values=emb.values,
                              subject_ids=["X" + s for s in emb.subject_ids])
        with pytest.raises(ShapeError):
            lrcp_grid({("pca", "L1"): bad}, profiles, labels,
                      comparisons=[(0, 3)])

    def test_bad_comparison_rejected(self):
        emb, profiles, labels = small_grid_inputs()
        with pytest.raises(ConfigError):
            lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                      comparisons=[(3, 3)])
        with pytest.raises(ConfigError):
            lrcp_grid({("pca", "L1"): emb}, profiles, labels, comparisons=[])


class TestSummaryAndMaps:
    def test_summary_counts_sum_to_regions(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        counts = summary_counts(grid)
        assert set(counts) == {("NOR_AD", "pca", "L1", 0),
                               ("NOR_AD", "pca", "L1", 1)}
        for sig, non_sig in counts.values():
            assert sig + non_sig == len(grid.region_ids)

    def test_summary_follows_classification_branch(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        expected = {}
        for index, cell in zip(np.ndindex(grid.shape), grid.cells):
            c, m, l, k, _ = index
            key = (grid.comparisons[c], grid.methods[m], grid.layers[l],
                   grid.components[k])
            expected[key] = expected.get(key, 0) + int(cell["corrected_error"] < 0.5)
        assert {key: sig for key, (sig, _) in summary_counts(grid).items()} == expected

    def test_accuracy_map_paints_regions(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        atlas_labels = np.zeros((4, 4, 4), dtype=np.int32)
        atlas_labels[:2] = 1
        atlas_labels[2:] = 2
        atlas = AtlasMap(atlas_labels, region_count=2)
        vol = accuracy_map(grid, "NOR_AD", "pca", "L1", 0, atlas)
        errors = grid.cells.reshape(grid.shape)[0, 0, 0, 0]["corrected_error"]
        expected_r1 = min(1.0, max(0.0, 1.0 - errors[grid.region_ids.index(1)]))
        assert float(vol.voxels[0, 0, 0]) == pytest.approx(expected_r1, abs=1e-7)
        assert float(vol.voxels[0, 0, 0]) > 0.5  # planted region is accurate
        assert vol.voxels.min() >= 0.0 and vol.voxels.max() <= 1.0

    def test_accuracy_map_region_mismatch(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        atlas = AtlasMap(np.ones((2, 2, 2), dtype=np.int32), region_count=1)
        with pytest.raises(ShapeError):
            accuracy_map(grid, "NOR_AD", "pca", "L1", 0, atlas)

    def test_accuracy_map_empty_slice(self):
        emb, profiles, labels = small_grid_inputs()
        grid = lrcp_grid({("pca", "L1"): emb}, profiles, labels,
                         comparisons=[(0, 3)])
        atlas = AtlasMap(np.ones((2, 2, 2), dtype=np.int32), region_count=1)
        with pytest.raises(ConfigError):
            accuracy_map(grid, "NOR_MCI", "pca", "L1", 0, atlas)


def pin_inputs():
    """46 subjects (26 NOR, 20 AD, so the grid subsamples NOR), 2 methods x
    2 layers x 2 components; region 1 tracks the class, region 2 is noise
    and region 3 is constant."""
    rng = np.random.default_rng(2024)
    labels = np.array([0] * 26 + [3] * 20)
    n = labels.size
    ids = [f"S{i:03d}" for i in range(n)]
    shift = np.where(labels == 3, 1.0, -1.0)
    embeddings = {}
    for method in ("pca", "tsne"):
        for layer in ("L1", "L2"):
            values = np.column_stack([shift + 0.5 * rng.normal(size=n),
                                      rng.normal(size=n)])
            embeddings[(method, layer)] = EmbeddingMatrix(
                method=method, layer=layer, values=values, subject_ids=ids)
    prof = np.column_stack([0.5 + 0.1 * shift + 0.05 * rng.normal(size=n),
                            0.5 + 0.05 * rng.normal(size=n),
                            np.full(n, 0.25)])
    atlas_labels = np.repeat(np.arange(1, 4, dtype=np.int32), 4).reshape(3, 2, 2)
    return (embeddings, RegionProfileMatrix(values=prof, subject_ids=ids), labels,
            AtlasMap(atlas_labels, region_count=3))


class TestBitPins:
    """sha256 digests recorded before the grid became one structured array;
    any change to a cell's arithmetic or to the cell order changes them."""

    def _grid(self):
        embeddings, profiles, labels, atlas = pin_inputs()
        grid = lrcp_grid(embeddings, profiles, labels, [("NOR_AD", (0, 3))],
                         seed=7)
        return grid, atlas

    def test_grid_pin(self):
        grid, _ = self._grid()
        assert len(grid.cells) == 24
        h = hashlib.sha256()
        for name in ("r", "p_value", "empirical_error", "corrected_error"):
            h.update(np.asarray(grid.cells[name], dtype=np.float64).tobytes())
        h.update(",".join(grid.cells["category"].tolist()).encode())
        assert h.hexdigest() == (
            "1ef7b206bb149d7311e033a910ea02c5e3f867d21e18f1b6d24982c8ac5e7aba")

    def test_summary_counts_pin(self):
        grid, _ = self._grid()
        counts = [[*key, sig, non_sig]
                  for key, (sig, non_sig) in summary_counts(grid).items()]
        assert hashlib.sha256(json.dumps(counts).encode()).hexdigest() == (
            "fe67a3bb2ca9f39d472eab2b5c6669b660743e4adaceb03e4014c7caa602d61f")

    def test_summary_counts_degenerate_neither_cell(self):
        # region 3 is constant, so its cells are "neither" with r undefined;
        # summary_counts follows the classification branch alone and still
        # counts such a cell as significant when its corrected error < 0.5
        grid, _ = self._grid()
        constant = grid.cells.reshape(grid.shape)[0, 0, 0, 0, 2]  # pca, L1, D0
        assert constant["category"] == "neither" and np.isnan(constant["r"])
        assert constant["corrected_error"] < 0.5
        assert summary_counts(grid)[("NOR_AD", "pca", "L1", 0)] == (3, 0)

    def test_accuracy_map_pin(self):
        grid, atlas = self._grid()
        h = hashlib.sha256()
        for key in summary_counts(grid):
            h.update(accuracy_map(grid, *key, atlas).voxels.tobytes())
        assert h.hexdigest() == (
            "c10e284f892ea7da4b465d47b531e900a89fd7f0ce5998920280842306b4f5cb")
