"""Random-forest regressor tests: determinism, fit quality, leaf geometry,
and the batched split search against a per-feature reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope.errors import ConfigError, DegenerateInputError
from latentscope.forest import (ForestConfig, ForestModel, TreeArrays,
                                _best_split, forest_predict, rf_fit)


class TestFitBasics:
    def test_constant_targets_predict_constant(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(30, 4))
        y = np.full(30, 2.5)
        model = rf_fit(x, y, ForestConfig(n_trees=10, seed=0))
        np.testing.assert_allclose(forest_predict(model, x), 2.5, atol=1e-12)
        # no split can reduce variance, so every tree is a single leaf
        assert all(tree.n_nodes == 1 for tree in model.trees)

    def test_single_feature_signal_r2(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(200, 1))
        y = 3.0 * x[:, 0] + 0.01 * rng.normal(size=200)
        model = rf_fit(x, y, ForestConfig(n_trees=50, max_depth=8, seed=1))
        pred = forest_predict(model, x)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert 1.0 - ss_res / ss_tot >= 0.9

    def test_multifeature_recovers_relevant_one(self):
        # only feature 2 matters; trees should split on it and predictions
        # should track it monotonically
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(150, 5))
        y = 2.0 * x[:, 2]
        model = rf_fit(x, y, ForestConfig(n_trees=40, max_depth=6, seed=2))
        used = np.concatenate([t.feature[t.feature >= 0] for t in model.trees])
        counts = np.bincount(used, minlength=5)
        assert counts[2] == counts.max()
        grid = np.tile(np.full(5, 0.5), (2, 1))
        grid[0, 2] = 0.1
        grid[1, 2] = 0.9
        lo, hi = forest_predict(model, grid)
        assert hi > lo

    def test_same_seed_same_forest(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 3))
        y = rng.normal(size=40)
        a = rf_fit(x, y, ForestConfig(n_trees=15, seed=9))
        b = rf_fit(x, y, ForestConfig(n_trees=15, seed=9))
        c = rf_fit(x, y, ForestConfig(n_trees=15, seed=10))
        assert a.forest_hash() == b.forest_hash()
        assert a.forest_hash() != c.forest_hash()

    def test_feature_subsampling_width(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(30, 9))
        y = rng.normal(size=30)
        model = rf_fit(x, y, ForestConfig(n_trees=5, seed=0))
        assert model.features_per_split == 3  # ceil(9/3)
        assert model.feature_count == 9

    def test_prediction_is_tree_average(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(25, 3))
        y = rng.normal(size=25)
        model = rf_fit(x, y, ForestConfig(n_trees=7, seed=3))
        test = rng.uniform(size=(4, 3))
        manual = np.mean([t.predict(test) for t in model.trees], axis=0)
        np.testing.assert_allclose(forest_predict(model, test), manual,
                                   atol=1e-12)


class TestValidation:
    def test_too_few_subjects(self):
        with pytest.raises(DegenerateInputError):
            rf_fit(np.zeros((4, 3)), np.zeros(4))

    def test_five_subjects_accepted(self):
        rng = np.random.default_rng(6)
        model = rf_fit(rng.uniform(size=(5, 2)), rng.normal(size=5),
                       ForestConfig(n_trees=3, seed=0))
        assert isinstance(model, ForestModel)

    def test_misaligned_targets(self):
        with pytest.raises(ConfigError):
            rf_fit(np.zeros((10, 3)), np.zeros(9))

    def test_non_finite_rejected(self):
        x = np.ones((10, 2))
        y = np.ones(10)
        y[3] = np.nan
        with pytest.raises(DegenerateInputError):
            rf_fit(x, y)

    def test_config_validation(self):
        for bad in (ForestConfig(n_trees=0), ForestConfig(max_depth=0),
                    ForestConfig(min_leaf=0)):
            with pytest.raises(ConfigError):
                bad.validate()

    def test_predict_feature_count_checked(self):
        rng = np.random.default_rng(7)
        model = rf_fit(rng.uniform(size=(20, 3)), rng.normal(size=20),
                       ForestConfig(n_trees=3, seed=0))
        with pytest.raises(ConfigError):
            forest_predict(model, np.zeros((2, 4)))


class TestLeafBoxes:
    def test_boxes_partition_predictions(self):
        # routing a sample by tree traversal and locating it by leaf-interval
        # membership must agree everywhere
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(60, 3))
        y = x[:, 0] + 2 * x[:, 1] + rng.normal(size=60) * 0.1
        model = rf_fit(x, y, ForestConfig(n_trees=5, max_depth=4, seed=4))
        probes = rng.uniform(size=(20, 3))
        for tree in model.trees:
            boxes = list(tree.leaf_boxes())
            for row in probes:
                hits = []
                for val, feats, lows, highs in boxes:
                    inside = all(lows[k] < row[f] <= highs[k]
                                 for k, f in enumerate(feats))
                    if inside:
                        hits.append(val)
                assert len(hits) == 1
                assert hits[0] == pytest.approx(float(tree.predict(row)[0]),
                                                abs=1e-12)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(50, 2))
        y = rng.normal(size=50)
        min_leaf = 5
        model = rf_fit(x, y, ForestConfig(n_trees=10, max_depth=10,
                                          min_leaf=min_leaf, seed=5))
        for seed, tree in zip(model.tree_seeds, model.trees):
            rng_t = np.random.default_rng(int(seed))
            boot = rng_t.integers(0, 50, size=50)
            xb = x[boot]
            for _, feats, lows, highs in tree.leaf_boxes():
                inside = np.ones(50, dtype=bool)
                for k, f in enumerate(feats):
                    inside &= (xb[:, f] > lows[k]) & (xb[:, f] <= highs[k])
                assert int(inside.sum()) >= min_leaf


def reference_best_split(x, y, idx, feats, min_leaf):
    """One sort and two cumulative sums per candidate feature; the first
    position wins ties within a feature, the first candidate across them."""
    y_node = y[idx]
    n = y_node.size
    total = float(y_node @ y_node) - n * float(y_node.mean()) ** 2
    best = None
    for f in feats:
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        vs = vals[order]
        ys = y_node[order]
        cy = np.cumsum(ys)
        cy2 = np.cumsum(ys * ys)
        pos = np.arange(min_leaf - 1, n - min_leaf)
        if pos.size == 0:
            continue
        valid = vs[pos] != vs[pos + 1]
        if not valid.any():
            continue
        pos = pos[valid]
        nl = (pos + 1).astype(np.float64)
        nr = n - nl
        sl = cy[pos]
        s2l = cy2[pos]
        sse_l = s2l - sl * sl / nl
        sr = cy[-1] - sl
        s2r = cy2[-1] - s2l
        sse_r = s2r - sr * sr / nr
        gain = total - sse_l - sse_r
        k = int(np.argmax(gain))
        if best is None or gain[k] > best[0]:
            thr = 0.5 * (vs[pos[k]] + vs[pos[k] + 1])
            best = (float(gain[k]), int(f), float(thr))
    return best


def split_bits(split):
    """The split with its floats as exact hex strings (tells -0.0 from 0.0)."""
    if split is None:
        return None
    gain, f, thr = split
    return gain.hex(), f, thr.hex()


@st.composite
def split_cases(draw):
    """Columns that are tied (few levels), continuous, constant, or copies of
    an earlier column; integer targets make gains tie exactly."""
    rows = draw(st.integers(1, 20))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty((rows, m))
    for j in range(m):
        kind = draw(st.sampled_from(
            ["tied", "uniform", "constant"] + (["copy"] if j else [])))
        if kind == "tied":
            x[:, j] = rng.integers(0, draw(st.integers(1, 4)), size=rows)
        elif kind == "uniform":
            x[:, j] = rng.uniform(-1.0, 1.0, size=rows)
        elif kind == "constant":
            x[:, j] = 0.5
        else:
            x[:, j] = x[:, draw(st.integers(0, j - 1))]
    if draw(st.booleans()):
        y = rng.integers(0, 3, size=rows).astype(np.float64)
    else:
        y = rng.normal(size=rows)
    idx = rng.integers(0, rows, size=draw(st.integers(1, 2 * rows)))
    feats = rng.permutation(m)[:draw(st.integers(1, m))]
    if draw(st.booleans()):
        feats = np.sort(feats)
    min_leaf = draw(st.integers(1, 12))
    return x, y, idx, feats, min_leaf


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(split_cases())
    def test_matches_per_feature_reference(self, case):
        assert (split_bits(_best_split(*case))
                == split_bits(reference_best_split(*case)))

    def test_first_position_wins_within_a_feature(self):
        # y is symmetric, so splitting after the 1st or the 3rd sample gain
        # the same; the lower position is kept
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        _, f, thr = _best_split(x, y, np.arange(4), np.array([0]), 1)
        assert (f, thr) == (0, 0.5)

    def test_first_candidate_wins_across_features(self):
        rng = np.random.default_rng(0)
        col = rng.uniform(size=12)
        x = np.stack([col, col], axis=1)
        y = 3.0 * col
        idx = np.arange(12)
        assert _best_split(x, y, idx, np.array([0, 1]), 2)[1] == 0
        assert _best_split(x, y, idx, np.array([1, 0]), 2)[1] == 1

    def test_constant_columns_give_none(self):
        x = np.full((10, 3), 0.25)
        y = np.arange(10.0)
        assert _best_split(x, y, np.arange(10), np.array([0, 1, 2]), 1) is None

    def test_too_few_rows_for_min_leaf_give_none(self):
        x = np.arange(10.0)[:, None]
        y = np.arange(10.0)
        for min_leaf in (6, 10, 11):  # n < 2 * min_leaf: no position
            assert _best_split(x, y, np.arange(10), np.array([0]),
                               min_leaf) is None
        assert _best_split(x, y, np.arange(10), np.array([0]), 5)[2] == 4.5


class TestPredictRouting:
    def test_matches_row_by_row_walk(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(80, 4))
        y = x[:, 0] - x[:, 3] + 0.1 * rng.normal(size=80)
        model = rf_fit(x, y, ForestConfig(n_trees=6, max_depth=7, seed=1))
        probes = np.concatenate([rng.uniform(size=(30, 4)), x[:10]])
        for tree in model.trees:
            walked = []
            for row in probes:
                node = 0
                while tree.feature[node] >= 0:
                    go_left = row[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                walked.append(tree.value[node])
            np.testing.assert_array_equal(tree.predict(probes), walked)

    def test_single_leaf_tree_and_empty_input(self):
        leaf = TreeArrays(feature=np.array([-1], dtype=np.int32),
                          threshold=np.zeros(1),
                          left=np.array([-1], dtype=np.int32),
                          right=np.array([-1], dtype=np.int32),
                          value=np.array([1.5]))
        np.testing.assert_array_equal(leaf.predict(np.zeros((3, 2))),
                                      [1.5, 1.5, 1.5])
        assert leaf.predict(np.zeros((0, 2))).shape == (0,)
