"""Attribution tests: exact Shapley values against brute-force enumeration."""

import functools
import hashlib
import itertools
from math import factorial

import numpy as np
import pytest

from latentscope.attribution import (
    MAX_LEAF_FEATURES,
    _shap_weight_tables,
    attribute_class,
    build_shap_volume,
    shap_region_importance,
    shap_values,
    total_reconstruction_error,
)
from latentscope.data import AtlasMap
from latentscope.errors import ConfigError, DegenerateInputError, ShapeError
from latentscope.forest import ForestConfig, forest_predict, rf_fit

from conftest import bottleneck


def brute_force_shap(model, x_row, bg):
    """Textbook Shapley values of the interventional game, all coalitions.

    v(S) averages the forest prediction over background rows with the
    features outside S replaced by the background row's values.
    """
    m = model.feature_count

    def value(subset):
        mask = np.zeros(m, dtype=bool)
        mask[list(subset)] = True
        mixed = np.where(mask, x_row, bg)
        return float(forest_predict(model, mixed).mean())

    phi = np.zeros(m)
    others = list(range(m))
    for i in range(m):
        rest = [j for j in others if j != i]
        for size in range(m):
            for subset in itertools.combinations(rest, size):
                weight = factorial(size) * factorial(m - size - 1) / factorial(m)
                phi[i] += weight * (value(subset + (i,)) - value(subset))
    return phi


def small_forest(m=5, n=40, seed=0, n_trees=5, max_depth=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, m))
    y = 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] * x[:, 0] + 0.05 * rng.normal(size=n)
    model = rf_fit(x, y, ForestConfig(n_trees=n_trees, max_depth=max_depth,
                                      seed=seed))
    return model, x, y


class TestShapExactness:
    def test_matches_brute_force(self):
        model, x, _ = small_forest(m=5, n=40, seed=0)
        bg = x[:10]
        explained = x[10:13]
        phi, base = shap_values(model, explained, bg)
        for row, phi_row in zip(explained, phi):
            expected = brute_force_shap(model, row, bg)
            np.testing.assert_allclose(phi_row, expected, atol=1e-8)
        assert base == pytest.approx(float(forest_predict(model, bg).mean()),
                                     abs=1e-12)

    def test_matches_brute_force_deeper(self):
        model, x, _ = small_forest(m=4, n=60, seed=3, n_trees=8, max_depth=5)
        bg = x[:16]
        phi, _ = shap_values(model, x[20:22], bg)
        for row, phi_row in zip(x[20:22], phi):
            np.testing.assert_allclose(phi_row, brute_force_shap(model, row, bg),
                                       atol=1e-8)

    def test_local_accuracy(self):
        # base + sum of attributions must reproduce the prediction exactly
        model, x, _ = small_forest(m=6, n=80, seed=1, n_trees=20, max_depth=4)
        bg = x[:30]
        explained = x[30:50]
        phi, base = shap_values(model, explained, bg)
        preds = forest_predict(model, explained)
        np.testing.assert_allclose(base + phi.sum(axis=1), preds, atol=1e-8)

    def test_null_player_gets_zero(self):
        # a constant column can never split, so its attribution is exactly 0
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(50, 4))
        x[:, 3] = 0.7
        y = x[:, 0] + x[:, 1]
        model = rf_fit(x, y, ForestConfig(n_trees=10, max_depth=4, seed=2))
        phi, _ = shap_values(model, x[:5], x)
        np.testing.assert_array_equal(phi[:, 3], np.zeros(5))

    def test_single_background_row(self):
        model, x, _ = small_forest(m=4, n=30, seed=4)
        phi, base = shap_values(model, x[5:6], x[0:1])
        expected = brute_force_shap(model, x[5], x[0:1])
        np.testing.assert_allclose(phi[0], expected, atol=1e-8)
        assert base == pytest.approx(float(forest_predict(model, x[0:1])[0]))

    def test_feature_mismatch_raises(self):
        model, x, _ = small_forest(m=5)
        with pytest.raises(ShapeError):
            shap_values(model, x[:2, :4], x)

    def test_empty_background_raises(self):
        model, x, _ = small_forest(m=5)
        with pytest.raises(DegenerateInputError):
            shap_values(model, x[:2], x[:0])


class TestPatternGrouping:
    """Rows that share a leaf pattern are computed once and scattered back;
    every row must get exactly the bits it gets when explained alone."""

    @pytest.mark.parametrize("n_bg", [1, 3, 17])
    def test_batch_rows_equal_single_rows_bitwise(self, n_bg):
        model, x, _ = small_forest(m=6, n=50, seed=6, n_trees=10, max_depth=5)
        explained = np.concatenate([x[20:29], x[20:23], x[25:26]])  # repeats
        bg = x[:n_bg]
        phi, base = shap_values(model, explained, bg)
        for row, phi_row in zip(explained, phi):
            alone, base1 = shap_values(model, row[None], bg)
            assert alone.tobytes() == phi_row.tobytes()
            assert base1 == base
        assert phi[9:12].tobytes() == phi[0:3].tobytes()

    def test_pinned_forest_and_shap_bytes(self):
        # any change to split search or summation order moves these digests
        rng = np.random.default_rng(2024)
        x = rng.uniform(size=(48, 6))
        x[:, 1] = np.round(x[:, 1] * 4.0) / 4.0  # tied values
        x[:, 4] = x[:, 0]  # duplicated column: gains tie across features
        y = (2.0 * x[:, 0] - x[:, 1] + x[:, 2] * x[:, 3]
             + 0.1 * rng.normal(size=48))
        model = rf_fit(x, y, ForestConfig(n_trees=12, max_depth=5,
                                          min_leaf=2, seed=3))
        phi, base = shap_values(model, x, x[:20])
        assert model.forest_hash() == (
            "a030e1746540e3fdecb3e29eedb5201cc8b5002edc4b64ddd101ab23eb5464a4")
        assert hashlib.sha256(phi.tobytes()).hexdigest() == (
            "90696a912d779c895b1a59904b221167a877788db8555ede51aa445473fb47d3")
        assert base.hex() == (0.6988593316025051).hex()


def mask_shap_oracle(model, x, background):
    """The per-leaf mask formulation the sign tables replaced, kept as a
    bit-for-bit reference.

    Per leaf it builds boolean masks of the path intervals only x, only z or
    neither satisfies, looks the weights up per (pattern, background row)
    pair and sums their broadcast product over the background. Rows are
    grouped by their packed mask bits, which works for leaves of at most 8
    path features.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    bg = np.atleast_2d(np.asarray(background, dtype=np.float64))
    m = model.feature_count
    leaves = [leaf for tree in model.trees for leaf in tree.leaf_boxes()]
    wplus, wminus = _shap_weight_tables(m, max(leaf[1].size for leaf in leaves))
    phi = np.zeros((x.shape[0], m))
    for v, feats, lows, highs in leaves:
        if feats.size == 0:
            continue
        x_ok = (x[:, feats] > lows) & (x[:, feats] <= highs)
        z_ok = (bg[:, feats] > lows) & (bg[:, feats] <= highs)
        packed = np.packbits(x_ok, axis=1)
        key = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        x_ok = x_ok[first]
        t_mask = x_ok[:, None, :] & ~z_ok[None, :, :]
        z_mask = ~x_ok[:, None, :] & z_ok[None, :, :]
        dead = (~x_ok[:, None, :] & ~z_ok[None, :, :]).any(axis=2)
        t = t_mask.sum(axis=2)
        q = z_mask.sum(axis=2)
        live = ~dead
        plus = np.where(live, wplus[t, q], 0.0) * v
        minus = np.where(live, wminus[t, q], 0.0) * v
        contrib = t_mask * plus[:, :, None] - z_mask * minus[:, :, None]
        phi[:, feats] += contrib.sum(axis=1)[inverse]
    phi /= model.n_trees * bg.shape[0]
    return phi


@functools.lru_cache(maxsize=None)
def deep_forest(max_depth):
    """128 rows of 16 features with every feature in the target, so deep
    leaves constrain many distinct features (8 at max_depth 8)."""
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(128, 16))
    y = np.sin(6.0 * x).sum(axis=1) + 0.1 * rng.normal(size=128)
    model = rf_fit(x, y, ForestConfig(n_trees=4, max_depth=max_depth,
                                      min_leaf=1, seed=max_depth))
    return model, x


def widest_leaf(model):
    return max(leaf[1].size for tree in model.trees for leaf in tree.leaf_boxes())


class TestSignTableKernel:
    """`shap_values` gives the mask oracle's bits exactly."""

    @pytest.mark.parametrize("same", [True, False], ids=["x_is_bg", "x_not_bg"])
    @pytest.mark.parametrize("n_bg", [1, 3, 17, 48])
    @pytest.mark.parametrize("max_depth", range(1, 9))
    def test_bits_equal_mask_oracle(self, max_depth, n_bg, same):
        model, x = deep_forest(max_depth)
        bg = x[:n_bg]
        explained = bg if same else x[64:80]
        phi, _ = shap_values(model, explained, bg)
        assert phi.tobytes() == mask_shap_oracle(model, explained, bg).tobytes()

    def test_forests_reach_seven_and_eight_features(self):
        assert widest_leaf(deep_forest(7)[0]) == 7
        assert widest_leaf(deep_forest(8)[0]) == 8 == MAX_LEAF_FEATURES

    @pytest.mark.parametrize("n_bg", [1, 17])
    def test_repeated_splits_on_one_feature(self, n_bg):
        # two features and depth 6: a tree with more than four leaves splits
        # some feature twice on one path, and leaf_boxes merges the intervals
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(60, 2))
        y = np.sin(9.0 * x[:, 0]) + x[:, 1]
        model = rf_fit(x, y, ForestConfig(n_trees=4, max_depth=6, min_leaf=1,
                                          seed=2))
        assert max(len(list(t.leaf_boxes())) for t in model.trees) > 4
        phi, _ = shap_values(model, x[20:40], x[:n_bg])
        assert phi.tobytes() == mask_shap_oracle(model, x[20:40], x[:n_bg]).tobytes()

    def test_leaf_beyond_table_is_config_error(self):
        model, x = deep_forest(12)
        assert widest_leaf(model) > MAX_LEAF_FEATURES
        with pytest.raises(ConfigError, match="shap.max_depth"):
            shap_values(model, x[:4], x[:8])


class TestImportance:
    def test_min_max_normalization(self):
        phi = np.array([[2.0, -4.0, 6.0]])
        s, s_tilde, flags = shap_region_importance(phi)
        np.testing.assert_array_equal(s, [2.0, 4.0, 6.0])
        np.testing.assert_allclose(s_tilde, [0.0, 0.5, 1.0], atol=1e-6)
        assert flags == []

    def test_mean_abs_over_subjects(self):
        phi = np.array([[1.0, 0.0], [-3.0, 0.0]])
        s, _, _ = shap_region_importance(phi)
        np.testing.assert_array_equal(s, [2.0, 0.0])

    def test_uniform_importance_flagged(self):
        phi = np.array([[0.5, -0.5, 0.5], [-0.5, 0.5, 0.5]])
        _, s_tilde, flags = shap_region_importance(phi)
        assert "uniform_importance" in flags
        np.testing.assert_array_equal(s_tilde, np.zeros(3))

    def test_empty_raises(self):
        with pytest.raises(DegenerateInputError):
            shap_region_importance(np.zeros((0, 4)))

    def test_ranking_invariant_to_target_scale(self):
        # scaling targets by a power of two commutes exactly with float
        # rounding, so split decisions are bitwise identical and the
        # attributions rescale linearly (a non-dyadic factor could flip
        # near-tie splits and change the forest)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(40, 5))
        y = 3.0 * x[:, 2] + x[:, 0] + 0.1 * rng.normal(size=40)
        ids = [str(i) for i in range(40)]
        res1 = attribute_class(x, y, 3, config=ForestConfig(n_trees=10, seed=6),
                               subject_ids=ids)
        res2 = attribute_class(x, 8.0 * y, 3, config=ForestConfig(n_trees=10, seed=6),
                               subject_ids=ids)
        np.testing.assert_allclose(8.0 * res1.phi, res2.phi, atol=1e-12)
        np.testing.assert_allclose(res1.s_tilde, res2.s_tilde, atol=1e-6)


class TestAttributeClass:
    def test_planted_region_dominates(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(60, 6))
        y = 5.0 * x[:, 4] + 0.05 * rng.normal(size=60)
        res = attribute_class(x, y, 3, config=ForestConfig(seed=0),
                              subject_ids=[str(i) for i in range(60)])
        assert int(np.argmax(res.s_tilde)) == 4
        assert res.s_tilde[4] == pytest.approx(1.0, abs=1e-6)
        assert res.class_label == 3
        assert res.phi.shape == (60, 6)
        assert len(res.forest_hash) == 64

    def test_local_accuracy_residual(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(30, 5))
        y = x[:, 1] * x[:, 3] + 0.1 * rng.normal(size=30)
        fc = ForestConfig(n_trees=8, seed=2)
        res = attribute_class(x, y, 0, config=fc,
                              subject_ids=[str(i) for i in range(30)])
        preds = forest_predict(rf_fit(x, y, fc), x)
        assert res.residual == np.abs(res.base_value + res.phi.sum(axis=1)
                                      - preds).max()
        assert res.residual < 1e-8

    def test_subject_ids_carried(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(10, 3))
        y = x[:, 0]
        ids = [f"A{i}" for i in range(10)]
        res = attribute_class(x, y, 1, config=ForestConfig(n_trees=5, seed=0),
                              subject_ids=ids)
        assert res.subject_ids == ids


class TestShapVolume:
    def test_paints_regions(self):
        labels = np.zeros((4, 4, 4), dtype=np.int32)
        labels[:2] = 1
        labels[2:, :2] = 2
        atlas = AtlasMap(labels, region_count=2)
        vol = build_shap_volume([0.3, 0.9], atlas)
        assert vol.voxels.shape == (4, 4, 4)
        assert float(vol.voxels[0, 0, 0]) == pytest.approx(0.3)
        assert float(vol.voxels[3, 0, 0]) == pytest.approx(0.9)
        assert float(vol.voxels[3, 3, 3]) == 0.0  # background label 0

    def test_length_mismatch_raises(self):
        atlas = AtlasMap(np.ones((2, 2, 2), dtype=np.int32), region_count=1)
        with pytest.raises(ShapeError):
            build_shap_volume([0.5, 0.5], atlas)

    def test_range_checked(self):
        atlas = AtlasMap(np.ones((2, 2, 2), dtype=np.int32), region_count=1)
        with pytest.raises(ConfigError):
            build_shap_volume([1.5], atlas)


@pytest.fixture(scope="module")
def odd_grid_model():
    """A cohort on an odd 17x18x19 grid (both decoder output paddings in
    use) and a model trained on it for one epoch."""
    from latentscope.autoencoder import TrainConfig, train
    from latentscope.phantom import PhantomConfig, generate_phantom_cohort

    cohort = generate_phantom_cohort(PhantomConfig(
        dims=(17, 18, 19), region_count=8, class_counts={0: 5, 3: 5},
        effect_spec=[(3, 3, 0.35)], noise_sigma=0.05, smoothness=1.5, seed=11))
    model, _ = train(cohort, TrainConfig(max_epochs=1, patience=1,
                                         batch_size=8, seed=5))
    return cohort, model


def eval_forward_errors(cohort, model, chunk):
    """Reference: per-subject sums of the full eval-mode forward pass, run
    over the same chunks."""
    from latentscope.autoencoder import forward

    errors = {}
    for start in range(0, len(cohort.subjects), chunk):
        part = cohort.subjects[start:start + chunk]
        x = np.stack([s.volume.voxels for s in part]).astype(np.float64)[:, None]
        recon, _, _ = forward(model, x, mode="eval")
        errors.update(zip([s.id for s in part],
                          ((recon - x) ** 2).sum(axis=(1, 2, 3, 4)).tolist()))
    return errors


class TestReconstructionError:
    def test_matches_manual_forward(self, small_cohort, trained_small):
        from latentscope.autoencoder import forward

        model, _ = trained_small
        errors = total_reconstruction_error(small_cohort, model,
                                            bottleneck(model, small_cohort))
        assert set(errors) == set(small_cohort.subject_ids)
        subj = small_cohort.subjects[0]
        x = subj.volume.voxels[None, None]
        recon, _, _ = forward(model, x, mode="eval")
        manual = float(((recon - x) ** 2).sum())
        # batched and single-row convolutions take different BLAS paths, so
        # agreement is to high precision rather than bitwise
        assert errors[subj.id] == pytest.approx(manual, rel=1e-9)

    def test_latent_of_other_row_count_raises(self, small_cohort, trained_small):
        # a short latent would otherwise broadcast one reconstruction
        # against every subject of its chunk
        model, _ = trained_small
        latent = bottleneck(model, small_cohort)
        for rows in (latent[:1], latent[1:], np.concatenate([latent, latent[:1]])):
            with pytest.raises(ShapeError, match="rows"):
                total_reconstruction_error(small_cohort, model, rows)

    def test_chunk_invariance(self, small_cohort, trained_small):
        model, _ = trained_small
        a = total_reconstruction_error(small_cohort, model,
                                       bottleneck(model, small_cohort, 3), chunk=3)
        b = total_reconstruction_error(small_cohort, model,
                                       bottleneck(model, small_cohort, 100), chunk=100)
        assert a == b

    @pytest.mark.parametrize("grid", ["cubic", "odd"])
    @pytest.mark.parametrize("chunk", [3, 8, 100])
    def test_decoder_only_equals_eval_forward_bitwise(
            self, small_cohort, trained_small, odd_grid_model, tmp_path,
            grid, chunk):
        from latentscope.autoencoder import params_hash
        from latentscope.fileio import load_latent, save_latent

        if grid == "cubic":
            cohort, model = small_cohort, trained_small[0]
        else:
            cohort, model = odd_grid_model
        want = eval_forward_errors(cohort, model, chunk)
        # the embed stage's route: the latent through its file
        path = str(tmp_path / "latent.lat")
        save_latent(bottleneck(model, cohort, chunk), params_hash(model), path)
        back, _ = load_latent(path)
        assert total_reconstruction_error(cohort, model, back, chunk=chunk) == want
