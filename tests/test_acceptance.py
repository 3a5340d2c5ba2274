"""Acceptance suite: twelve end-to-end guarantees, one pass/fail line each.

Each test prints `criterion NN <label>: PASS` (or FAIL) so a plain pytest -s
run doubles as a checklist. The heavyweight checks share the session-scoped
pipeline run and trained model from conftest."""

import time
import warnings
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from latentscope.attribution import (attribute_class, shap_values,
                                     total_reconstruction_error)
from latentscope.autoencoder import (LayerSpec, TrainConfig, forward,
                                     init_params, loss_and_gradients,
                                     loss_value, train)
from latentscope.config import config_hash, study_config
from latentscope.data import balanced_subset, build_region_profiles
from latentscope.embedding.common import pairwise_sq_dists
from latentscope.embedding.pca import pca_fit_transform
from latentscope.embedding.tsne import (conditional_probabilities,
                                        perplexity_of, tsne_embed)
from latentscope.embedding.umap import fuzzy_graph, umap_embed
from latentscope.fileio import load_cohort, read_table
from latentscope.forest import ForestConfig, forest_predict, rf_fit
from latentscope.lrcp import CATEGORIES, lrcp_grid, summary_counts
from latentscope.phantom import PhantomConfig, generate_phantom_cohort
from latentscope.pipeline import _load_all_embeddings, run_all
from latentscope.regionstats import critical_r, pearson, pearson_pvalue
from latentscope.seeds import derive_seed
from latentscope.validation import (concentration_bound, cubv_corrected_error,
                                    sar_relevance)

from conftest import (LRCP_GRID_COLUMNS, LRCP_SUMMARY_COLUMNS, cluster_margin,
                      two_clusters)
from test_attribution import brute_force_shap, small_forest
from test_pipeline import tree_bytes


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    print(f"criterion {num:02d} {label}: PASS")


def test_01_shape_fidelity():
    with criterion(1, "latent grid and reconstruction shapes"):
        model = init_params(seed=0)
        x = np.random.default_rng(0).uniform(size=(1, 1, 121, 145, 121))
        recon, acts, _ = forward(model, x, mode="eval")
        assert acts[2].shape == (1, 64, 16, 19, 16)
        assert recon.shape == (1, 1, 121, 145, 121)


def test_02_gradient_correctness():
    with criterion(2, "backprop matches central finite differences"):
        rng = np.random.default_rng(3)
        # two-level toy net: 6^3 only admits two stride-2 halvings
        layers = [
            LayerSpec("conv3d", 1, 4, "relu", True),
            LayerSpec("conv3d", 4, 8, "relu", True),
            LayerSpec("conv_transpose3d", 8, 4, "relu", True),
            LayerSpec("conv_transpose3d", 4, 1, "sigmoid", False),
        ]
        model = init_params(seed=3, layers=layers)
        batch = rng.uniform(0.2, 0.8, size=(2, 1, 6, 6, 6))
        target = rng.uniform(0.2, 0.8, size=(2, 1, 6, 6, 6))
        _, grads, _ = loss_and_gradients(model, batch, target, "mse",
                                         mode="train")

        def loss_at():
            recon, _, _ = forward(model, batch, mode="train")
            return loss_value(recon, target, "mse")

        items = list(model.trainable_items())
        checked = 0
        for t in range(200):
            i, name, arr = items[t % len(items)]
            idx = int(rng.integers(arr.size))
            analytic = float(grads[(i, name)].flat[idx])
            old = float(arr.flat[idx])
            eps = 1e-4 * max(1.0, abs(old))
            arr.flat[idx] = old + eps
            plus = loss_at()
            arr.flat[idx] = old - eps
            minus = loss_at()
            arr.flat[idx] = old
            fd = (plus - minus) / (2.0 * eps)
            if abs(fd) < 1e-7 and abs(analytic) < 1e-7:
                continue  # no usable signal through this parameter here
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd))
            assert rel < 1e-4, (i, name, idx, analytic, fd)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


def test_03_reconstruction_at_desk_scale():
    with criterion(3, "low-noise cohort trains below 0.01 loss"):
        cfg = PhantomConfig(dims=(32, 32, 32), region_count=16,
                            class_counts={0: 30, 1: 30, 2: 30, 3: 30},
                            noise_sigma=0.01, smoothness=2.0, seed=11)
        cohort = generate_phantom_cohort(cfg)
        start = time.monotonic()
        _, report = train(cohort, TrainConfig(loss_kind="mse", max_epochs=3,
                                              patience=3, batch_size=8,
                                              seed=0))
        assert time.monotonic() - start < 300.0
        assert len(report.epoch_losses) <= 10
        assert min(report.epoch_losses) < 0.01


def test_04_pearson_threshold():
    with criterion(4, "critical correlation at n=300"):
        crit = critical_r(300, alpha=0.05)
        assert abs(crit - 0.1133) <= 0.002
        assert pearson_pvalue(crit, 300) == pytest.approx(0.05, abs=1e-6)
        assert abs(0.11 ** 2 - 0.0121) <= 1e-4


def test_05_null_calibration():
    with criterion(5, "false-positive rates on null data"):
        rng = np.random.default_rng(2024)
        trials = 1000
        fp = 0
        sar_hits = 0
        for _ in range(trials):
            x = rng.normal(size=300)
            y = rng.normal(size=300)
            if pearson_pvalue(pearson(x, y), 300) < 0.05:
                fp += 1
            if sar_relevance(x, y, delta=0.05).relevant:
                sar_hits += 1
        assert 0.03 <= fp / trials <= 0.07
        assert sar_hits / trials <= 0.01


def test_06_bound_arithmetic():
    with criterion(6, "concentration bound values and significance flip"):
        assert concentration_bound(100, 0.05, 1.0) == pytest.approx(
            0.12239, abs=1e-5)
        for n, complexity in ((10, 1.0), (100, 2.0), (1000, 7.5)):
            assert concentration_bound(n, 1.0, complexity) == 0.0
        psi = concentration_bound(100, 0.05)
        at_half = cubv_corrected_error(0.5 - psi, n=100)
        assert at_half.corrected == pytest.approx(0.5, abs=1e-12)
        assert at_half.significant is False
        below = cubv_corrected_error(0.5 - psi - 1e-6, n=100)
        assert below.significant is True


def test_07_shap_exactness(small_cohort, trained_small):
    with criterion(7, "exact Shapley values and local accuracy"):
        cases = ((5, 5, 3, 0, 10), (8, 6, 4, 2, 16), (4, 8, 5, 3, 16))
        for m, n_trees, depth, seed, n_bg in cases:
            model, x, _ = small_forest(m=m, n=60, seed=seed, n_trees=n_trees,
                                       max_depth=depth)
            bg = x[:n_bg]
            rows = x[20:23]
            phi, base = shap_values(model, rows, bg)
            assert base == pytest.approx(
                float(forest_predict(model, bg).mean()), abs=1e-12)
            for row, phi_row in zip(rows, phi):
                np.testing.assert_allclose(
                    phi_row, brute_force_shap(model, row, bg), atol=1e-8)

        # local accuracy for every subject of a full phantom attribution
        ae_model, _ = trained_small
        errors = total_reconstruction_error(small_cohort, ae_model)
        profiles = build_region_profiles(small_cohort)
        labels = np.asarray(small_cohort.class_labels)
        ids = np.asarray(profiles.subject_ids)
        for label in (0, 3):
            mask = labels == label
            class_ids = [str(s) for s in ids[mask]]
            targets = np.array([errors[s] for s in class_ids])
            fc = ForestConfig(seed=int(label))
            res = attribute_class(profiles.values[mask], targets, label,
                                  config=fc, subject_ids=class_ids)
            refit = rf_fit(profiles.values[mask], targets, fc)
            assert refit.forest_hash() == res.forest_hash
            preds = forest_predict(refit, profiles.values[mask])
            np.testing.assert_allclose(res.base_value + res.phi.sum(axis=1),
                                       preds, atol=1e-8)


def test_08_shap_ground_truth_recovery():
    with criterion(8, "planted region ranks first in >= 8/10 runs"):
        hits = 0
        for seed in range(10):
            cfg = PhantomConfig(dims=(32, 32, 32), region_count=16,
                                class_counts={0: 40, 1: 20, 3: 20},
                                effect_spec=[(5, 1, 0.2), (5, 3, 0.4)],
                                noise_sigma=0.05, smoothness=2.0, seed=seed)
            cohort = generate_phantom_cohort(cfg)
            normals = balanced_subset(cohort, {0}, seed=seed)
            model, _ = train(normals, TrainConfig(loss_kind="mse",
                                                  max_epochs=5, patience=5,
                                                  batch_size=8, seed=seed))
            errors = total_reconstruction_error(cohort, model)
            profiles = build_region_profiles(cohort)
            labels = np.asarray(cohort.class_labels)
            mask = labels >= 1
            ids = [str(s) for s in np.asarray(profiles.subject_ids)[mask]]
            targets = np.array([errors[s] for s in ids])
            res = attribute_class(profiles.values[mask], targets, 3,
                                  config=ForestConfig(seed=seed),
                                  subject_ids=ids)
            top = int(profiles.region_ids[int(np.argmax(res.s_tilde))])
            hits += int(top == 5)
        assert hits >= 8


def test_09_projection_correctness():
    with criterion(9, "embeddings match oracles and separate clusters"):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 50))
        model, _ = pca_fit_transform(x, k=50)
        xc = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(xc.T @ xc / (x.shape[0] - 1))
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order].T
        np.testing.assert_allclose(model.eigenvalues, evals, atol=1e-8)
        for i in range(49):  # centering leaves rank 49; last axis is padding
            agreement = abs(float(evecs[i] @ model.components[i]))
            assert agreement == pytest.approx(1.0, abs=1e-8)

        data = rng.normal(size=(200, 10))
        p = conditional_probabilities(pairwise_sq_dists(data), 30.0)
        for row in p:
            assert perplexity_of(row) == pytest.approx(30.0, abs=1e-3)

        weights, _ = fuzzy_graph(pairwise_sq_dists(data[:60]), n_neighbors=10)
        np.testing.assert_array_equal(weights, weights.T)

        for seed in range(10):
            values = two_clusters(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                emb_t = tsne_embed(values, dims=3, seed=seed)
                emb_u = umap_embed(values, dims=3, n_neighbors=15,
                                   epochs=300, seed=seed)
            assert cluster_margin(emb_t.values) > 0, ("tsne", seed)
            assert cluster_margin(emb_u.values) > 0, ("umap", seed)


def test_10_lrcp_discriminative_pattern(study_run):
    with criterion(10, "shifted class dominates; permutation collapses"):
        cfg, out = study_run
        rows = read_table(str(out / "lrcp" / "summary.csv"), LRCP_SUMMARY_COLUMNS)

        by_slice = Counter()
        by_cell = {}
        for r in rows:
            by_slice[(r["comparison"], r["layer"], r["component"])] += int(
                r["significant"])
            by_cell[(r["comparison"], r["method"], r["layer"],
                     r["component"])] = int(r["significant"])
        layers = ("L1", "L2", "L3")
        components = ("0", "1", "2")
        for layer in layers:
            for comp in components:
                ad = by_slice[("NOR_AD", layer, comp)]
                mci = by_slice[("NOR_MCI", layer, comp)]
                assert ad > mci, (layer, comp, ad, mci)
        # the unsupervised methods also dominate slice by slice on their own
        for method in ("pca", "tsne", "umap"):
            for layer in layers:
                for comp in components:
                    ad = by_cell[("NOR_AD", method, layer, comp)]
                    mci = by_cell[("NOR_MCI", method, layer, comp)]
                    assert ad > mci, (method, layer, comp, ad, mci)

        true_total = sum(int(r["significant"]) for r in rows)
        cohort = load_cohort(str(out / "generate" / "cohort"))
        embeddings = _load_all_embeddings(out, cfg, cohort)
        profiles = build_region_profiles(cohort)
        labels = np.asarray(cohort.class_labels)
        permuted = labels[np.random.default_rng(99).permutation(len(labels))]
        grid = lrcp_grid(embeddings, profiles, permuted,
                         [("NOR_AD", (0, 3)), ("NOR_MCI", (0, 1))],
                         bound=cfg.bound, seed=derive_seed(cfg.seed, "lrcp"),
                         quadratic=cfg.quadratic)
        perm_total = sum(sig for sig, _ in summary_counts(grid).values())
        n_cells = len(grid.cells)
        assert perm_total <= 0.05 * n_cells, (perm_total, n_cells)
        assert true_total > 10 * perm_total, (true_total, perm_total)


def test_11_four_case_partition(study_run):
    with criterion(11, "one category per cell; counts sum to region count"):
        _, out = study_run
        rows = read_table(str(out / "lrcp" / "grid.csv"), LRCP_GRID_COLUMNS)
        assert len(rows) == 2 * 4 * 3 * 3 * 32
        assert all(r["category"] in CATEGORIES for r in rows)
        cells = [(r["comparison"], r["method"], r["layer"], r["component"],
                  r["region"]) for r in rows]
        assert len(set(cells)) == len(cells)
        per_slice = Counter(key[:4] for key in cells)
        assert set(per_slice.values()) == {32}
        summary = read_table(str(out / "lrcp" / "summary.csv"),
                             LRCP_SUMMARY_COLUMNS)
        assert len(summary) == 2 * 4 * 3 * 3
        for r in summary:
            assert int(r["significant"]) + int(r["non_significant"]) == 32


def test_12_determinism(study_run, tmp_path_factory):
    with criterion(12, "same-seed rerun is byte-identical"):
        cfg, out = study_run
        again = tmp_path_factory.mktemp("study_again")
        cfg2 = study_config(0, str(again))
        assert config_hash(cfg2) == config_hash(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_all(cfg2, str(again))
        first, second = tree_bytes(out / "report"), tree_bytes(again / "report")
        assert sorted(first) == sorted(second)
        assert [k for k in first if first[k] != second[k]] == []
        # the guarantee extends to every artifact, not just the report
        assert tree_bytes(out) == tree_bytes(again)
