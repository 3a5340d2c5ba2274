"""Shared fixtures: small phantom cohorts, a trained desk-scale model, and
the session-wide pipeline run reused by the acceptance tests."""

import warnings

import numpy as np
import pytest

from latentscope.autoencoder import TrainConfig, extract_activations, train
from latentscope.config import study_config
from latentscope.phantom import PhantomConfig, generate_phantom_cohort
from latentscope.pipeline import run_all


def two_clusters(seed: int, n_per: int = 10, d: int = 5, sep: float = 10.0):
    """Two Gaussian clusters whose centroids are sep standard deviations apart
    (total Euclidean separation, spread evenly over the d axes)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, d))
    b = rng.normal(0.0, 1.0, size=(n_per, d)) + sep / np.sqrt(d)
    return np.vstack([a, b])


def cluster_margin(values: np.ndarray, n_per: int = 10) -> float:
    """Worst-case margin of the centroid-difference projection: positive iff
    the two clusters are linearly separable along that direction."""
    va, vb = values[:n_per], values[n_per:]
    w = vb.mean(axis=0) - va.mean(axis=0)
    return float((vb @ w).min() - (va @ w).max())


def _ref_center(x):
    """(x - mean, mean) over the whole array: the centring the embedding
    methods apply to each column block."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    return x - mean, mean


def _ref_standardize(x):
    """(standardized, mean, scale, n_degenerate) over the whole array:
    z-scores, with a feature whose sigma is below `SIGMA_GUARD` left
    centred (scale 1)."""
    from latentscope.embedding.common import SIGMA_GUARD

    xc, mean = _ref_center(x)
    sigma = xc.std(axis=0)
    degenerate = sigma < SIGMA_GUARD
    scale = np.where(degenerate, 1.0, sigma)
    return xc / scale, mean, scale, int(degenerate.sum())


def bottleneck(model, cohort, chunk: int = 8) -> np.ndarray:
    """The cohort's bottleneck activations under `model`, extracted `chunk`
    subjects at a time: the latent the reconstruction error decodes."""
    with extract_activations(model, cohort, batch_size=chunk, layers=()) as acts:
        return acts.latent()


# The exact headers of lrcp/grid.csv and lrcp/summary.csv.
LRCP_GRID_COLUMNS = ["comparison", "method", "layer", "component", "region", "n",
                     "r", "p", "emp_error", "corr_error", "category"]
LRCP_SUMMARY_COLUMNS = ["comparison", "method", "layer", "component",
                        "significant", "non_significant"]


@pytest.fixture(scope="session")
def small_cohort():
    cfg = PhantomConfig(dims=(16, 16, 16), region_count=8,
                        class_counts={0: 12, 3: 12},
                        effect_spec=[(3, 3, 0.35)],
                        noise_sigma=0.05, smoothness=1.5, seed=11)
    return generate_phantom_cohort(cfg)


@pytest.fixture(scope="session")
def trained_small(small_cohort):
    cfg = TrainConfig(loss_kind="mse", max_epochs=2, patience=2,
                      batch_size=8, seed=5)
    model, report = train(small_cohort, cfg)
    return model, report


@pytest.fixture(scope="session")
def study_run(tmp_path_factory):
    """One full pipeline run of the study configuration, shared by the
    acceptance tests (attribution exactness, LRCP pattern, determinism)."""
    out = tmp_path_factory.mktemp("study")
    cfg = study_config(0, str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_all(cfg, str(out))
    return cfg, out
