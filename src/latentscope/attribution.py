"""Region attribution: forests from region profiles to reconstruction error,
exact interventional Shapley values, and normalized importance maps.

The Shapley computation is exact, not sampled. For one tree, one explained
row x and one background row z, a leaf is reachable under coalition S iff
every path feature that only x satisfies is in S (set T) and every path
feature that only z satisfies is not (set Z); leaves where some path feature
satisfies neither are unreachable for all S and drop out. Summing the classic
permutation weights over the unconstrained features gives, with t = |T|,
q = |Z| and m total features:

    i in T:  phi_i += v * sum_j C(m-t-q, j) (t-1+j)! (m-t-j)! / m!
    i in Z:  phi_i -= v * sum_j C(m-t-q, j) (t+j)! (m-t-1-j)! / m!

evaluated exactly in rational arithmetic. Averaging over the background rows
yields interventional SHAP values satisfying local accuracy to float
precision.

Within a leaf, an explained row's terms depend only on which path intervals
it satisfies (its pattern): they are built once per distinct pattern and the
sums scattered back to the rows, which get the same bits as if alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .autoencoder import AEParams, _as_batch_array, decode, extract_activations
from .data import AtlasMap, Cohort, Volume
from .errors import ConfigError, DegenerateInputError, ShapeError
from .forest import ForestConfig, ForestModel, forest_predict, rf_fit

EPSILON = 1e-8


def total_reconstruction_error(cohort: Cohort, model: AEParams, chunk: int = 8,
                               latent: np.ndarray | None = None) -> dict[str, float]:
    """Per-subject sum of squared voxel differences under the trained model.

    Evaluation mode (running batch-norm statistics); values are keyed by
    subject id so they survive reordering. `latent` holds the subjects'
    bottleneck activations in cohort order (`ActivationSet.latent()`, as the
    embed stage writes them), so only the decoder runs; when omitted, the
    encoder computes them first.
    """
    if latent is None:
        latent = extract_activations(model, cohort, batch_size=chunk).latent()
    errors: dict[str, float] = {}
    subjects = cohort.subjects
    for start in range(0, len(subjects), chunk):
        part = subjects[start:start + chunk]
        x = _as_batch_array([s.volume.voxels for s in part])
        recon = decode(model, latent[start:start + chunk], x.shape[2:])
        per = ((recon - x) ** 2).sum(axis=(1, 2, 3, 4))
        for subj, err in zip(part, per):
            errors[subj.id] = float(err)
    return errors


def _shap_weight_tables(m: int, kmax: int):
    """Exact coalition-weight sums for t in T (plus) and i in Z (minus)."""
    wplus = np.zeros((kmax + 1, kmax + 1))
    wminus = np.zeros((kmax + 1, kmax + 1))
    fact_m = factorial(m)
    for t in range(kmax + 1):
        for q in range(kmax + 1 - t):
            free = m - t - q  # >= 0: path features are distinct, so kmax <= m
            if t >= 1:
                num = sum(comb(free, j) * factorial(t - 1 + j) * factorial(m - t - j)
                          for j in range(free + 1))
                wplus[t, q] = float(Fraction(num, fact_m))
            if q >= 1:
                num = sum(comb(free, j) * factorial(t + j) * factorial(m - t - 1 - j)
                          for j in range(free + 1))
                wminus[t, q] = float(Fraction(num, fact_m))
    return wplus, wminus


def shap_values(model: ForestModel, x, background):
    """Interventional SHAP values for every row of x.

    Returns (phi, base) with phi of shape (n, feature_count) and base the
    mean forest prediction over the background rows; for every row,
    base + phi.sum() equals the forest prediction exactly up to float error.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    bg = np.atleast_2d(np.asarray(background, dtype=np.float64))
    m = model.feature_count
    if x.shape[1] != m or bg.shape[1] != m:
        raise ShapeError(
            f"feature count mismatch: model {m}, x {x.shape[1]}, background {bg.shape[1]}")
    if bg.shape[0] == 0:
        raise DegenerateInputError("SHAP needs a non-empty background set")

    leaves = [leaf for tree in model.trees for leaf in tree.leaf_boxes()]
    wplus, wminus = _shap_weight_tables(m, max(leaf[1].size for leaf in leaves))

    n, nb = x.shape[0], bg.shape[0]
    phi = np.zeros((n, m))
    for v, feats, lows, highs in leaves:
        if feats.size == 0:
            continue  # reachable under every coalition: no marginal effect
        x_ok = (x[:, feats] > lows) & (x[:, feats] <= highs)
        z_ok = (bg[:, feats] > lows) & (bg[:, feats] <= highs)
        packed = np.packbits(x_ok, axis=1)
        key = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        x_ok = x_ok[first]  # one row per distinct pattern
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
    phi /= model.n_trees * nb
    base = float(forest_predict(model, bg).mean())
    return phi, base


def shap_region_importance(phi):
    """Mean-|SHAP| per region and its min-max normalization.

    Returns (s, s_tilde, flags). When all regions carry equal importance the
    normalized values collapse to zero and the result is flagged.
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
    if phi.shape[0] < 1:
        raise DegenerateInputError("importance needs at least one subject")
    s = np.abs(phi).mean(axis=0)
    spread = s.max() - s.min()
    s_tilde = (s - s.min()) / (spread + EPSILON)
    flags = [] if spread > 0 else ["uniform_importance"]
    return s, s_tilde, flags


@dataclass
class ShapResult:
    class_label: int
    subject_ids: list[str]
    phi: np.ndarray  # (n_subjects, R)
    base_value: float
    s: np.ndarray  # (R,) mean |phi|
    s_tilde: np.ndarray  # (R,) normalized importance
    forest_hash: str
    residual: float  # local accuracy: max |base + sum(phi) - forest(x)|
    flags: list[str] = field(default_factory=list)


def attribute_class(profiles, targets, class_label: int,
                    config: ForestConfig | None = None,
                    subject_ids=None) -> ShapResult:
    """Fit the class forest and explain every subject against the class
    profiles as background; `residual` checks the explanation's local
    accuracy against the forest's own predictions."""
    values = np.asarray(getattr(profiles, "values", profiles), dtype=np.float64)
    if subject_ids is None:
        subject_ids = list(getattr(profiles, "subject_ids", [str(i) for i in range(values.shape[0])]))
    model = rf_fit(values, targets, config)
    phi, base = shap_values(model, values, values)
    s, s_tilde, flags = shap_region_importance(phi)
    residual = np.abs(base + phi.sum(axis=1) - forest_predict(model, values)).max()
    return ShapResult(
        class_label=class_label,
        subject_ids=list(subject_ids),
        phi=phi,
        base_value=base,
        s=s,
        s_tilde=s_tilde,
        forest_hash=model.forest_hash(),
        residual=float(residual),
        flags=flags,
    )


def build_shap_volume(s_tilde, atlas: AtlasMap, gm_mask: Volume | None = None) -> Volume:
    """Paint s_tilde_r across each region's voxels; background stays 0."""
    s_tilde = np.asarray(s_tilde, dtype=np.float64)
    if s_tilde.ndim != 1 or s_tilde.size != atlas.region_count:
        raise ShapeError(
            f"importance length {s_tilde.shape} does not match {atlas.region_count} regions")
    if np.any(s_tilde < 0) or np.any(s_tilde > 1):
        raise ConfigError("normalized importances must lie in [0, 1]")
    lookup = np.concatenate([[0.0], s_tilde])
    painted = lookup[atlas.labels]
    if gm_mask is not None:
        if gm_mask.voxels.shape != atlas.labels.shape:
            raise ShapeError(
                f"mask dims {gm_mask.voxels.shape} do not match atlas {atlas.labels.shape}")
        painted = painted * gm_mask.voxels.astype(np.float64)
    return Volume(painted.astype(np.float32))
