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

A row's relation to a leaf with d path features is its pattern code: bit i
is set iff the row satisfies the leaf's interval on feature i. Both terms
above depend only on the codes of x and z, so for each depth d a sign table
of shape (2^d, d, 2^d) holds them once: entry [xc, i, zc] is +wplus[t, q]
when only x satisfies interval i, -wminus[t, q] when only z does, and 0
otherwise or when the leaf is unreachable. The codes of every row for all
leaves of a tree come from one vectorised pass; each leaf then gathers the
table rows of its distinct x codes at the background codes, multiplies by v,
sums over the background and scatters the sums back to the rows, which get
the same bits as if explained alone. At d = 8 the table takes 4 MB; a leaf
with more than MAX_LEAF_FEATURES path features is refused as a
configuration error, since only max_depth > 8 can grow one.

The gather is C-order (P, d, nb) for P distinct codes and nb background
rows, so the sum over the background runs along contiguous memory and numpy
adds each sequence pairwise. That is the order of the per-leaf mask
formulation kept in the tests as the reference, whose broadcast product lies
in (P, d, nb) memory order; a (P, nb, d) gather summed along its middle axis
adds the rows sequentially and changes the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .autoencoder import AEParams, _as_batch_array, decode
from .data import AtlasMap, Cohort, Volume
from .errors import ConfigError, DegenerateInputError, ShapeError
from .forest import ForestConfig, ForestModel, forest_predict, rf_fit

EPSILON = 1e-8
# widest leaf the sign tables cover: 4 MB of table at 8 path features
MAX_LEAF_FEATURES = 8


def total_reconstruction_error(cohort: Cohort, model: AEParams, latent: np.ndarray,
                               chunk: int = 8) -> dict[str, float]:
    """Per-subject sum of squared voxel differences under the trained model.

    Evaluation mode (running batch-norm statistics); values are keyed by
    subject id so they survive reordering. `latent` holds the subjects'
    bottleneck activations in cohort order (`ActivationSet.latent()`, as the
    embed stage writes them to `latent.lat`), so only the decoder runs; a
    row count other than the cohort's is a ShapeError. Volumes are read one
    chunk at a time.
    """
    subjects = cohort.subjects
    if len(latent) != len(subjects):
        raise ShapeError(f"latent has {len(latent)} rows for {len(subjects)} subjects")
    errors: dict[str, float] = {}
    for start in range(0, len(subjects), chunk):
        part = subjects[start:start + chunk]
        x = _as_batch_array([s.volume for s in part])
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


def _sign_table(d: int, wplus: np.ndarray, wminus: np.ndarray) -> np.ndarray:
    """(2^d, d, 2^d) signed weights of pattern codes xc, interval i, zc."""
    bits = ((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1).astype(bool)
    xb, zb = bits[:, None, :], bits[None, :, :]
    only_x, only_z = xb & ~zb, ~xb & zb
    t, q = only_x.sum(axis=2), only_z.sum(axis=2)
    live = (xb | zb).all(axis=2)
    plus = np.where(live, wplus[t, q], 0.0)[..., None]
    minus = np.where(live, wminus[t, q], 0.0)[..., None]
    table = np.where(only_x, plus, np.where(only_z, -minus, 0.0))
    return np.ascontiguousarray(table.transpose(0, 2, 1))


def _pattern_codes(leaves, rows: np.ndarray) -> np.ndarray:
    """(n, leaves) pattern code of every row in every leaf of one tree."""
    width = max(feats.size for _, feats, _, _ in leaves)
    feats = np.zeros((len(leaves), width), dtype=np.intp)
    lows = np.full((len(leaves), width), np.inf)  # padding: never satisfied
    highs = np.full((len(leaves), width), np.inf)
    for j, (_, f, lo, hi) in enumerate(leaves):
        feats[j, :f.size], lows[j, :f.size], highs[j, :f.size] = f, lo, hi
    vals = rows[:, feats]
    return ((vals > lows) & (vals <= highs)) @ (1 << np.arange(width))


def shap_values(model: ForestModel, x, background):
    """Interventional SHAP values for every row of x.

    Returns (phi, base) with phi of shape (n, feature_count) and base the
    mean forest prediction over the background rows; for every row,
    base + phi.sum() equals the forest prediction exactly up to float error.
    Raises ConfigError for a leaf with more than MAX_LEAF_FEATURES path
    features.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    bg = np.atleast_2d(np.asarray(background, dtype=np.float64))
    m = model.feature_count
    if x.shape[1] != m or bg.shape[1] != m:
        raise ShapeError(
            f"feature count mismatch: model {m}, x {x.shape[1]}, background {bg.shape[1]}")
    if bg.shape[0] == 0:
        raise DegenerateInputError("SHAP needs a non-empty background set")

    # a leaf without path features is reachable under every coalition: no
    # marginal effect
    trees = [[leaf for leaf in tree.leaf_boxes() if leaf[1].size]
             for tree in model.trees]
    depths = {leaf[1].size for leaves in trees for leaf in leaves}
    kmax = max(depths, default=0)
    if kmax > MAX_LEAF_FEATURES:
        raise ConfigError(
            f"a leaf constrains {kmax} features, but exact SHAP supports at "
            f"most {MAX_LEAF_FEATURES}; set shap.max_depth to "
            f"{MAX_LEAF_FEATURES} or less")
    wplus, wminus = _shap_weight_tables(m, kmax)
    tables = {d: _sign_table(d, wplus, wminus) for d in depths}

    phi = np.zeros((x.shape[0], m))
    for leaves in trees:
        if not leaves:
            continue
        x_codes = _pattern_codes(leaves, x)
        bg_codes = x_codes if bg is x else _pattern_codes(leaves, bg)
        # per leaf: which codes occur among the x rows, and each row's rank
        # among them
        present = np.zeros((len(leaves), 2 ** kmax), dtype=bool)
        leaf_ix = np.arange(len(leaves))
        present[leaf_ix, x_codes] = True
        rank = (present.cumsum(axis=1) - 1)[leaf_ix, x_codes]
        for (v, feats, _, _), here, z, r in zip(leaves, present, bg_codes.T,
                                                 rank.T):
            contrib = np.take(tables[feats.size][np.flatnonzero(here)], z, axis=2)
            contrib *= v
            phi[:, feats] += contrib.sum(axis=2)[r]
    phi /= model.n_trees * bg.shape[0]
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


def attribute_class(values: np.ndarray, targets, class_label: int,
                    config: ForestConfig | None = None, *,
                    subject_ids: list[str]) -> ShapResult:
    """Fit the class forest on the profile rows `values` of the subjects
    `subject_ids` and explain every subject against those rows as
    background; `residual` checks the explanation's local accuracy against
    the forest's own predictions."""
    values = np.asarray(values, dtype=np.float64)
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


def build_shap_volume(s_tilde, atlas: AtlasMap) -> Volume:
    """Paint s_tilde_r across each region's voxels; background (label 0)
    stays 0. The atlas labels are the only mask applied."""
    s_tilde = np.asarray(s_tilde, dtype=np.float64)
    if s_tilde.ndim != 1 or s_tilde.size != atlas.region_count:
        raise ShapeError(
            f"importance length {s_tilde.shape} does not match {atlas.region_count} regions")
    if np.any(s_tilde < 0) or np.any(s_tilde > 1):
        raise ConfigError("normalized importances must lie in [0, 1]")
    lookup = np.concatenate([[0.0], s_tilde])
    return Volume(lookup[atlas.labels].astype(np.float32))
