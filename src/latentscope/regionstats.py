"""Pearson correlation between embedding components and region mean intensities.

Correlations are exact-sample Pearson r with two-tailed p-values from the
Student-t distribution (regularized incomplete beta, no normal approximation),
optionally stratified by class. Top-N tables are ranked by max |r| per region
and overlap reports intersect those sets across group comparisons.

A `CorrelationTable` holds one (method, layer) as one structured array
(`ROW_DTYPE`) of shape (class group, component, region), so its flat order
runs region fastest: the pooled group first, then each class in label
order. Each row also carries SAR's two data terms (model and baseline MAE,
see `validation.sar_relevance`), which do not depend on delta, so
`validation.correct_table` needs no input vectors.

One private kernel, `_block`, computes r, p and the SAR terms for a whole
(component x region) block of one group. `pearson`, `pearson_pvalue`,
`validation.sar_relevance` and `lrcp` all go through it. Its forms keep the
bits of the 1-D formulas: every mean and every MAE is reduced along a
C-contiguous last axis (numpy's pairwise sum, as for a 1-D vector), and
every cross product is one `np.vecdot` over contiguous rows (the BLAS dot
of a 1-D `@`). A matrix product (`xd @ yd.T`) or a reduction over the
subject axis of an n x k matrix would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .data import CLASS_NAMES
from .errors import ConfigError, DegenerateInputError, ShapeError

POOLED = "pooled"
ALPHA = 0.05  # the two-tailed p-value threshold of every correlation verdict

ROW_DTYPE = np.dtype([("component", np.int64), ("region", np.int64),
                      ("class_label", "U20"), ("n", np.int64), ("r", np.float64),
                      ("r_squared", np.float64), ("p_value", np.float64),
                      ("flag", "U9"),  # "", "undefined" or "too_few"
                      ("model_mae", np.float64), ("baseline_mae", np.float64)])


class _Block(NamedTuple):
    r: np.ndarray  # (C, R); NaN where either input is constant
    p: np.ndarray  # (C, R)
    sxx: np.ndarray  # (C,) sum of squared component deviations
    slope: np.ndarray  # (C, R) least-squares line of region on component;
    intercept: np.ndarray  # (C, R) slope 0 where sxx == 0
    model_mae: np.ndarray  # (C, R) MAE of that line
    baseline_mae: np.ndarray  # (R,) MAE of the region mean


def _pvalues(r, n: int):
    """Two-tailed p-values of correlations r at sample size n; NaN stays NaN.

    t = r * sqrt((n-2) / (1-r^2)) follows Student-t with n-2 dof under the
    null; the two-tailed tail mass is I_{v/(v+t^2)}(v/2, 1/2) with v = n - 2.
    """
    nu = n - 2
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus_r2 = (1.0 - r) * (1.0 + r)
        p = betainc(nu / 2.0, 0.5, nu / (nu + r * r * nu / one_minus_r2))
    return np.where(one_minus_r2 <= 1e-15, 0.0, p)


def _row_means(rows: np.ndarray) -> np.ndarray:
    """Mean of each row; a row of one repeated value has that value as its
    mean, so its deviations are exactly zero and it counts as constant. The
    sum can miss such a mean (twelve 0.1s sum to 1.2000000000000002), which
    would give deviations of about 1e-17 and a finite r."""
    return np.where(np.ptp(rows, axis=1) == 0.0, rows[:, 0], rows.mean(axis=1))


def _block(x: np.ndarray, y: np.ndarray) -> _Block:
    """Pearson and SAR terms of every column of x (n x C) against every
    column of y (n x R); see the module docstring for the forms it keeps."""
    xt = np.ascontiguousarray(x.T, dtype=np.float64)
    yt = np.ascontiguousarray(y.T, dtype=np.float64)
    x_mean = _row_means(xt)
    y_mean = _row_means(yt)
    xd = xt - x_mean[:, None]
    yd = yt - y_mean[:, None]
    sxx = np.vecdot(xd, xd)
    syy = np.vecdot(yd, yd)
    sxy = np.vecdot(xd[:, None], yd)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(sxy / (np.sqrt(sxx)[:, None] * np.sqrt(syy)), -1.0, 1.0)
        slope = sxy / sxx[:, None]
    r[(sxx == 0.0)[:, None] | (syy == 0.0)] = np.nan
    slope[sxx == 0.0] = 0.0
    intercept = y_mean - slope * x_mean[:, None]
    fit = slope[..., None] * xt[:, None] + intercept[..., None]
    return _Block(r=r, p=_pvalues(r, xt.shape[1]), sxx=sxx, slope=slope,
                  intercept=intercept, model_mae=np.abs(yt - fit).mean(axis=-1),
                  baseline_mae=np.abs(yd).mean(axis=-1))


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient.

    Raises DegenerateInputError when either input is constant, rather than
    silently returning 0: a constant region mean in a phantom cohort is a
    generator bug worth surfacing.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"pearson needs equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 3:
        raise DegenerateInputError(f"pearson needs n >= 3, got {x.size}")
    r = _block(x[:, None], y[:, None]).r[0, 0]
    if np.isnan(r):
        raise DegenerateInputError("correlation undefined for constant input")
    return float(r)


def pearson_pvalue(r: float, n: int) -> float:
    """Two-tailed p-value for a sample correlation r at sample size n."""
    if n < 3:
        raise DegenerateInputError(f"p-value needs n >= 3, got {n}")
    if abs(r) > 1.0:
        raise ConfigError(f"|r| must be <= 1, got {r}")
    return float(_pvalues(np.float64(r), n))


def critical_r(n: int, alpha: float = ALPHA) -> float:
    """Smallest |r| reaching two-tailed significance alpha at sample size n."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pearson_pvalue(mid, n) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class CorrelationTable:
    method: str
    layer: str
    rows: np.ndarray  # ROW_DTYPE, shape (class group, component, region)

    def __len__(self) -> int:
        return self.rows.size


def correlate_embedding_regions(embedding, profiles, labels=None,
                                stratify: bool = False) -> CorrelationTable:
    """Correlate every embedding component with every region mean.

    Rows of the embedding and the profile matrix must describe the same
    subjects in the same order. Produces pooled results always and per-class
    results when stratify is set; classes with fewer than 3 subjects yield
    flagged "too_few" rows instead of correlations, and a constant input
    yields "undefined" rows.
    """
    if list(embedding.subject_ids) != list(profiles.subject_ids):
        raise ShapeError("embedding and profile subject orders differ")
    emb = embedding.values
    prof = profiles.values
    if emb.shape[0] != prof.shape[0]:
        raise ShapeError(
            f"row count mismatch: {emb.shape[0]} embeddings vs {prof.shape[0]} profiles")
    if stratify and labels is None:
        raise ConfigError("stratified correlation needs class labels")

    groups = [(POOLED, np.ones(emb.shape[0], dtype=bool))]
    if stratify:
        labels = np.asarray(labels)
        if labels.shape[0] != emb.shape[0]:
            raise ShapeError("label count does not match row count")
        groups += [(CLASS_NAMES.get(label, str(label)), labels == label)
                   for label in sorted(set(int(v) for v in labels))]

    rows = np.zeros((len(groups), emb.shape[1], prof.shape[1]), dtype=ROW_DTYPE)
    rows["component"] = np.arange(emb.shape[1])[:, None]
    rows["region"] = profiles.region_ids
    for cells, (name, mask) in zip(rows, groups):
        n = int(mask.sum())
        cells["class_label"] = name
        cells["n"] = n
        if n < 3:
            cells["flag"] = "undefined" if name == POOLED else "too_few"
            for field in ("r", "r_squared", "p_value", "model_mae", "baseline_mae"):
                cells[field] = np.nan
            continue
        block = _block(emb[mask], prof[mask])
        cells["r"] = block.r
        cells["r_squared"] = block.r * block.r
        cells["p_value"] = block.p
        cells["model_mae"] = block.model_mae
        cells["baseline_mae"] = block.baseline_mae
        cells["flag"][np.isnan(block.r)] = "undefined"
    return CorrelationTable(method=embedding.method, layer=embedding.layer, rows=rows)


@dataclass
class TopRegion:
    region: int
    r: float
    p_value: float
    component: int
    class_label: str


def top_regions(table: CorrelationTable, n: int = 10) -> list[TopRegion]:
    """Rank regions by their best |r| over all valid rows of the table.

    Within a region the first row in table order wins a tie; between regions
    the lower region id does. Regions without a valid row drop out.
    """
    if table.rows.size == 0:
        raise DegenerateInputError("cannot rank an empty correlation table")
    rows = table.rows.reshape(-1, table.rows.shape[-1])  # (group x component, region)
    strength = np.where(rows["flag"] == "", np.abs(rows["r"]), -1.0)
    first = strength.argmax(axis=0)
    regions = np.arange(rows.shape[1])
    best, best_strength = rows[first, regions], strength[first, regions]
    order = np.lexsort((best["region"], -best_strength))
    order = order[best_strength[order] >= 0.0][:n]
    fields = ["region", "r", "p_value", "component", "class_label"]
    return [TopRegion(*values) for values in best[order][fields].tolist()]


@dataclass
class OverlapReport:
    pair_overlaps: dict  # (comparison_a, comparison_b) -> sorted region list
    recurring_regions: list[int]  # regions present in >= 3 pairwise overlaps


def overlap_report(top_lists: dict[str, list[int]]) -> OverlapReport:
    """Intersect per-comparison top-N region sets pairwise.

    top_lists maps comparison name to the region ids of its top-N list.
    Regions appearing in at least 3 of the pairwise overlaps are reported
    as recurring.
    """
    if len(top_lists) < 2:
        raise ConfigError("overlap report needs at least 2 comparisons")
    sets = {name: set(regions) for name, regions in top_lists.items()}
    names = sorted(sets)
    pair_overlaps = {}
    counts: dict[int, int] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            common = sorted(sets[a] & sets[b])
            pair_overlaps[(a, b)] = common
            for region in common:
                counts[region] = counts.get(region, 0) + 1
    recurring = sorted(region for region, c in counts.items() if c >= 3)
    return OverlapReport(pair_overlaps=pair_overlaps, recurring_regions=recurring)
