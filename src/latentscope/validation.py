"""Bound-corrected significance: concentration bound, CUBV risk correction,
PAC-Bayes accuracy correction, and agnostic regression relevance (SAR).

All empirical risks here are resubstitution estimates, corrected upward by a
concentration term rather than cross-validated. SAR compares the corrected
risk of a least-squares line against the corrected risk of predicting the
mean, declaring a pair relevant only when the line survives a worst-case gap
of two bounds; this is what lets it reject correlations that are significant
by p-value yet carry negligible effect size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .regionstats import ALPHA, CorrelationTable, _block

SAR_MIN_N = 10  # smallest sample SAR tests


@dataclass
class BoundConfig:
    delta: float = 0.05
    eta: float = 0.5  # dropout rate discounting the parameter count

    def validate(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0,1), got {self.delta}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must be in [0,1), got {self.eta}")


@dataclass
class BoundResult:
    empirical: float
    psi: float
    corrected: float
    significant: bool
    n: int


@dataclass
class PacBayesResult:
    empirical_accuracy: float
    penalty: float
    corrected: float
    significant: bool
    n: int
    parameter_count: int
    eta: float


@dataclass
class SarResult:
    slope: float
    intercept: float
    model_mae: float
    baseline_mae: float
    corrected_model: float
    corrected_baseline: float
    relevant: bool
    n: int
    flags: list[str] = field(default_factory=list)


def concentration_bound(n: int, delta: float, complexity: float = 1.0) -> float:
    """Psi(n, delta, C) = sqrt(C * ln(1/delta) / (2n)), natural log."""
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if delta <= 0.0:
        raise ConfigError("delta = 0 makes the bound infinite")
    if delta > 1.0:
        raise ConfigError(f"delta must be in (0,1], got {delta}")
    if complexity <= 0.0:
        raise ConfigError(f"complexity constant must be > 0, got {complexity}")
    return math.sqrt(complexity * math.log(1.0 / delta) / (2.0 * n))


def cubv_corrected_error(empirical_error: float, n: int, delta: float = 0.05,
                         complexity: float = 1.0) -> BoundResult:
    """Upper-bound the actual risk and test it against chance level.

    corrected = min(1, empirical + Psi); the cell is significant when even
    the corrected error stays below 0.5.
    """
    if not 0.0 <= empirical_error <= 1.0:
        raise ConfigError(f"empirical error must be in [0,1], got {empirical_error}")
    psi = concentration_bound(n, delta, complexity)
    corrected = min(1.0, empirical_error + psi)
    return BoundResult(
        empirical=float(empirical_error),
        psi=psi,
        corrected=corrected,
        significant=corrected < 0.5,
        n=n,
    )


def pac_bayes_penalty(parameter_count: int, eta: float, n: int,
                      delta: float = 0.05) -> float:
    """sqrt(((1-eta) * P * ln 2 + ln(1/delta)) / (2n)).

    The parameter count is discounted by the dropout rate; at eta -> 1 the
    parameter term vanishes and only the confidence term remains.
    """
    if parameter_count < 1:
        raise ConfigError(f"parameter_count must be >= 1, got {parameter_count}")
    if not 0.0 <= eta < 1.0:
        raise ConfigError(f"eta must be in [0,1), got {eta}")
    if n < 1:
        raise ConfigError(f"sample size must be >= 1, got {n}")
    if delta <= 0.0:
        raise ConfigError("delta = 0 makes the bound infinite")
    if delta > 1.0:
        raise ConfigError(f"delta must be in (0,1], got {delta}")
    numerator = (1.0 - eta) * parameter_count * math.log(2.0) + math.log(1.0 / delta)
    return math.sqrt(numerator / (2.0 * n))


def pac_bayes_corrected_accuracy(empirical_accuracy: float, parameter_count: int,
                                 eta: float, n: int,
                                 delta: float = 0.05) -> PacBayesResult:
    """Penalize resubstitution accuracy; significant when still above chance."""
    if not 0.0 <= empirical_accuracy <= 1.0:
        raise ConfigError(
            f"empirical accuracy must be in [0,1], got {empirical_accuracy}")
    penalty = pac_bayes_penalty(parameter_count, eta, n, delta)
    corrected = max(0.0, empirical_accuracy - penalty)
    return PacBayesResult(
        empirical_accuracy=float(empirical_accuracy),
        penalty=penalty,
        corrected=corrected,
        significant=corrected > 0.5,
        n=n,
        parameter_count=parameter_count,
        eta=eta,
    )


def sar_relevance(x, y, delta: float = 0.05) -> SarResult:
    """Agnostic regression relevance of y ~ x.

    Fits a least-squares line, then compares its mean absolute error against
    the intercept-only baseline after widening both by the concentration
    bound in opposite directions (model up, baseline down). Relevance
    therefore requires the fit to beat the trivial predictor by at least two
    bounds: effect size enters through the MAE gap, not the p-value.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ConfigError(f"SAR needs equal-length vectors, got {x.shape} and {y.shape}")
    n = x.size
    if n < SAR_MIN_N:
        raise DegenerateInputError(f"SAR needs n >= {SAR_MIN_N}, got {n}")
    psi = concentration_bound(n, delta, 1.0)
    block = _block(x[:, None], y[:, None])
    flags = ["degenerate_constant_x"] if block.sxx[0] == 0.0 else []
    model_mae = float(block.model_mae[0, 0])
    baseline_mae = float(block.baseline_mae[0])
    corrected_model = model_mae + psi
    corrected_baseline = baseline_mae - psi
    relevant = not flags and corrected_model < corrected_baseline
    return SarResult(
        slope=float(block.slope[0, 0]),
        intercept=float(block.intercept[0, 0]),
        model_mae=model_mae,
        baseline_mae=baseline_mae,
        corrected_model=corrected_model,
        corrected_baseline=corrected_baseline,
        relevant=relevant,
        n=n,
        flags=flags,
    )


def correct_table(table: CorrelationTable, mode: str,
                  delta: float = 0.05) -> np.ndarray:
    """The rows of a correlation table that pass a p-value or a SAR filter,
    in table order.

    "pvalue" keeps the valid rows with p < ALPHA. "sar" keeps the valid rows
    that SAR finds relevant, with delta Bonferroni-split across every valid
    row of the table; rows of classes below `SAR_MIN_N` count towards that
    split but are never kept.
    """
    if mode not in ("pvalue", "sar"):
        raise ConfigError(f"unknown correction mode {mode!r}")
    rows = table.rows
    if mode == "pvalue":
        return rows[(rows["flag"] == "") & (rows["p_value"] < ALPHA)]
    return rows[_sar_split(rows, delta)[1]]


def _sar_split(rows: np.ndarray, delta: float):
    """SAR's view of correlation-table rows: (testable, kept, per-pair
    delta). delta is split evenly across the valid rows; a row is testable
    when it is valid and its class has at least `SAR_MIN_N` subjects, and
    kept when it is testable and its gap baseline - model MAE exceeds
    2 psi at its own n."""
    valid = rows["flag"] == ""
    per_pair_delta = delta / max(1, int(valid.sum()))
    n = rows["n"]
    testable = valid & (n >= SAR_MIN_N)
    psi = np.zeros(rows.shape)
    for size in np.unique(n[testable]):
        psi[n == size] = concentration_bound(int(size), per_pair_delta, 1.0)
    kept = testable & (rows["model_mae"] + psi < rows["baseline_mae"] - psi)
    return testable, kept, per_pair_delta


def sar_margin(table: CorrelationTable, delta: float = 0.05) -> dict:
    """How far a table's rows are from SAR relevance: the valid pair count
    P, delta and delta / P, each testable class size n with its margin
    2 psi(n), the largest baseline - model MAE gap over the testable rows
    (NaN when none is testable) and the number of rows `correct_table`
    keeps. A row is kept when its gap exceeds 2 psi at its n."""
    rows = table.rows
    testable, kept, per_pair_delta = _sar_split(rows, delta)
    gaps = (rows["baseline_mae"] - rows["model_mae"])[testable]
    sizes = np.unique(rows["n"][testable])
    return {
        "pairs": int((rows["flag"] == "").sum()),
        "delta": delta,
        "pair_delta": per_pair_delta,
        "n": [int(size) for size in sizes],
        "two_psi": [2.0 * concentration_bound(int(size), per_pair_delta, 1.0)
                    for size in sizes],
        "max_gap": float(gaps.max()) if gaps.size else math.nan,
        "kept": int(kept.sum()),
    }
