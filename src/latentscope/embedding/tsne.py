"""t-SNE from scratch: exact affinities, bisection perplexity calibration,
early exaggeration, momentum gradient descent with adaptive gains.

Conditional affinities use per-point Gaussian bandwidths found by bisection
so each row's entropy-based perplexity (exp of the Shannon entropy in nats)
matches the requested perplexity within 1e-3. Rows are symmetrized to
p_ij = (p_j|i + p_i|j) / (2n). The low-dimensional kernel is the Student-t
with one degree of freedom. Optimization is gradient descent with momentum
0.5 (0.8 after iteration 250), early exaggeration x12 for the first 250
iterations, and per-coordinate adaptive gains (+0.2 while the gradient
opposes the velocity, x0.8 otherwise, floored at 0.01). KL(P||Q) against the
un-exaggerated P is recorded every iteration.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import DegenerateInputError, NumericError
from .common import EmbeddingMatrix, pairwise_sq_dists, standardize

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
_BISECT_TRIES = 50
_PERP_TOL = 1e-3


def entropy_and_probs(d2_row: np.ndarray, beta: float):
    """Shannon entropy (nats) and conditional probabilities for one row."""
    p = np.exp(-d2_row * beta)
    total = p.sum()
    if total <= 0.0 or not np.isfinite(total):
        return 0.0, np.zeros_like(p)
    h = np.log(total) + beta * float(d2_row @ p) / total
    return float(h), p / total


def perplexity_of(p_row: np.ndarray) -> float:
    """exp(H) of a conditional distribution; equals m for uniform over m."""
    nz = p_row[p_row > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))


def conditional_probabilities(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Per-row bisection on the Gaussian bandwidth to hit the perplexity."""
    n = d2.shape[0]
    target = np.log(perplexity)
    p_cond = np.zeros((n, n))
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        row = d2[i, others[i]]
        beta, beta_min, beta_max = 1.0, -np.inf, np.inf
        h, p = entropy_and_probs(row, beta)
        for _ in range(_BISECT_TRIES):
            if abs(h - target) < 1e-5:
                break
            if h > target:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
            h, p = entropy_and_probs(row, beta)
        p_cond[i, others[i]] = p
    return p_cond


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def tsne_embed(x: np.ndarray, dims: int = 3, perplexity: float = 30.0,
               lr: float = 200.0, iters: int = 1000, seed: int = 0,
               subject_ids: list[str] | None = None,
               layer: str = "L3") -> EmbeddingMatrix:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 4:
        raise DegenerateInputError(f"t-SNE needs at least 4 rows, got {n}")
    notes = []
    if n <= 3 * perplexity:
        lowered = (n - 1) // 3
        warnings.warn(
            f"perplexity {perplexity} too large for n={n}; lowered to {lowered}"
        )
        notes.append(f"perplexity_lowered_from={perplexity}")
        perplexity = float(lowered)
    rng = np.random.default_rng(seed)

    xs, _, _, _ = standardize(x)
    d2 = pairwise_sq_dists(xs)
    off_diag = d2[~np.eye(n, dtype=bool)]
    if (off_diag == 0.0).any():
        # duplicate points: deterministic seeded jitter at 1e-10 scale
        notes.append("duplicate_points_jittered")
        xs = xs + rng.normal(0.0, 1e-10, size=xs.shape)
        d2 = pairwise_sq_dists(xs)

    p_cond = conditional_probabilities(d2, perplexity)
    p = (p_cond + p_cond.T) / (2.0 * n)

    y = rng.normal(0.0, 1e-4, size=(n, dims))
    velocity = np.zeros_like(y)
    # per-coordinate adaptive gains as in the reference optimizer: grow while
    # the gradient keeps opposing the velocity (steady descent), shrink when
    # they align (overshoot), never below 0.01
    gains = np.ones_like(y)
    kl_history = np.zeros(iters)
    for it in range(iters):
        p_eff = p * EXAGGERATION if it < EXAGGERATION_ITERS else p
        momentum = MOMENTUM_EARLY if it < EXAGGERATION_ITERS else MOMENTUM_LATE
        num = 1.0 / (1.0 + pairwise_sq_dists(y))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        pq = (p_eff - q) * num
        grad = 4.0 * (np.diag(pq.sum(axis=1)) - pq) @ y
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        opposed = np.sign(grad) != np.sign(velocity)
        gains = np.where(opposed, gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - lr * (gains * grad)
        y = y + velocity
        y = y - y.mean(axis=0)
        kl_history[it] = kl_divergence(p, q)

    if subject_ids is None:
        subject_ids = [f"S{i:04d}" for i in range(n)]
    return EmbeddingMatrix(
        method="tsne",
        layer=layer,
        values=y,
        subject_ids=list(subject_ids),
        metadata={
            "perplexity": perplexity,
            "lr": lr,
            "iters": iters,
            "seed": seed,
            "exaggeration": EXAGGERATION,
            "exaggeration_iters": EXAGGERATION_ITERS,
            "kl_history": kl_history,
            "notes": notes,
        },
    )
