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
un-exaggerated P is recorded at checkpoints: after every `kl_every`-th
iteration and after the last one. The optimiser never reads it, so the
checkpoint interval leaves `values` bit-identical; with `kl_every=1` the
history holds every iteration.

The optimiser loop works in place, and every element gets the float
operations, in the order, of the textbook form
`4 (diag(rowsum(pq)) - pq) @ y` with `pq = (P - Q) * num`, so the returned
values and `kl_history` are the same bits as that form gives:
- `num` and `q` are the loop's two n x n buffers, allocated once per fit;
  every n x n step writes into them with `out=`, and `P * 12` is computed
  once.
- The Gram product is `np.matmul(y, y.T, out=q)`. numpy sends a matrix
  times its own transpose to BLAS syrk and any other product to gemm, and
  the two round differently; an `out=` buffer keeps the syrk path. `q` then
  holds Q.
- The KL checkpoint reads Q as soon as it is final, and `pq` is then built
  over it, in `q`'s buffer.
- `num` is `1 / (1 + d2)` with d2 computed as `pairwise_sq_dists` does it,
  except that d2's diagonal is not zeroed first: `num`'s is set to 0 anyway.
- `diag(s) - pq` is built in place as `0.0 - pq` with the row sums s written
  onto the diagonal. The diagonal of `pq` is (0 - 1e-12) * 0 = -0.0 and no
  s is -0.0, so s - (-0.0) = s exactly. The factor 4 is applied to that
  matrix before the product with `y`, as in `(4.0 * M) @ y`.
- KL gathers Q on P's support (`flatnonzero(P > 0)`, found once) and runs
  divide, log, multiply and sum over it: the terms and the summation of
  `kl_divergence(P, Q)`, which stays the public reference.

The perplexity bisection runs over all rows at once, and a row leaves it
once its entropy is close enough. Each row gets the bits of the same steps
on that row alone: `exp` and the divisions are elementwise, the row totals
are `axis=1` sums, and the row dot products are one stacked
`np.matmul(r[:, None, :], p[:, :, None])`, which numpy sends row by row to
the same BLAS ddot as the 1-D `r @ p`.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ConfigError, DegenerateInputError, NumericError
from .common import EmbeddingMatrix, PreparedLayer, pairwise_sq_dists

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
_BISECT_TRIES = 50


def entropy_and_probs(d2_rows: np.ndarray, beta: np.ndarray):
    """Shannon entropies (nats) and conditional probabilities of each row of
    `d2_rows` at its own `beta`; a row whose total is not positive and
    finite gets entropy 0 and all-zero probabilities."""
    p = np.exp(-d2_rows * beta[:, None])
    total = p.sum(axis=1)
    # one ddot per row, as 1-D `d2_row @ p` makes
    dots = np.matmul(d2_rows[:, None, :], p[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.log(total) + beta * dots / total
        p /= total[:, None]
    failed = (total <= 0.0) | ~np.isfinite(total)
    h[failed] = 0.0
    p[failed] = 0.0
    return h, p


def perplexity_of(p_row: np.ndarray) -> float:
    """exp(H) of a conditional distribution; equals m for uniform over m."""
    nz = p_row[p_row > 0]
    return float(np.exp(-(nz * np.log(nz)).sum()))


def conditional_probabilities(d2: np.ndarray, perplexity: float) -> np.ndarray:
    """Bisection on each row's Gaussian bandwidth to hit the perplexity.

    All rows are bisected at once; a row leaves the loop once its entropy is
    within 1e-5 of log(perplexity), keeping the probabilities it had then,
    and a row that never gets there keeps those of its last try."""
    n = d2.shape[0]
    target = np.log(perplexity)
    others = ~np.eye(n, dtype=bool)
    rows = d2[others].reshape(n, n - 1)
    beta = np.ones(n)
    beta_min, beta_max = np.full(n, -np.inf), np.full(n, np.inf)
    h, p = entropy_and_probs(rows, beta)
    live = np.arange(n)
    for _ in range(_BISECT_TRIES):
        going = ~(np.abs(h - target) < 1e-5)
        live, h = live[going], h[going]
        if not live.size:
            break
        above = h > target
        b = beta[live]
        lo = np.where(above, b, beta_min[live])
        hi = np.where(above, beta_max[live], b)
        beta[live] = np.where(
            above,
            np.where(hi == np.inf, b * 2.0, (b + hi) / 2.0),
            np.where(lo == -np.inf, b / 2.0, (b + lo) / 2.0))
        beta_min[live], beta_max[live] = lo, hi
        h, p[live] = entropy_and_probs(rows[live], beta[live])
    p_cond = np.zeros((n, n))
    p_cond[others] = p.reshape(-1)
    return p_cond


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def _kl_on_support(p_support: np.ndarray, q: np.ndarray, support: np.ndarray,
                   out: np.ndarray) -> float:
    """`kl_divergence(p, q)` with p's support and values gathered beforehand:
    the same terms in the same order, computed in `out`."""
    # the indices are in range; "clip" only skips the per-index bounds check
    np.take(q.reshape(-1), support, out=out, mode="clip")
    np.divide(p_support, out, out=out)
    np.log(out, out=out)
    np.multiply(p_support, out, out=out)
    return float(out.sum())


def tsne_embed(x: np.ndarray | PreparedLayer, dims: int = 3,
               perplexity: float = 30.0, lr: float = 200.0, iters: int = 1000,
               seed: int = 0, subject_ids: list[str] | None = None,
               layer: str = "L3", kl_every: int = 1) -> EmbeddingMatrix:
    """t-SNE of the rows of `x`, a layer prepared by the caller or an array
    prepared on a private copy; it reads the layer's `sq_dists()`.

    `kl_history` holds KL(P||Q) after iterations `kl_every`,
    `2 * kl_every`, ... and after the last one: `ceil(iters / kl_every)`
    values, each the same bits as at that iteration with `kl_every=1`."""
    if kl_every < 1:
        raise ConfigError(f"t-SNE kl_every must be >= 1, got {kl_every}")
    prepared = PreparedLayer.of(x)
    n = prepared.shape[0]
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

    d2 = prepared.sq_dists()
    off_diag = d2[~np.eye(n, dtype=bool)]
    if (off_diag == 0.0).any():
        # duplicate points: deterministic seeded jitter at 1e-10 scale, added
        # to a copy, so the layer and its distances stay as they are
        notes.append("duplicate_points_jittered")
        d2 = pairwise_sq_dists(prepared.standardized()
                               + rng.normal(0.0, 1e-10, size=prepared.shape))

    p_cond = conditional_probabilities(d2, perplexity)
    p = (p_cond + p_cond.T) / (2.0 * n)
    p_exaggerated = p * EXAGGERATION
    support = np.flatnonzero(p > 0)
    p_support = p.reshape(-1)[support]

    y = rng.normal(0.0, 1e-4, size=(n, dims))
    velocity = np.zeros_like(y)
    # per-coordinate adaptive gains as in the reference optimizer: grow while
    # the gradient keeps opposing the velocity (steady descent), shrink when
    # they align (overshoot), never below 0.01
    gains = np.ones_like(y)
    kl_history = np.zeros(-(-iters // kl_every))
    num = np.empty((n, n))
    q = np.empty((n, n))
    kl_terms = np.empty(support.size)
    for it in range(iters):
        p_eff = p_exaggerated if it < EXAGGERATION_ITERS else p
        momentum = MOMENTUM_EARLY if it < EXAGGERATION_ITERS else MOMENTUM_LATE
        # num = 1 / (1 + pairwise_sq_dists(y)) with a zero diagonal
        sq = (y * y).sum(axis=1)
        np.matmul(y, y.T, out=q)
        np.multiply(q, 2.0, out=q)
        num[:] = sq[:, None]
        np.add(num, sq, out=num)
        np.subtract(num, q, out=num)
        np.maximum(num, 0.0, out=num)
        np.add(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        np.divide(num, num.sum(), out=q)
        np.maximum(q, 1e-12, out=q)
        if (it + 1) % kl_every == 0 or it == iters - 1:
            kl_history[it // kl_every] = _kl_on_support(p_support, q, support,
                                                        kl_terms)
        # pq = (P - Q) * num, then 4 (diag(row sums) - pq), in q's buffer
        pq = q
        np.subtract(p_eff, q, out=pq)
        np.multiply(pq, num, out=pq)
        row_sums = pq.sum(axis=1)
        np.subtract(0.0, pq, out=pq)
        np.fill_diagonal(pq, row_sums)
        np.multiply(pq, 4.0, out=pq)
        grad = pq @ y
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite t-SNE gradient at iteration {it}")
        opposed = np.sign(grad) != np.sign(velocity)
        gains = np.where(opposed, gains + 0.2, gains * 0.8)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - lr * (gains * grad)
        y += velocity
        y -= y.mean(axis=0)

    return EmbeddingMatrix(
        method="tsne",
        layer=layer,
        values=y,
        subject_ids=subject_ids,
        metadata={
            "perplexity": perplexity,
            "lr": lr,
            "iters": iters,
            "seed": seed,
            "exaggeration": EXAGGERATION,
            "exaggeration_iters": EXAGGERATION_ITERS,
            "kl_every": kl_every,
            "kl_history": kl_history,
            "notes": notes,
        },
    )
