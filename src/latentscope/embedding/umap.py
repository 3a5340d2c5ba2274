"""UMAP from scratch: exact kNN fuzzy graph, fitted low-dimensional kernel,
negative-sampling SGD on the fuzzy cross-entropy.

Graph construction follows the standard recipe: per point, rho is the
distance to the nearest neighbor and sigma is bisected (64 iterations) so
sum_j exp(-(d_ij - rho_i)/sigma_i) = log2(k) over the k nearest neighbors;
directed memberships are combined by the fuzzy union w = w1 + w2 - w1*w2,
which is exactly symmetric in floating point. The low-dimensional kernel
1/(1 + a d^(2b)) gets (a, b) by least-squares fit to the piecewise target
curve defined by min_dist. Optimization samples each edge in proportion to
its weight (stronger edges more often), moves edge heads by the clipped
attractive gradient, and applies `negative_rate` uniformly random repulsive
samples per attractive update, with linearly decaying learning rate.

The optimiser loop keeps its numpy calls few and cheap, and these forms
hold its bits:
- Active edges, the kept rows of each negative round and the `next_sample`
  update are selected with `flatnonzero` and `take`, which pick the same
  elements in the same order as a boolean mask.
- Each update goes through one 1-D `np.add.at` on the flat view of `y`
  (`_add_rows`). A head that occurs several times in one update has each
  of its elements updated one occurrence at a time, in order, as the 2-D
  row form does; summing a head's updates first (`bincount`) would round
  differently.
- The RNG draws one `integers` block per epoch with active edges; any other
  call sequence changes every later sample.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import curve_fit

from ..errors import DegenerateInputError, NumericError
from .common import EmbeddingMatrix, pairwise_sq_dists, standardize

_SMOOTH_ITERS = 64
_SIGMA_FLOOR_SCALE = 1e-3
_GRAD_CLIP = 4.0


def low_dim_curve(d, a, b):
    return 1.0 / (1.0 + a * d ** (2.0 * b))


def fit_ab(min_dist: float, spread: float = 1.0) -> tuple[float, float]:
    """Least-squares (a, b) so the kernel tracks the min_dist plateau curve."""
    xv = np.linspace(0.0, spread * 3.0, 300)
    yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist) / spread))
    (a, b), _ = curve_fit(low_dim_curve, xv, yv, p0=(1.0, 1.0), maxfev=10000)
    return float(a), float(b)


def smooth_knn_calibration(knn_dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (rho, sigma): rho = first-NN distance, sigma by bisection."""
    n, k = knn_dists.shape
    target = np.log2(k)
    rho = knn_dists[:, 0].copy()
    sigma = np.zeros(n)
    for i in range(n):
        shifted = np.maximum(knn_dists[i] - rho[i], 0.0)
        lo, hi, mid = 0.0, np.inf, 1.0
        for _ in range(_SMOOTH_ITERS):
            s = np.exp(-shifted / mid).sum()
            if abs(s - target) < 1e-5:
                break
            if s > target:
                hi = mid
                mid = (lo + hi) / 2.0
            else:
                lo = mid
                mid = mid * 2.0 if hi == np.inf else (lo + hi) / 2.0
        mean_d = knn_dists[i].mean()
        sigma[i] = max(mid, _SIGMA_FLOOR_SCALE * mean_d) if mean_d > 0 else max(mid, _SIGMA_FLOOR_SCALE)
    return rho, sigma


def fuzzy_graph(x: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, list[str]]:
    """Symmetric fuzzy membership matrix (dense) via exact kNN + fuzzy union."""
    n = x.shape[0]
    notes = []
    d = np.sqrt(pairwise_sq_dists(x))
    order = np.argsort(d, axis=1, kind="stable")
    # column 0 is the point itself (distance 0)
    neigh = order[:, 1 : n_neighbors + 1]
    knn_dists = np.take_along_axis(d, neigh, axis=1)
    rho, sigma = smooth_knn_calibration(knn_dists)
    a_dir = np.zeros((n, n))
    for i in range(n):
        w = np.exp(-np.maximum(knn_dists[i] - rho[i], 0.0) / sigma[i])
        a_dir[i, neigh[i]] = w
    graph = a_dir + a_dir.T - a_dir * a_dir.T
    if _connected_components(graph > 0.0) > 1:
        warnings.warn("kNN graph is disconnected; embedding proceeds per component")
        notes.append("disconnected_graph")
    return graph, notes


def _connected_components(adj: np.ndarray) -> int:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
    return components


def cross_entropy(w: np.ndarray, w_hat: np.ndarray, eps: float = 1e-12) -> float:
    """Fuzzy cross-entropy C; exactly 0 when w == w_hat elementwise."""
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.clip(np.asarray(w_hat, dtype=np.float64), eps, 1.0 - eps)
    total = 0.0
    mask_a = w > 0
    total += float((w[mask_a] * np.log(w[mask_a] / w_hat[mask_a])).sum())
    mask_r = w < 1
    total += float(
        ((1.0 - w[mask_r]) * np.log((1.0 - w[mask_r]) / (1.0 - w_hat[mask_r]))).sum()
    )
    return total


def _add_rows(y: np.ndarray, rows: np.ndarray, upd: np.ndarray) -> None:
    """`np.add.at(y, rows, upd)` for a C-contiguous 2-D `y`, as one 1-D
    `add.at` on its flat view: element (r, c) sits at r * dims + c and still
    receives its updates one at a time, in order of occurrence."""
    dims = y.shape[1]
    flat = (rows * dims)[:, None] + np.arange(dims)
    np.add.at(y.reshape(-1), flat.reshape(-1), upd.reshape(-1))


def umap_embed(x: np.ndarray, dims: int = 3, n_neighbors: int = 15,
               min_dist: float = 0.1, epochs: int = 500, seed: int = 0,
               negative_rate: int = 5, subject_ids: list[str] | None = None,
               layer: str = "L3") -> EmbeddingMatrix:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n <= n_neighbors:
        raise DegenerateInputError(
            f"UMAP needs n > n_neighbors, got n={n}, n_neighbors={n_neighbors}"
        )
    rng = np.random.default_rng(seed)
    xs, _, _, _ = standardize(x)
    graph, notes = fuzzy_graph(xs, n_neighbors)
    a, b = fit_ab(min_dist)

    heads, tails = np.nonzero(graph)
    weights = graph[heads, tails]
    epochs_per_sample = weights.max() / weights
    next_sample = epochs_per_sample.copy()

    y = rng.uniform(-10.0, 10.0, size=(n, dims))
    for epoch in range(1, epochs + 1):
        alpha = 1.0 - (epoch - 1) / epochs
        active = np.flatnonzero(next_sample <= epoch)
        if active.size:
            h = heads.take(active)
            t = tails.take(active)
            diff = y.take(h, axis=0) - y.take(t, axis=0)
            d2 = (diff * diff).sum(axis=1)
            pos = d2 > 0.0
            coef = np.zeros_like(d2)
            coef[pos] = (-2.0 * a * b * d2[pos] ** (b - 1.0)) / (
                1.0 + a * d2[pos] ** b
            )
            upd = np.clip(coef[:, None] * diff, -_GRAD_CLIP, _GRAD_CLIP) * alpha
            _add_rows(y, h, upd)
            # negative samples: uniformly random targets, repulsive push on heads
            m = h.shape[0]
            neg_targets = rng.integers(0, n, size=(m, negative_rate))
            for c in range(negative_rate):
                tneg = neg_targets[:, c]
                keep = np.flatnonzero(tneg != h)
                hk = h.take(keep)
                diff_n = y.take(hk, axis=0) - y.take(tneg.take(keep), axis=0)
                d2n = (diff_n * diff_n).sum(axis=1)
                coef_n = 2.0 * b / ((0.001 + d2n) * (1.0 + a * d2n**b))
                upd_n = np.clip(coef_n[:, None] * diff_n, -_GRAD_CLIP, _GRAD_CLIP) * alpha
                _add_rows(y, hk, upd_n)
            next_sample[active] += epochs_per_sample.take(active)
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite UMAP embedding at epoch {epoch}")

    if subject_ids is None:
        subject_ids = [f"S{i:04d}" for i in range(n)]
    return EmbeddingMatrix(
        method="umap",
        layer=layer,
        values=y,
        subject_ids=list(subject_ids),
        metadata={
            "n_neighbors": n_neighbors,
            "min_dist": min_dist,
            "epochs": epochs,
            "negative_rate": negative_rate,
            "seed": seed,
            "a": a,
            "b": b,
            "notes": notes,
        },
    )
