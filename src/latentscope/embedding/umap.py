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
attractive gradient, and applies NEGATIVE_RATE = 5 uniformly random repulsive
samples per attractive update, with linearly decaying learning rate.

A disconnected kNN graph is optimised as one graph, like a connected one:
its components are embedded together, and only the random negative samples
act between them, so their placement relative to each other carries no
meaning. The fit warns and notes `disconnected_graph`. Connectivity is a
breadth-first sweep from point 0 over the memberships above 1e-8, the
edges that `scipy.sparse.csgraph` reads from a dense matrix.

The (a, b) fit is MINPACK's `lmdif`, operation for operation (`minpack`),
started at (1, 1) with the settings `scipy.optimize.curve_fit` passes it
(ftol = xtol = 1.49012e-8, gtol = 0, epsfcn = machine epsilon, factor =
100, maxfev = 10000), so (a, b), and with them every UMAP embedding, carry
the bits `curve_fit` gives. The port and the sweep stand in for
`curve_fit` and `connected_components` because importing `scipy.optimize`
and `scipy.sparse` brings `scipy.linalg`, `fft` and `spatial` into every
process, about 22 MB of resident memory, for two problems of a few
hundred numbers. A fit that ends without converging raises
`NumericError`.

The optimiser loop keeps its numpy calls few and cheap, and these forms
hold its bits:
- `y` is held feature-major, as a (dims, n) array `yt`. A squared distance
  is `(diff * diff).sum(axis=0)` over a (dims, m) `diff`: each column's
  terms are added first to last, the same bits as the row sums of the
  (m, dims) form.
- Active edges and the `next_sample` update are selected with
  `flatnonzero` and `take`, which pick the same elements in the same order
  as a boolean mask.
- Each update goes through one 1-D `np.add.at` on the flat view of `yt`
  (`_add_rows`), where coordinate c of point r sits at c * n + r. A head
  that occurs several times in one update has each of its elements updated
  one occurrence at a time, in order, as the 2-D row form does; summing a
  head's updates first (`bincount`) would round differently. The flat
  indices of every edge head are built once per fit (`_flat_rows`), and
  each update takes its columns of them.
- A negative round keeps the draws whose target is the head itself. Such a
  draw has `diff` +0.0 in every coordinate, so d2 = 0, its coefficient is
  the finite 2b / 0.001 (the fitted b is > 0) and its step is +0.0. No
  element of `y` is ever -0.0: it starts at -10 + 20u, and a sum of finite
  doubles is -0.0 only when both terms are. Adding +0.0 to a value that is
  not -0.0 returns that value, so the round gives the bits of one with the
  self-draws filtered out.
- Clipping is `np.minimum` then `np.maximum` in place, the same bits as
  `np.clip`, and the scalar factors `-2ab` and `b - 1` are computed once,
  as the same left-to-right products.
- The RNG draws one `integers` block per epoch with active edges; any other
  call sequence changes every later sample.

`umap_embed_many` fits layers of one row count in one epoch loop; a lone
`umap_embed` is a group of one. The loop sees g fits as one graph of g * n
points: fit i's point r is column i * n + r of `yt`, and fit i's edges
follow those of fit i - 1. Each fit keeps its own generator, fuzzy graph,
`epochs_per_sample` and notes, and (a, b) is fitted once. Every array op
of a round is elementwise or per column, so the concatenated active edges
give each fit's columns the bits its own edges give them alone, and the
one flat `add.at` over the fits' concatenated indices updates each element
only from its own fit's heads, in their order. Only the negative draws are
split: in each epoch, each fit with active edges draws one `integers`
block for them from its own generator, offset into its columns, so a
target is never another fit's point. All of a comparison's layers go in
one group: a round's arrays hold a few numbers per active edge, and three
lockstep fits at n = 240 took as long as one at a time.

The bandwidth bisection runs over all points at once, and a point leaves it
once its sum is close enough; each row's `exp`, its `axis=1` sum and its
mean are the bits of the same calls on that row alone.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import DegenerateInputError, NumericError
from .common import EmbeddingMatrix, GramLayer, layer_group
from .minpack import lmdif

_SMOOTH_ITERS = 64
_SIGMA_FLOOR_SCALE = 1e-3
_GRAD_CLIP = 4.0
NEGATIVE_RATE = 5
_EDGE_FLOOR = 1e-8


def low_dim_curve(d, a, b):
    return 1.0 / (1.0 + a * d ** (2.0 * b))


def fit_ab(min_dist: float) -> tuple[float, float]:
    """Least-squares (a, b) so the kernel tracks the min_dist plateau curve
    (spread 1)."""
    xv = np.linspace(0.0, 3.0, 300)
    yv = np.where(xv < min_dist, 1.0, np.exp(-(xv - min_dist)))
    (a, b), info = lmdif(lambda p: low_dim_curve(xv, *p) - yv, (1.0, 1.0),
                         ftol=1.49012e-8, xtol=1.49012e-8, gtol=0.0,
                         maxfev=10000, epsfcn=float(np.finfo(np.float64).eps),
                         factor=100.0)
    if info not in (1, 2, 3, 4):
        raise NumericError(f"UMAP (a, b) fit for min_dist={min_dist} did not "
                           f"converge (MINPACK info {info})")
    return float(a), float(b)


def is_connected(graph: np.ndarray) -> bool:
    """Whether every point is reached from point 0 over the edges of the
    square membership matrix `graph` (entries in [0, 1]), read in both
    directions. An edge is an entry above 1e-8: `scipy.sparse.csgraph`
    reads a dense matrix through `np.isclose(graph, 0)`, whose default
    tolerance makes any weight of at most 1e-8 no edge."""
    edges = graph > _EDGE_FLOOR
    edges |= edges.T
    reached = np.zeros(graph.shape[0], dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = edges[frontier].any(axis=0) & ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return bool(reached.all())


def smooth_knn_calibration(knn_dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (rho, sigma): rho = first-NN distance, sigma by bisection.

    All rows are bisected at once; a row leaves the loop once its sum is
    within 1e-5 of log2(k), keeping the sigma it had then, and a row that
    never gets there keeps the midpoint after its last step."""
    n, k = knn_dists.shape
    target = np.log2(k)
    rho = knn_dists[:, 0].copy()
    shifted = np.maximum(knn_dists - rho[:, None], 0.0)
    lo, hi, mid = np.zeros(n), np.full(n, np.inf), np.ones(n)
    live = np.arange(n)
    for _ in range(_SMOOTH_ITERS):
        s = np.exp(-shifted[live] / mid[live, None]).sum(axis=1)
        going = ~(np.abs(s - target) < 1e-5)
        live, s = live[going], s[going]
        if not live.size:
            break
        above = s > target
        m = mid[live]
        lo_l = np.where(above, lo[live], m)
        hi_l = np.where(above, m, hi[live])
        mid[live] = np.where(hi_l == np.inf, m * 2.0, (lo_l + hi_l) / 2.0)
        lo[live], hi[live] = lo_l, hi_l
    mean_d = knn_dists.mean(axis=1)
    floor = _SIGMA_FLOOR_SCALE * np.where(mean_d > 0, mean_d, 1.0)
    return rho, np.maximum(mid, floor)


def fuzzy_graph(d2: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, list[str]]:
    """Symmetric fuzzy membership matrix (dense) via exact kNN + fuzzy union,
    from the squared distances `d2` of the points (`pairwise_sq_dists`),
    which it leaves as they are."""
    n = d2.shape[0]
    notes = []
    d = np.sqrt(d2)
    # the point itself is no neighbour: sorted last, the other points keep
    # their stable order, and a duplicate row is found by both its copies
    np.fill_diagonal(d, np.inf)
    neigh = np.argsort(d, axis=1, kind="stable")[:, :n_neighbors]
    knn_dists = np.take_along_axis(d, neigh, axis=1)
    rho, sigma = smooth_knn_calibration(knn_dists)
    a_dir = np.zeros((n, n))
    a_dir[np.arange(n)[:, None], neigh] = np.exp(
        -np.maximum(knn_dists - rho[:, None], 0.0) / sigma[:, None])
    graph = a_dir + a_dir.T - a_dir * a_dir.T
    if not is_connected(graph):
        warnings.warn("kNN graph is disconnected; its components are embedded "
                      "together and their relative placement carries no meaning")
        notes.append("disconnected_graph")
    return graph, notes


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


def _flat_rows(rows: np.ndarray, n: int, dims: int) -> np.ndarray:
    """(dims, len(rows)) indices into the flat view of a C-contiguous
    (dims, n) array: element (c, r) sits at c * n + r."""
    return np.arange(dims)[:, None] * n + rows


def _add_rows(yt: np.ndarray, flat: np.ndarray, upd: np.ndarray) -> None:
    """`np.add.at(yt.T, rows, upd.T)` for a C-contiguous (dims, n) `yt`,
    given `flat = _flat_rows(rows, n, dims)` and a (dims, len(rows))
    `upd`, as one 1-D `add.at` on its flat view: each element still
    receives its updates one at a time, in order of occurrence."""
    np.add.at(yt.reshape(-1), flat.reshape(-1), upd.reshape(-1))


def _clipped_step(coef: np.ndarray, diff: np.ndarray, alpha: float) -> np.ndarray:
    """`np.clip(coef * diff, -_GRAD_CLIP, _GRAD_CLIP) * alpha` for a
    (dims, m) `diff`, in place in the product."""
    step = coef * diff
    np.minimum(step, _GRAD_CLIP, out=step)
    np.maximum(step, -_GRAD_CLIP, out=step)
    step *= alpha
    return step


def _repel(yt: np.ndarray, h: np.ndarray, h_flat: np.ndarray, targets: np.ndarray,
           a: float, b: float, alpha: float) -> None:
    """One negative round: push each head `h[j]` (flat indices `h_flat`)
    away from `targets[j]`, in place in the feature-major `yt`."""
    diff = yt.take(h, axis=1) - yt.take(targets, axis=1)
    d2 = (diff * diff).sum(axis=0)
    coef = 2.0 * b / ((0.001 + d2) * (1.0 + a * d2**b))
    _add_rows(yt, h_flat, _clipped_step(coef, diff, alpha))


def umap_embed_many(layers: dict[str, np.ndarray | GramLayer],
                    seeds: dict[str, int] | None = None, dims: int = 3,
                    n_neighbors: int = 15, min_dist: float = 0.1,
                    epochs: int = 500,
                    subject_ids: list[str] | None = None) -> list[EmbeddingMatrix]:
    """UMAP of each of `layers` (name -> layer, all of the same n rows),
    fit with its own seed (`seeds[name]`, default 0), in the layers'
    order, all in one epoch loop; each embedding is the bits `umap_embed`
    gives that layer alone."""
    grams, seeds, n = layer_group(layers, seeds, "UMAP")
    if n <= n_neighbors:
        raise DegenerateInputError(
            f"UMAP needs n > n_neighbors, got n={n}, n_neighbors={n_neighbors}"
        )
    rngs, notes, heads, tails, epochs_per_sample = [], [], [], [], []
    for i, name in enumerate(grams):
        rngs.append(np.random.default_rng(seeds[name]))
        graph, fit_notes = fuzzy_graph(grams[name].sq_dists(), n_neighbors)
        notes.append(fit_notes)
        h, t = np.nonzero(graph)
        weights = graph[h, t]
        heads.append(h + i * n)
        tails.append(t + i * n)
        epochs_per_sample.append(weights.max() / weights)
        del graph
    a, b = fit_ab(min_dist)

    edge_bounds = np.cumsum([0] + [h.size for h in heads])
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    epochs_per_sample = np.concatenate(epochs_per_sample)
    next_sample = epochs_per_sample.copy()

    points = len(rngs) * n
    head_flat = _flat_rows(heads, points, dims)
    attract = -2.0 * a * b
    attract_power = b - 1.0

    # feature-major: yt[c, i * n + r] is coordinate c of fit i's point r
    yt = np.ascontiguousarray(np.concatenate(
        [rng.uniform(-10.0, 10.0, size=(n, dims)) for rng in rngs]).T)
    for epoch in range(1, epochs + 1):
        alpha = 1.0 - (epoch - 1) / epochs
        active = np.flatnonzero(next_sample <= epoch)
        if active.size:
            h = heads.take(active)
            h_flat = head_flat.take(active, axis=1)
            diff = yt.take(h, axis=1) - yt.take(tails.take(active), axis=1)
            d2 = (diff * diff).sum(axis=0)
            pos = d2 > 0.0
            coef = np.zeros_like(d2)
            coef[pos] = (attract * d2[pos] ** attract_power) / (
                1.0 + a * d2[pos] ** b
            )
            _add_rows(yt, h_flat, _clipped_step(coef, diff, alpha))
            # negative samples: uniformly random targets among the fit's own
            # points, repulsive push on heads; a target equal to its head
            # moves nothing (see above)
            counts = np.diff(np.searchsorted(active, edge_bounds))
            neg_targets = np.concatenate([
                rng.integers(0, n, size=(count, NEGATIVE_RATE)) + i * n
                for i, (rng, count) in enumerate(zip(rngs, counts)) if count])
            for targets in neg_targets.T:
                _repel(yt, h, h_flat, targets, a, b, alpha)
            next_sample[active] += epochs_per_sample.take(active)
        if not np.isfinite(yt).all():
            raise NumericError(f"non-finite UMAP embedding at epoch {epoch}")

    return [EmbeddingMatrix(
        method="umap",
        layer=name,
        values=np.ascontiguousarray(yt[:, i * n:(i + 1) * n].T),
        subject_ids=subject_ids,
        metadata={
            "n_neighbors": n_neighbors,
            "min_dist": min_dist,
            "epochs": epochs,
            "negative_rate": NEGATIVE_RATE,
            "seed": seeds[name],
            "a": a,
            "b": b,
            "notes": notes[i],
        },
    ) for i, name in enumerate(grams)]


def umap_embed(x: np.ndarray | GramLayer, dims: int = 3,
               n_neighbors: int = 15, min_dist: float = 0.1, epochs: int = 500,
               seed: int = 0, subject_ids: list[str] | None = None,
               layer: str = "L3") -> EmbeddingMatrix:
    """UMAP of the rows of `x`, a layer the caller shares between fits or
    an array, read in column blocks; it reads the layer's `sq_dists()`."""
    return umap_embed_many({layer: x}, {layer: seed}, dims=dims,
                           n_neighbors=n_neighbors, min_dist=min_dist,
                           epochs=epochs, subject_ids=subject_ids)[0]
