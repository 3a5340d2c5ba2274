"""Random-forest regression from region profiles to reconstruction error.

Hand-rolled on purpose: downstream Shapley attribution needs direct access to
split structure (per-leaf feature intervals), and the fit must be bitwise
reproducible from a seed. Trees are stored as flat arrays; node -1 children
mark leaves.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError


@dataclass
class TreeArrays:
    feature: np.ndarray  # (nodes,) int32, -1 at leaves
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int32, -1 at leaves
    right: np.ndarray  # (nodes,) int32
    value: np.ndarray  # (nodes,) float64 mean target of node

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rows = np.arange(x.shape[0])
        node = np.zeros(x.shape[0], dtype=np.intp)
        while (self.feature[node] >= 0).any():  # all rows, one level a step
            f = self.feature[node]
            go_left = x[rows, np.maximum(f, 0)] <= self.threshold[node]
            child = np.where(go_left, self.left[node], self.right[node])
            node = np.where(f >= 0, child, node)
        return self.value[node]

    def leaf_boxes(self):
        """Yield (leaf value, constrained features, lows, highs) per leaf.

        A sample lands in the leaf iff lo < x[f] <= hi for every constrained
        feature f (repeated path splits on one feature are merged into a
        single interval).
        """
        stack = [(0, {})]
        while stack:
            node, box = stack.pop()
            f = int(self.feature[node])
            if f < 0:
                feats = np.array(sorted(box), dtype=np.int64)
                lows = np.array([box[k][0] for k in feats], dtype=np.float64)
                highs = np.array([box[k][1] for k in feats], dtype=np.float64)
                yield float(self.value[node]), feats, lows, highs
                continue
            thr = float(self.threshold[node])
            lo, hi = box.get(f, (-np.inf, np.inf))
            stack.append((int(self.right[node]), {**box, f: (max(lo, thr), hi)}))
            stack.append((int(self.left[node]), {**box, f: (lo, min(hi, thr))}))


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 6
    min_leaf: int = 2
    seed: int = 0

    def validate(self) -> None:
        if self.n_trees < 1:
            raise ConfigError("forest needs at least one tree")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")


@dataclass
class ForestModel:
    trees: list[TreeArrays]
    n_trees: int
    max_depth: int
    min_leaf: int
    features_per_split: int
    feature_count: int
    tree_seeds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint64))

    def forest_hash(self) -> str:
        h = hashlib.sha256()
        for tree in self.trees:
            h.update(np.ascontiguousarray(tree.feature).tobytes())
            h.update(np.ascontiguousarray(tree.threshold).tobytes())
            h.update(np.ascontiguousarray(tree.left).tobytes())
            h.update(np.ascontiguousarray(tree.right).tobytes())
            h.update(np.ascontiguousarray(tree.value).tobytes())
        return h.hexdigest()


def _best_split(x, y, idx, feats, min_leaf):
    """Best variance-reduction split over candidate features.

    Returns (gain, feature, threshold) or None. One stable sort of all
    candidate columns gives a (positions x candidates) gain matrix. Exact ties
    go to the first position within a feature, then to the first candidate in
    `feats` order, so the result is deterministic for a fixed feature order.
    """
    y_node = y[idx]
    n = y_node.size
    total = float(y_node @ y_node) - n * float(y_node.mean()) ** 2
    pos = np.arange(min_leaf - 1, n - min_leaf)
    if pos.size == 0:
        return None
    vals = x[np.ix_(idx, feats)]
    order = np.argsort(vals, axis=0, kind="stable")
    vs = np.take_along_axis(vals, order, axis=0)
    ys = y_node[order]
    cy = np.cumsum(ys, axis=0)
    cy2 = np.cumsum(ys * ys, axis=0)
    nl = (pos + 1).astype(np.float64)[:, None]
    nr = n - nl
    sl = cy[pos]
    s2l = cy2[pos]
    sse_l = s2l - sl * sl / nl
    sr = cy[-1] - sl
    s2r = cy2[-1] - s2l
    sse_r = s2r - sr * sr / nr
    gain = total - sse_l - sse_r
    gain[vs[pos] == vs[pos + 1]] = -np.inf
    # column-major argmax: first candidate holding the maximum, first position
    j, k = divmod(int(np.argmax(gain.T)), pos.size)
    if gain[k, j] == -np.inf:
        return None
    thr = 0.5 * (vs[pos[k], j] + vs[pos[k] + 1, j])
    return float(gain[k, j]), int(feats[j]), float(thr)


def _grow_tree(x, y, rng, max_depth, min_leaf, m_try):
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(idx, depth):
        node = add_node()
        value[node] = float(y[idx].mean())
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return node
        feats = np.sort(rng.choice(x.shape[1], size=m_try, replace=False))
        split = _best_split(x, y, idx, feats, min_leaf)
        if split is None or split[0] <= 0.0:
            return node
        _, f, thr = split
        mask = x[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(x.shape[0]), 0)
    return TreeArrays(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def rf_fit(values, targets, config: ForestConfig | None = None) -> ForestModel:
    """Fit a seeded random forest regressor to the rows of the profile
    array `values`.

    Each tree draws a bootstrap sample and, at every node, a random subset of
    ceil(R/3) candidate features; splits greedily minimize within-node target
    variance, leaves carry the mean target. Constant targets legitimately
    produce single-leaf trees.
    """
    config = config or ForestConfig()
    config.validate()
    x = np.asarray(values, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"profile matrix must be 2-D, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ConfigError("targets must align with profile rows")
    if x.shape[0] < 5:
        raise DegenerateInputError(
            f"forest fit needs >= 5 subjects, got {x.shape[0]}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateInputError("forest fit requires finite inputs")
    n, r = x.shape
    m_try = min(r, math.ceil(r / 3))
    base = np.random.default_rng(config.seed)
    tree_seeds = base.integers(0, 2**63, size=config.n_trees, dtype=np.uint64)
    trees = []
    for seed in tree_seeds:
        rng = np.random.default_rng(int(seed))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(x[boot], y[boot], rng, config.max_depth,
                                config.min_leaf, m_try))
    return ForestModel(
        trees=trees,
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        min_leaf=config.min_leaf,
        features_per_split=m_try,
        feature_count=r,
        tree_seeds=tree_seeds,
    )


def forest_predict(model: ForestModel, x) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.feature_count:
        raise ConfigError(
            f"expected {model.feature_count} features, got {x.shape[1]}")
    out = np.zeros(x.shape[0])
    for tree in model.trees:
        out += tree.predict(x)
    return out / model.n_trees
