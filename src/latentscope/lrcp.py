"""Latent-Regional Correlation Profiling.

Every (comparison, method, layer, component, region) cell gets two verdicts:
a pooled Pearson correlation with exact p-value, and a bound-corrected
resubstitution error of a least-squares classifier on the two features
(component value, region value). The four-way category crosses the verdicts;
summary counts follow the classification branch alone.

`lrcp_grid` keeps its cells in one structured array (`CELL_DTYPE`), in
(comparison, method, layer, component, region) order with the region
fastest; `grid.cells.reshape(grid.shape)` is the 5-D view, and the
pipeline's `grid.csv` lists the cells in the same order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .data import AtlasMap, CLASS_NAMES, RegionProfileMatrix, Volume, balanced_indices
from .errors import ConfigError, DegenerateInputError, DependencyError, ShapeError
from .regionstats import ALPHA, _block
from .seeds import derive_seed
from .validation import BoundConfig, pac_bayes_penalty

CATEGORIES = ("both", "corr_only", "class_only", "neither")

CELL_DTYPE = np.dtype([("n", np.int64), ("r", np.float64), ("p_value", np.float64),
                       ("empirical_error", np.float64),
                       ("corrected_error", np.float64), ("category", "U10")])


@dataclass
class LRCPCell:
    n: int
    r: float
    p_value: float
    empirical_error: float
    corrected_error: float
    category: str
    flags: list[str] = field(default_factory=list)

    @property
    def corr_significant(self) -> bool:
        return self.p_value < ALPHA

    @property
    def class_significant(self) -> bool:
        return self.corrected_error < 0.5


@dataclass
class LRCPGrid:
    cells: np.ndarray  # CELL_DTYPE records in (comparison, ..., region) order
    comparisons: list[str]
    methods: list[str]
    layers: list[str]
    components: list[int]
    region_ids: list[int]

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        return (len(self.comparisons), len(self.methods), len(self.layers),
                len(self.components), len(self.region_ids))


def _classify(features: np.ndarray, targets: np.ndarray) -> float:
    """Resubstitution error of a least-squares linear classifier.

    Targets are +-1; predictions take the sign of the fitted response, with
    sign(0) counted as +1 so the error is deterministic.
    """
    design = np.column_stack([features, np.ones(features.shape[0])])
    weights, *_ = np.linalg.lstsq(design, targets, rcond=None)
    scores = design @ weights
    predicted = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(predicted != targets))


def _targets(labels: np.ndarray, what: str) -> np.ndarray:
    """+-1 classifier targets (-1 for the lower class id) of a label vector
    that holds exactly two classes, each with at least 5 subjects."""
    classes = np.unique(labels)
    if classes.size != 2:
        raise ConfigError(f"{what} needs exactly 2 classes, got {classes.size}")
    counts = [int((labels == c).sum()) for c in classes]
    if min(counts) < 5:
        raise DegenerateInputError(
            f"{what} has class counts {counts}; both classes need >= 5 subjects")
    return np.where(labels == classes[0], -1.0, 1.0)


def _penalty(bound: BoundConfig, quadratic: bool, n: int) -> float:
    """PAC-Bayes penalty for the classifier's parameter count: 3 for the
    linear model, 4 with the product term."""
    return pac_bayes_penalty(4 if quadratic else 3, bound.eta, n, bound.delta)


def _verdicts(x: np.ndarray, y: np.ndarray, targets: np.ndarray, penalty: float,
              quadratic: bool) -> list[tuple]:
    """(r, p, empirical error, corrected error, category) of every cell of
    x (n x components) against y (n x regions), component-major. r and p
    come from one `regionstats._block` call; a constant feature leaves r
    undefined (NaN) and makes the cell "neither"."""
    block = _block(x, y)
    verdicts = []
    for component, j in np.ndindex(block.r.shape):
        r, p = block.r[component, j], block.p[component, j]
        features = np.column_stack([x[:, component], y[:, j]])
        if quadratic:
            features = np.column_stack([features, x[:, component] * y[:, j]])
        emp_error = _classify(features, targets)
        corrected = min(1.0, emp_error + penalty)
        if np.isnan(r):
            category = "neither"
        else:
            # CATEGORIES runs both, corr_only, class_only, neither
            category = CATEGORIES[2 * (not p < ALPHA) + (not corrected < 0.5)]
        verdicts.append((float(r), float(p), emp_error, corrected, category))
    return verdicts


def lrcp_cell(component_values, region_values, labels, bound: BoundConfig | None = None,
              quadratic: bool = False) -> LRCPCell:
    """Evaluate one latent-region pair for one binary comparison.

    labels must contain exactly two distinct values, each with at least 5
    subjects. The classification penalty uses the parameter count of the
    fitted model: 3 for the linear classifier, 4 with the product term.
    """
    bound = bound or BoundConfig()
    bound.validate()
    x = np.asarray(component_values, dtype=np.float64)
    y = np.asarray(region_values, dtype=np.float64)
    labels = np.asarray(labels)
    if x.shape != y.shape or x.ndim != 1 or labels.shape != x.shape:
        raise ShapeError("component, region and label vectors must align")
    targets = _targets(labels, "LRCP cell")
    (verdict,) = _verdicts(x[:, None], y[:, None], targets,
                           _penalty(bound, quadratic, x.size), quadratic)
    return LRCPCell(x.size, *verdict, flags=(
        ["degenerate_constant_feature"] if np.isnan(verdict[0]) else []))


def _comparison_name(class_pair) -> str:
    return "_".join(CLASS_NAMES[c] for c in class_pair)


def lrcp_grid(embeddings: dict, profiles: RegionProfileMatrix, labels,
              comparisons, bound: BoundConfig | None = None, seed: int = 0,
              quadratic: bool = False) -> LRCPGrid:
    """Build the full comparisons x methods x layers x components x regions grid.

    embeddings maps (method, layer) or (comparison_name, method, layer) to an
    EmbeddingMatrix; the comparison-specific key wins, so per-comparison fits
    and pooled fits both work. Embedding rows are matched to profile rows by
    subject id, then balanced-subset per comparison with a seed derived from
    (seed, comparison, method, layer).

    comparisons is a list of (name, (class_a, class_b)) pairs or bare class
    pairs; only binary comparisons are supported.
    """
    bound = bound or BoundConfig()
    bound.validate()
    labels = np.asarray(labels)
    if labels.shape[0] != profiles.values.shape[0]:
        raise ShapeError("labels must align with profile rows")
    row_of = {sid: i for i, sid in enumerate(profiles.subject_ids)}

    named = []
    for item in comparisons:
        if isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[0], str):
            name, pair = item
        else:
            pair = tuple(item)
            name = _comparison_name(pair)
        pair = tuple(int(c) for c in pair)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ConfigError(f"comparison {name!r} must name two distinct classes")
        named.append((name, pair))
    if not named:
        raise ConfigError("LRCP needs at least one comparison")

    methods = sorted({k[-2] for k in embeddings})
    layers = sorted({k[-1] for k in embeddings})
    n_components = min(e.n_components for e in embeddings.values())
    components = list(range(n_components))
    region_ids = [int(r) for r in profiles.region_ids]

    rows = []
    for name, pair in named:
        for method in methods:
            for layer in layers:
                emb = embeddings.get((name, method, layer))
                if emb is None:
                    emb = embeddings.get((method, layer))
                if emb is None:
                    raise DependencyError(
                        f"no embedding for comparison {name!r}, method {method!r}, "
                        f"layer {layer!r}")
                try:
                    emb_rows = np.array([row_of[sid] for sid in emb.subject_ids])
                except KeyError as exc:
                    raise ShapeError(
                        f"embedding subject {exc.args[0]!r} missing from profiles")
                sub_labels = labels[emb_rows]
                keep = balanced_indices(sub_labels, pair,
                                        derive_seed(seed, name, method, layer))
                targets = _targets(sub_labels[keep], f"comparison {name!r}")
                penalty = _penalty(bound, quadratic, targets.size)
                rows.extend((targets.size, *verdict) for verdict in _verdicts(
                    emb.values[keep][:, :n_components], profiles.values[emb_rows][keep],
                    targets, penalty, quadratic))
    return LRCPGrid(
        cells=np.array(rows, dtype=CELL_DTYPE),
        comparisons=[name for name, _ in named],
        methods=methods,
        layers=layers,
        components=components,
        region_ids=region_ids,
    )


def summary_counts(grid: LRCPGrid) -> dict:
    """Significant / non-significant region counts per grid slice.

    Keyed by (comparison, method, layer, component); significance follows
    the classification branch (corrected error < 0.5). Counts always sum to
    the region count. A degenerate cell (a constant feature, category
    "neither", r undefined) still counts as significant when its corrected
    error is below 0.5, so `summary.csv` and `grid.csv` can disagree about it.
    """
    significant = (grid.cells["corrected_error"] < 0.5).reshape(grid.shape).sum(axis=-1)
    keys = itertools.product(grid.comparisons, grid.methods, grid.layers,
                             grid.components)
    regions = len(grid.region_ids)
    return {key: (int(sig), regions - int(sig))
            for key, sig in zip(keys, significant.ravel())}


def accuracy_map(grid: LRCPGrid, comparison: str, method: str, layer: str,
                 component: int, atlas: AtlasMap) -> Volume:
    """Paint per-region corrected accuracy (1 - corrected error) as a volume."""
    try:
        index = (grid.comparisons.index(comparison), grid.methods.index(method),
                 grid.layers.index(layer), grid.components.index(component))
    except ValueError:
        raise ConfigError(
            f"grid has no cells for ({comparison!r}, {method!r}, {layer!r}, "
            f"component {component})") from None
    if sorted(grid.region_ids) != list(range(1, atlas.region_count + 1)):
        raise ShapeError(
            f"grid regions {sorted(grid.region_ids)[:5]}... do not match atlas "
            f"with {atlas.region_count} regions")
    errors = grid.cells["corrected_error"].reshape(grid.shape)[index]
    lookup = np.zeros(atlas.region_count + 1)
    lookup[grid.region_ids] = np.clip(1.0 - errors, 0.0, 1.0)
    return Volume(lookup[atlas.labels].astype(np.float32))
