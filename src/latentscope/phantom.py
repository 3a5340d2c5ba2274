"""Seeded phantom-cohort generator with planted group effects.

A phantom cohort substitutes for clinical data: a Voronoi parcellation of the
voxel grid plays the atlas, a smoothed random template plays anatomy, and
per-(region, class) mean shifts plant recoverable ground-truth effects.

Construction per subject: smoothed template + crisp per-region class shifts
+ smoothed i.i.d. Gaussian noise, clamped to [0,1]. The shifts are applied
after smoothing on purpose: a region's planted mean shift then survives
exactly (up to noise), which is what makes shift-recovery tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .data import AtlasMap, Cohort, Subject, VALID_CLASS_LABELS, Volume
from .errors import ConfigError

# voxels voronoi_atlas labels per step: 3 MB of distances at 32 regions
_ATLAS_BLOCK = 4096


@dataclass
class PhantomConfig:
    dims: tuple[int, int, int] = (32, 32, 32)
    region_count: int = 32
    class_counts: dict[int, int] = field(
        default_factory=lambda: {0: 30, 1: 30, 2: 30, 3: 30}
    )
    # (region id, class label, mean intensity shift in [-1,1])
    effect_spec: list[tuple[int, int, float]] = field(default_factory=list)
    noise_sigma: float = 0.05
    smoothness: float = 2.0
    template_range: tuple[float, float] = (0.3, 0.7)
    seed: int = 0

    def validate(self) -> None:
        if len(self.dims) != 3 or any(int(d) <= 0 for d in self.dims):
            raise ConfigError(f"bad dims {self.dims}")
        if self.region_count < 2:
            raise ConfigError("region_count must be >= 2")
        n_voxels = int(np.prod(self.dims))
        if n_voxels < self.region_count:
            raise ConfigError(
                f"dims {self.dims} too small to host {self.region_count} regions"
            )
        if not self.class_counts:
            raise ConfigError("class_counts must be nonempty")
        for label, count in self.class_counts.items():
            if label not in VALID_CLASS_LABELS:
                raise ConfigError(f"unknown class label {label}")
            if count < 0:
                raise ConfigError(f"negative count for class {label}")
        for region, label, shift in self.effect_spec:
            if not (1 <= region <= self.region_count):
                raise ConfigError(f"effect region {region} out of range")
            if label not in VALID_CLASS_LABELS:
                raise ConfigError(f"effect class {label} unknown")
            if not (-1.0 <= shift <= 1.0):
                raise ConfigError(f"effect shift {shift} outside [-1,1]")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.smoothness < 0:
            raise ConfigError("smoothness must be >= 0")
        lo, hi = self.template_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"template_range {self.template_range} invalid")


def voronoi_atlas(dims: tuple[int, int, int], region_count: int, rng) -> AtlasMap:
    """Voronoi cells of region_count distinct seeded voxel centroids.

    Cells of point sites are convex, hence contiguous on the grid, and each
    contains at least its own centroid voxel. Voxels are labelled
    _ATLAS_BLOCK at a time (in C order), so the distance temporaries stay
    (block x regions x 3) whatever the grid size; each voxel's distances
    are those of the one-shot (voxels x regions x 3) formula.
    """
    n_voxels = int(np.prod(dims))
    flat = rng.choice(n_voxels, size=region_count, replace=False)
    centroids = np.stack(np.unravel_index(flat, dims), axis=1).astype(np.float64)
    labels = np.empty(n_voxels, dtype=np.uint32)
    for start in range(0, n_voxels, _ATLAS_BLOCK):
        voxel = np.arange(start, min(start + _ATLAS_BLOCK, n_voxels))
        grid = np.stack(np.unravel_index(voxel, dims), axis=1).astype(np.float64)
        # squared Euclidean distance to every centroid; nearest wins, ties to
        # the lowest centroid index (argmin convention) for determinism
        d2 = ((grid[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[start : start + len(voxel)] = np.argmin(d2, axis=1) + 1
    return AtlasMap(labels=labels.reshape(dims), region_count=region_count)


def _smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return a
    return gaussian_filter(a, sigma=sigma, mode="nearest")


def generate_phantom_cohort(config: PhantomConfig) -> Cohort:
    """Deterministic cohort for a fixed config (seed included in the config)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    atlas = voronoi_atlas(config.dims, config.region_count, rng)

    lo, hi = config.template_range
    base = rng.uniform(lo, hi, size=config.region_count)
    template = _smooth(base[atlas.labels - 1], config.smoothness)

    # per-class crisp shift fields (not smoothed; see module docstring)
    shift_fields: dict[int, np.ndarray] = {}
    for region, label, shift in config.effect_spec:
        if label not in shift_fields:
            shift_fields[label] = np.zeros(config.dims, dtype=np.float64)
        shift_fields[label][atlas.labels == region] += shift

    subjects: list[Subject] = []
    index = 0
    for label in sorted(config.class_counts):
        shift_field = shift_fields.get(label)
        for _ in range(config.class_counts[label]):
            vol = template.copy()
            if shift_field is not None:
                vol = vol + shift_field
            if config.noise_sigma > 0:
                noise = rng.normal(0.0, config.noise_sigma, size=config.dims)
                vol = vol + _smooth(noise, config.smoothness)
            vol = np.clip(vol, 0.0, 1.0)
            subjects.append(
                Subject(
                    id=f"S{index:04d}",
                    class_label=label,
                    volume=Volume(vol.astype(np.float32)),
                )
            )
            index += 1
    return Cohort(subjects=subjects, atlas=atlas, seed=config.seed)
