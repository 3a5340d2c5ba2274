"""Core data model: volumes, atlases, subjects, cohorts, region profiles.

Volumes are dense 3D scalar fields with intensities in [0,1], float32 in
(dx, dy, dz) index order, read through `Volume.voxels`: held in memory, or
read from the volume's file on each use (`fileio.StoredVolume`, what
`fileio.load_cohort` builds), so a stage holds one subject's voxels at a
time, not the cohort's. Atlases share the volume grid and assign every
voxel a region id in {0..R}, 0 meaning background. All region statistics
exclude background voxels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateInputError, ShapeError

CLASS_NOR = 0
CLASS_MCI = 1
CLASS_MCIC = 2
CLASS_AD = 3

CLASS_NAMES = {CLASS_NOR: "NOR", CLASS_MCI: "MCI", CLASS_MCIC: "MCIc", CLASS_AD: "AD"}
CLASS_IDS = {name: label for label, name in CLASS_NAMES.items()}
VALID_CLASS_LABELS = frozenset(CLASS_NAMES)


class Volume:
    """Dense scalar field with values in [0,1], float32 in (dx, dy, dz) order.

    `voxels` is the one way to the values. A volume built from an array holds
    it and returns it as stored; a `fileio.StoredVolume` holds only its path
    and dims and reads the file on every call. Consumers read one volume at
    a time through `voxels`, so a cohort loaded from disk is never in memory
    as a whole.
    """

    def __init__(self, voxels):
        voxels = np.asarray(voxels, dtype=np.float32)
        if voxels.ndim != 3:
            raise ShapeError(f"volume must be 3D, got shape {voxels.shape}")
        if any(d <= 0 for d in voxels.shape):
            raise ShapeError(f"volume dims must be positive, got {voxels.shape}")
        if not np.isfinite(voxels).all():
            raise ValueError("volume contains non-finite voxels")
        lo, hi = float(voxels.min()), float(voxels.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"voxel values outside [0,1]: min={lo}, max={hi}")
        self._voxels = voxels

    @property
    def voxels(self) -> np.ndarray:
        return self._voxels

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self._voxels.shape)


@dataclass
class AtlasMap:
    """Per-voxel region labels in {0..R}; every id in 1..R occurs."""

    labels: np.ndarray
    region_count: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint32)
        if self.labels.ndim != 3:
            raise ShapeError(f"atlas must be 3D, got shape {self.labels.shape}")
        self.region_count = int(self.region_count)
        if self.region_count < 1:
            raise ValueError("region_count must be >= 1")
        max_label = int(self.labels.max())
        if max_label > self.region_count:
            raise ValueError(
                f"label {max_label} exceeds region_count {self.region_count}"
            )
        # every id in 1..R on its own voxel needs R <= voxels; checked first,
        # so that a forged label cannot size the id array below
        if self.region_count > self.labels.size:
            raise ValueError(f"region_count {self.region_count} exceeds the "
                             f"atlas's {self.labels.size} voxels")
        present = np.unique(self.labels)
        wanted = np.arange(1, self.region_count + 1, dtype=np.uint32)
        missing = np.setdiff1d(wanted, present)
        if missing.size:
            raise ValueError(f"region ids missing from atlas: {missing.tolist()}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(int(d) for d in self.labels.shape)


@dataclass
class Subject:
    id: str
    class_label: int
    volume: Volume

    def __post_init__(self):
        if self.class_label not in VALID_CLASS_LABELS:
            raise ValueError(f"class_label must be one of 0..3, got {self.class_label}")


@dataclass
class Cohort:
    """Ordered list of subjects sharing one atlas grid: a volume on other
    dims than the atlas's is a ShapeError, and a repeated subject id a
    ValueError."""

    subjects: list[Subject]
    atlas: AtlasMap

    def __post_init__(self):
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValueError("subject ids must be unique")
        for s in self.subjects:
            if s.volume.dims != self.atlas.dims:
                raise ShapeError(
                    f"subject {s.id} dims {s.volume.dims} != atlas dims {self.atlas.dims}"
                )

    def __len__(self) -> int:
        return len(self.subjects)

    @property
    def class_labels(self) -> np.ndarray:
        return np.array([s.class_label for s in self.subjects], dtype=np.int64)

    @property
    def subject_ids(self) -> list[str]:
        return [s.id for s in self.subjects]

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.subjects:
            counts[s.class_label] = counts.get(s.class_label, 0) + 1
        return counts


@dataclass
class RegionProfileMatrix:
    """n_subjects x R matrix of mean region intensities (row i = subject i)."""

    values: np.ndarray
    subject_ids: list[str]
    region_ids: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("profile matrix must be 2D")
        if self.values.shape[0] != len(self.subject_ids):
            raise ShapeError("profile row count != subject id count")
        if self.region_ids is None:
            self.region_ids = np.arange(1, self.values.shape[1] + 1, dtype=np.int64)
        else:
            self.region_ids = np.asarray(self.region_ids, dtype=np.int64)
        if self.region_ids.shape[0] != self.values.shape[1]:
            raise ShapeError("region id count != profile column count")


def region_means(volume: Volume, atlas: AtlasMap) -> np.ndarray:
    """Mean intensity per region id 1..R, background (label 0) excluded."""
    if volume.dims != atlas.dims:
        raise ShapeError(f"volume dims {volume.dims} != atlas dims {atlas.dims}")
    labels = atlas.labels.ravel()
    vals = volume.voxels.ravel().astype(np.float64)
    r = atlas.region_count
    sums = np.bincount(labels, weights=vals, minlength=r + 1)
    counts = np.bincount(labels, minlength=r + 1)
    empty = np.nonzero(counts[1:] == 0)[0]
    if empty.size:
        raise DegenerateInputError(f"empty region id {int(empty[0]) + 1}")
    return sums[1:] / counts[1:]


def build_region_profiles(cohort: Cohort) -> RegionProfileMatrix:
    """Stack region_means of every subject, rows in cohort order; each
    subject's voxels are read once and dropped before the next's."""
    if len(cohort) == 0:
        raise DegenerateInputError("cohort is empty")
    rows = [region_means(s.volume, cohort.atlas) for s in cohort.subjects]
    return RegionProfileMatrix(
        values=np.vstack(rows),
        subject_ids=cohort.subject_ids,
        region_ids=np.arange(1, cohort.atlas.region_count + 1, dtype=np.int64),
    )


def balanced_indices(labels, groups, seed: int) -> np.ndarray:
    """Ascending indices of a seeded balanced subsample of the requested
    classes.

    Every requested class is downsampled (uniform, without replacement, one
    draw per class in ascending class order from one generator seeded with
    `seed`) to the minimum requested-class count; other labels are dropped.
    """
    labels = np.asarray(labels)
    groups = sorted(set(int(g) for g in groups))
    if not groups:
        raise ConfigError("balancing needs at least one class")
    per_class = [np.flatnonzero(labels == g) for g in groups]
    for g, idx in zip(groups, per_class):
        if idx.size == 0:
            raise ConfigError(f"requested class {CLASS_NAMES.get(g, g)} absent from cohort")
    target = min(idx.size for idx in per_class)
    rng = np.random.default_rng(seed)
    keep = [idx if idx.size == target else idx[rng.choice(idx.size, size=target, replace=False)]
            for idx in per_class]
    return np.sort(np.concatenate(keep))


def balanced_subset(cohort: Cohort, groups: set[int], seed: int) -> Cohort:
    """The subjects `balanced_indices` picks from the cohort's labels, in
    cohort order, so an already-balanced cohort comes back with identical
    membership and order."""
    keep = balanced_indices([s.class_label for s in cohort.subjects], groups, seed)
    subjects = [cohort.subjects[i] for i in keep]
    return Cohort(subjects=subjects, atlas=cohort.atlas)
