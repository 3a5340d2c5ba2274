"""Phantom cohort generator: determinism, planted effects, config checks."""

import tracemalloc

import numpy as np
import pytest

from latentscope import phantom
from latentscope.data import build_region_profiles
from latentscope.errors import ConfigError
from latentscope.phantom import (PhantomConfig, generate_phantom_cohort,
                                 voronoi_atlas)


def test_zero_noise_no_effects_gives_identical_subjects():
    cfg = PhantomConfig(dims=(8, 8, 8), region_count=4,
                        class_counts={0: 3, 3: 3},
                        noise_sigma=0.0, smoothness=1.0, seed=5)
    cohort = generate_phantom_cohort(cfg)
    first = cohort.subjects[0].volume.voxels
    for s in cohort.subjects[1:]:
        assert np.array_equal(s.volume.voxels, first)


def test_default_class_counts_give_818_subjects():
    cfg = PhantomConfig(dims=(8, 8, 8), region_count=8,
                        class_counts={0: 229, 1: 252, 2: 149, 3: 188},
                        noise_sigma=0.0, smoothness=0.0, seed=0)
    cohort = generate_phantom_cohort(cfg)
    assert len(cohort) == 818
    assert cohort.class_counts() == {0: 229, 1: 252, 2: 149, 3: 188}


def test_seeded_generation_is_bit_identical():
    cfg = PhantomConfig(dims=(8, 8, 8), region_count=4,
                        class_counts={0: 2, 1: 2},
                        effect_spec=[(2, 1, 0.2)],
                        noise_sigma=0.05, smoothness=1.0, seed=7)
    a = generate_phantom_cohort(cfg)
    b = generate_phantom_cohort(cfg)
    assert np.array_equal(a.atlas.labels, b.atlas.labels)
    for sa, sb in zip(a.subjects, b.subjects):
        assert sa.id == sb.id
        assert sa.class_label == sb.class_label
        assert np.array_equal(sa.volume.voxels, sb.volume.voxels)


def test_different_seeds_differ():
    base = dict(dims=(8, 8, 8), region_count=4, class_counts={0: 2},
                noise_sigma=0.05, smoothness=1.0)
    a = generate_phantom_cohort(PhantomConfig(seed=0, **base))
    b = generate_phantom_cohort(PhantomConfig(seed=1, **base))
    assert not np.array_equal(a.subjects[0].volume.voxels,
                              b.subjects[0].volume.voxels)


def test_voxels_stay_in_unit_interval(small_cohort):
    for s in small_cohort.subjects:
        v = s.volume.voxels
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_planted_shift_survives_in_profiles():
    shift = 0.3
    cfg = PhantomConfig(dims=(16, 16, 16), region_count=8,
                        class_counts={0: 20, 3: 20},
                        effect_spec=[(5, 3, shift)],
                        noise_sigma=0.02, smoothness=1.5, seed=13)
    cohort = generate_phantom_cohort(cfg)
    profiles = build_region_profiles(cohort)
    labels = cohort.class_labels
    col = list(profiles.region_ids).index(5)
    observed = (profiles.values[labels == 3, col].mean()
                - profiles.values[labels == 0, col].mean())
    region_voxels = int((cohort.atlas.labels == 5).sum())
    tol = max(3 * cfg.noise_sigma / np.sqrt(region_voxels), 5e-3)
    assert observed == pytest.approx(shift, abs=tol)


def test_unshifted_regions_stay_put():
    cfg = PhantomConfig(dims=(16, 16, 16), region_count=8,
                        class_counts={0: 20, 3: 20},
                        effect_spec=[(5, 3, 0.3)],
                        noise_sigma=0.02, smoothness=1.5, seed=13)
    cohort = generate_phantom_cohort(cfg)
    profiles = build_region_profiles(cohort)
    labels = cohort.class_labels
    for col, region in enumerate(profiles.region_ids):
        if region == 5:
            continue
        gap = abs(profiles.values[labels == 3, col].mean()
                  - profiles.values[labels == 0, col].mean())
        assert gap < 0.02


def test_voronoi_atlas_covers_all_regions():
    rng = np.random.default_rng(21)
    atlas = voronoi_atlas((10, 10, 10), 16, rng)
    present = np.unique(atlas.labels)
    assert set(range(1, 17)) <= set(int(p) for p in present)


class _FixedCentroids:
    """An rng stand-in whose `choice` returns the given flat voxel indices."""

    def __init__(self, flat):
        self.flat = np.asarray(flat)

    def choice(self, n, size, replace):
        assert (size, replace) == (len(self.flat), False) and self.flat.max() < n
        return self.flat


def one_shot_labels(dims, flat):
    """The (voxels x regions x 3) formula the blocked labelling replaces."""
    centroids = np.stack(np.unravel_index(flat, dims), axis=1).astype(np.float64)
    grid = np.stack(
        np.meshgrid(*[np.arange(d, dtype=np.float64) for d in dims], indexing="ij"),
        axis=-1,
    ).reshape(-1, 3)
    d2 = ((grid[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return (np.argmin(d2, axis=1) + 1).astype(np.uint32).reshape(dims)


class TestBlockedVoronoi:
    def test_ragged_last_block_matches_one_shot(self):
        dims = (17, 19, 23)  # 7,429 voxels: one full block and a short one
        assert np.prod(dims) % phantom._ATLAS_BLOCK
        flat = np.random.default_rng(4).choice(np.prod(dims), 12, replace=False)
        labels = voronoi_atlas(dims, 12, _FixedCentroids(flat)).labels
        want = one_shot_labels(dims, flat)
        assert labels.dtype == want.dtype and labels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_equidistant_ties_go_to_the_lowest_index(self, monkeypatch, block):
        monkeypatch.setattr(phantom, "_ATLAS_BLOCK", block)
        dims = (5, 5, 5)
        flat = [124, 0, 4, 120]  # four corners: the centre is equidistant
        labels = voronoi_atlas(dims, 4, _FixedCentroids(flat)).labels
        assert labels[2, 2, 2] == 1
        assert labels[0, 0, 2] == 2  # between centroids 2 (index 1) and 3
        assert labels.tobytes() == one_shot_labels(dims, flat).tobytes()

    def test_peak_memory_is_pinned(self):
        tracemalloc.start()
        try:
            voronoi_atlas((64, 64, 64), 32, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 6 MiB; the one-shot (64^3 x 32 x 3) distances took 262 MiB
        assert peak < 16 * 2**20


class TestConfigValidation:
    def test_dims_too_small_for_regions(self):
        cfg = PhantomConfig(dims=(2, 2, 2), region_count=32,
                            class_counts={0: 1})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_class_label(self):
        cfg = PhantomConfig(class_counts={9: 3})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_negative_count(self):
        cfg = PhantomConfig(class_counts={0: -1})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_effect_region_out_of_range(self):
        cfg = PhantomConfig(region_count=8, class_counts={0: 1},
                            effect_spec=[(9, 0, 0.1)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_effect_shift_out_of_range(self):
        cfg = PhantomConfig(class_counts={0: 1}, effect_spec=[(1, 0, 1.5)])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_template_range(self):
        cfg = PhantomConfig(class_counts={0: 1}, template_range=(0.9, 0.2))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_negative_noise(self):
        cfg = PhantomConfig(class_counts={0: 1}, noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            cfg.validate()
