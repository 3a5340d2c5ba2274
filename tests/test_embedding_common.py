"""The blocked preprocessing kernels of embedding/common.py: the bits of the
whole-array formulas, and no n x p temporary beside the result."""

import tracemalloc

import numpy as np
import pytest

from latentscope.embedding.common import (COLUMN_BLOCK, ROW_BLOCK, SIGMA_GUARD,
                                          pairwise_sq_dists, standardize)


def whole_standardize(x):
    """`standardize` with the per-feature std over the whole array."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    xc = x - mean
    sigma = xc.std(axis=0)
    degenerate = sigma < SIGMA_GUARD
    scale = np.where(degenerate, 1.0, sigma)
    xc /= scale
    return xc, mean, scale, int(degenerate.sum())


def whole_sq_dists(x):
    """`pairwise_sq_dists` with the row norms over the whole array."""
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


# n: 2, and counts that are not multiples of ROW_BLOCK; p: a one-column
# remainder after whole blocks, and widths around one block
SHAPES = [(2, 2 * COLUMN_BLOCK + 1), (2, 3), (ROW_BLOCK + 1, COLUMN_BLOCK + 1),
          (3 * ROW_BLOCK - 1, 2 * COLUMN_BLOCK + 1), (13, COLUMN_BLOCK - 1),
          (13, COLUMN_BLOCK), (13, COLUMN_BLOCK + 2), (7, 1), (5, 1)]


def _data(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.1, 50.0, size=p)
    x += rng.normal(size=p) * 20.0
    x[:, p // 2] = 0.1  # constant: the degenerate-sigma branch
    return x


@pytest.mark.parametrize("n,p", SHAPES)
def test_standardize_is_the_whole_array_bits(n, p):
    x = _data(n, p, seed=n * 7919 + p)
    got, want = standardize(x), whole_standardize(x)
    assert got[3] == want[3] >= 1
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_standardize_bits_in_either_memory_order(order):
    x = np.asarray(_data(9, 2 * COLUMN_BLOCK + 1, seed=3), order=order)
    for a, b in zip(standardize(x)[:3], whole_standardize(x)[:3]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n,p", SHAPES)
def test_pairwise_sq_dists_is_the_whole_array_bits(n, p):
    x = standardize(_data(n, p, seed=n + p))[0]
    got, want = pairwise_sq_dists(x), whole_sq_dists(x)
    assert got.tobytes() == want.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_standardize_peaks_at_its_output_plus_one_block():
    n, p = 40, 3 * COLUMN_BLOCK + 1
    x = _data(n, p, seed=5)
    output = n * p * 8
    block = n * (COLUMN_BLOCK + 1) * 8
    vectors = 8 * p * 8  # mean, sigma, scale and their temporaries
    assert _traced_peak(standardize, x) < output + block + vectors


def test_pairwise_sq_dists_allocates_no_n_by_p_array():
    n, p = 40, 3 * COLUMN_BLOCK + 1
    x = _data(n, p, seed=6)
    assert 4 * n * n * 8 + ROW_BLOCK * p * 8 < n * p * 8 // 2
    assert _traced_peak(pairwise_sq_dists, x) < n * p * 8 // 2
