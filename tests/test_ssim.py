"""Windowed 3D structural similarity: identities, symmetry, gradient."""

import numpy as np
import pytest

from latentscope.ssim import C1, C2, ssim3d, ssim3d_with_grad


def _pair(seed, dims=(9, 9, 9), scale=0.2):
    rng = np.random.default_rng(seed)
    x = np.clip(0.5 + scale * rng.normal(size=dims), 0, 1)
    y = np.clip(0.5 + scale * rng.normal(size=dims), 0, 1)
    return x, y


def test_self_similarity_is_exactly_one():
    x, _ = _pair(0)
    assert ssim3d(x, x) == 1.0


def test_constant_equal_volumes():
    x = np.full((8, 8, 8), 0.3)
    assert ssim3d(x, x.copy()) == 1.0


def test_symmetry():
    x, y = _pair(1)
    assert ssim3d(x, y) == pytest.approx(ssim3d(y, x), abs=1e-14)


def test_bounded_above_by_one():
    for seed in range(5):
        x, y = _pair(seed)
        assert ssim3d(x, y) <= 1.0


def test_dissimilar_volumes_score_low():
    x = np.zeros((8, 8, 8))
    y = np.ones((8, 8, 8))
    assert ssim3d(x, y) < 0.1


def test_similar_volumes_score_high():
    x, _ = _pair(2)
    y = np.clip(x + 0.01 * np.random.default_rng(3).normal(size=x.shape), 0, 1)
    assert ssim3d(x, y) > 0.9


def test_window_shrinks_for_small_volumes():
    x, y = (np.full((3, 3, 3), 0.4), np.full((3, 3, 3), 0.6))
    value = ssim3d(x, y)  # must not raise despite dims < default window
    assert 0.0 <= value <= 1.0


def test_grad_value_matches_plain_ssim():
    x, y = _pair(4)
    value, _ = ssim3d_with_grad(x, y)
    assert value == pytest.approx(ssim3d(x, y), abs=1e-14)


def test_gradient_matches_finite_differences():
    x, y = _pair(5, dims=(7, 7, 7))
    _, grad = ssim3d_with_grad(x, y)
    rng = np.random.default_rng(6)
    eps = 1e-6
    flat = x.reshape(-1)
    for idx in rng.choice(flat.size, size=8, replace=False):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = ssim3d(x, y)
        flat[idx] = orig - eps
        down = ssim3d(x, y)
        flat[idx] = orig
        fd = (up - down) / (2 * eps)
        assert grad.reshape(-1)[idx] == pytest.approx(fd, abs=1e-6)


# Reference copies of ssim3d_with_grad, ssim3d and their filters as they
# were written before they ran in reused buffers: cumulative sums with a
# concatenated zero, np.roll for the spread, and a fresh array per step.
# The buffered versions must give the same bits.

def _ref_box_valid(a, w, axis):
    cs = np.cumsum(a, axis=axis)
    pad_shape = list(a.shape)
    pad_shape[axis] = 1
    cs = np.concatenate([np.zeros(pad_shape, dtype=a.dtype), cs], axis=axis)
    upper = [slice(None)] * a.ndim
    lower = [slice(None)] * a.ndim
    upper[axis] = slice(w, None)
    lower[axis] = slice(0, a.shape[axis] - w + 1)
    return cs[tuple(upper)] - cs[tuple(lower)]


def _ref_box3(a, w):
    for axis in range(3):
        a = _ref_box_valid(a, w, axis)
    return a


def _ref_spread_axis(g, w, axis, out_len):
    pad_shape = list(g.shape)
    pad_shape[axis] = out_len - g.shape[axis]
    gp = np.concatenate([g, np.zeros(pad_shape, dtype=g.dtype)], axis=axis)
    cs = np.cumsum(gp, axis=axis)
    shifted = np.roll(cs, w, axis=axis)
    idx = [slice(None)] * g.ndim
    idx[axis] = slice(0, w)
    shifted[tuple(idx)] = 0.0
    return cs - shifted


def _ref_spread3(g, w, out_shape):
    for axis in range(3):
        g = _ref_spread_axis(g, w, axis, out_shape[axis])
    return g


def _ref_moments(x, y, w):
    p = float(w**3)
    mx = _ref_box3(x, w) / p
    my = _ref_box3(y, w) / p
    vx = _ref_box3(x * x, w) / p - mx * mx
    vy = _ref_box3(y * y, w) / p - my * my
    cxy = _ref_box3(x * y, w) / p - mx * my
    return mx, my, vx, vy, cxy, p


def _ref_ssim3d(x, y):
    w = min(7, min(x.shape))
    mx, my, vx, vy, cxy, _ = _ref_moments(x, y, w)
    a1 = 2.0 * mx * my + C1
    a2 = 2.0 * cxy + C2
    b1 = mx * mx + my * my + C1
    b2 = vx + vy + C2
    return float(np.mean((a1 * a2) / (b1 * b2)))


def _ref_ssim3d_with_grad(x, y):
    w = min(7, min(x.shape))
    mx, my, vx, vy, cxy, p = _ref_moments(x, y, w)
    a1 = 2.0 * mx * my + C1
    a2 = 2.0 * cxy + C2
    b1 = mx * mx + my * my + C1
    b2 = vx + vy + C2
    s = (a1 * a2) / (b1 * b2)
    n_windows = s.size
    g_mu = 2.0 * (my * a2 * b1 - mx * a1 * a2) / (b1 * b1 * b2)
    g_v = -(a1 * a2) / (b1 * b2 * b2)
    g_c = 2.0 * a1 / (b1 * b2)
    grad = _ref_spread3(g_mu - 2.0 * g_v * mx - g_c * my, w, x.shape)
    grad += 2.0 * x * _ref_spread3(g_v, w, x.shape)
    grad += y * _ref_spread3(g_c, w, x.shape)
    grad /= n_windows * p
    return float(np.mean(s)), grad


@pytest.mark.parametrize("dims", [(5, 9, 7), (16, 16, 16), (33, 31, 29), (61, 73, 61)])
def test_matches_reference_bitwise(dims):
    """Value and gradient keep the reference's bits, into a fresh array
    and into out=; 5 x 9 x 7 shrinks the window to 5. Signed zeros in x
    reach the spread's zero tail."""
    x, y = _pair(dims[0], dims=dims)
    x[0] = -0.0
    inputs = [x.copy(), y.copy()]
    value, grad = _ref_ssim3d_with_grad(x, y)
    assert ssim3d(x, y) == _ref_ssim3d(x, y)
    got_value, got = ssim3d_with_grad(x, y)
    assert got_value == value and got.tobytes() == grad.tobytes()
    out = np.full(dims, np.nan)
    got_value, got = ssim3d_with_grad(x, y, out=out)
    assert got is out and got_value == value and out.tobytes() == grad.tobytes()
    assert x.tobytes() == inputs[0].tobytes() and y.tobytes() == inputs[1].tobytes()
