"""Windowed 3D SSIM with an analytic gradient.

Uniform cubic window of side WINDOW = 7 (shrunk to the smallest axis for tiny
volumes), constants C1=(0.01)^2 and C2=(0.03)^2 at dynamic range L=1, mean
over all valid window positions. Window sums use cumulative-sum box filters,
so cost is linear in voxel count.

The gradient with respect to x decomposes per window into the three chain
terms through mu_x, sigma_x^2 and sigma_xy; collecting voxel contributions
turns each into an adjoint ("spread") box filter of a per-window coefficient:

    dSSIM/dx = (spread(G_mu - 2 G_v mu_x - G_c mu_y)
                + 2 x spread(G_v) + y spread(G_c)) / (W P)

with G_mu = 2 (mu_y A2 B1 - mu_x A1 A2) / (B1^2 B2),
     G_v  = -A1 A2 / (B1 B2^2),
     G_c  = 2 A1 / (B1 B2),
W the window count and P the voxels per window.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

C1 = 0.01**2
C2 = 0.03**2
WINDOW = 7


def _box_valid(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Sliding-window sums of length w along axis (valid positions only)."""
    cs = np.cumsum(a, axis=axis)
    pad_shape = list(a.shape)
    pad_shape[axis] = 1
    cs = np.concatenate([np.zeros(pad_shape, dtype=a.dtype), cs], axis=axis)
    upper = [slice(None)] * a.ndim
    lower = [slice(None)] * a.ndim
    upper[axis] = slice(w, None)
    lower[axis] = slice(0, a.shape[axis] - w + 1)
    return cs[tuple(upper)] - cs[tuple(lower)]


def _box3(a: np.ndarray, w: int) -> np.ndarray:
    for axis in range(3):
        a = _box_valid(a, w, axis)
    return a


def _spread_axis(g: np.ndarray, w: int, axis: int, out_len: int) -> np.ndarray:
    """Adjoint of _box_valid: scatter each window sum back over its window."""
    pad_shape = list(g.shape)
    pad_shape[axis] = out_len - g.shape[axis]
    gp = np.concatenate([g, np.zeros(pad_shape, dtype=g.dtype)], axis=axis)
    cs = np.cumsum(gp, axis=axis)
    shifted = np.roll(cs, w, axis=axis)
    idx = [slice(None)] * g.ndim
    idx[axis] = slice(0, w)
    shifted[tuple(idx)] = 0.0
    return cs - shifted


def _spread3(g: np.ndarray, w: int, out_shape: tuple[int, int, int]) -> np.ndarray:
    for axis in range(3):
        g = _spread_axis(g, w, axis, out_shape[axis])
    return g


def _window_for(dims: tuple[int, ...]) -> int:
    eff = min(WINDOW, min(dims))
    if eff < 1:
        raise ShapeError(f"dims {dims} too small for any SSIM window")
    return eff


def _moments(x: np.ndarray, y: np.ndarray, w: int):
    p = float(w**3)
    mx = _box3(x, w) / p
    my = _box3(y, w) / p
    vx = _box3(x * x, w) / p - mx * mx
    vy = _box3(y * y, w) / p - my * my
    cxy = _box3(x * y, w) / p - mx * my
    return mx, my, vx, vy, cxy, p


def ssim3d(x: np.ndarray, y: np.ndarray) -> float:
    """Mean windowed SSIM of two 3D arrays; exactly 1.0 when x is y."""
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {y.shape}")
    w = _window_for(x.shape)
    mx, my, vx, vy, cxy, _ = _moments(
        np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64), w
    )
    a1 = 2.0 * mx * my + C1
    a2 = 2.0 * cxy + C2
    b1 = mx * mx + my * my + C1
    b2 = vx + vy + C2
    return float(np.mean((a1 * a2) / (b1 * b2)))


def ssim3d_with_grad(x: np.ndarray, y: np.ndarray):
    """Returns (ssim, dssim/dx). y is held fixed."""
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {y.shape}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = _window_for(x.shape)
    mx, my, vx, vy, cxy, p = _moments(x, y, w)
    a1 = 2.0 * mx * my + C1
    a2 = 2.0 * cxy + C2
    b1 = mx * mx + my * my + C1
    b2 = vx + vy + C2
    s = (a1 * a2) / (b1 * b2)
    n_windows = s.size
    g_mu = 2.0 * (my * a2 * b1 - mx * a1 * a2) / (b1 * b1 * b2)
    g_v = -(a1 * a2) / (b1 * b2 * b2)
    g_c = 2.0 * a1 / (b1 * b2)
    out_shape = x.shape
    grad = _spread3(g_mu - 2.0 * g_v * mx - g_c * my, w, out_shape)
    grad += 2.0 * x * _spread3(g_v, w, out_shape)
    grad += y * _spread3(g_c, w, out_shape)
    grad /= n_windows * p
    return float(np.mean(s)), grad
