"""Convolution building blocks: shape laws, adjointness, gradient oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import expit

from latentscope import nn
from latentscope.errors import ShapeError
from latentscope.nn import (batchnorm_backward, batchnorm_forward,
                            conv3d_backward, conv3d_forward, conv_out_dim,
                            conv_transpose3d_backward,
                            conv_transpose3d_forward, grad_buffer,
                            relu_backward, relu_forward, sigmoid_backward,
                            sigmoid_forward, transpose_out_dim)


def test_conv_shape_law_scan_dims():
    assert conv_out_dim(121) == 61
    assert conv_out_dim(145) == 73
    chain = [121]
    for _ in range(3):
        chain.append(conv_out_dim(chain[-1]))
    assert chain == [121, 61, 31, 16]
    chain = [145]
    for _ in range(3):
        chain.append(conv_out_dim(chain[-1]))
    assert chain == [145, 73, 37, 19]


def test_transpose_shape_law():
    assert transpose_out_dim(16) == 31
    assert transpose_out_dim(61) == 121
    assert transpose_out_dim(16, output_padding=1) == 32


@settings(max_examples=30, deadline=None)
@given(st.integers(8, 24), st.integers(8, 24), st.integers(8, 24))
def test_conv_output_shape_matches_law(dx, dy, dz):
    x = np.zeros((1, 1, dx, dy, dz))
    w = np.zeros((2, 1, 3, 3, 3))
    out = conv3d_forward(x, w, np.zeros(2))
    assert out.shape == (1, 2, conv_out_dim(dx), conv_out_dim(dy),
                         conv_out_dim(dz))


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 12), st.booleans())
def test_transpose_output_shape_matches_law(d, extra):
    op = int(extra)
    x = np.zeros((1, 2, d, d, d))
    w = np.zeros((2, 1, 3, 3, 3))
    out = conv_transpose3d_forward(x, w, np.zeros(1), (op, op, op))
    assert out.shape[2:] == (transpose_out_dim(d, op),) * 3


def test_identity_kernel_samples_strided_positions():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 1, 7, 7, 7))
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0  # center tap only
    out = conv3d_forward(x, w, np.zeros(1))
    # stride 2 with padding 1 reads input positions 0, 2, 4, 6
    assert np.allclose(out[0, 0], x[0, 0, ::2, ::2, ::2])


def test_constant_volume_through_identity_kernel():
    x = np.full((1, 1, 5, 5, 5), 0.37)
    w = np.zeros((1, 1, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    out = conv3d_forward(x, w, np.zeros(1))
    assert np.allclose(out, 0.37)


def test_zero_weight_transpose_gives_bias():
    x = np.random.default_rng(1).normal(size=(2, 3, 4, 4, 4))
    w = np.zeros((3, 2, 3, 3, 3))
    out = conv_transpose3d_forward(x, w, np.array([0.5, -0.25]))
    assert np.allclose(out[:, 0], 0.5)
    assert np.allclose(out[:, 1], -0.25)


def test_channel_mismatch_raises():
    x = np.zeros((1, 2, 5, 5, 5))
    with pytest.raises(ShapeError):
        conv3d_forward(x, np.zeros((1, 3, 3, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv_transpose3d_forward(x, np.zeros((3, 1, 3, 3, 3)), np.zeros(1))


def test_conv_and_transpose_are_adjoint():
    """<conv(x), y> == <x, conv_T(y)> when both share the weight tensor."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2, 7, 7, 7))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    y = rng.normal(size=(2, 3, 4, 4, 4))
    fwd = conv3d_forward(x, w, np.zeros(3))
    # the conv weight (Co, Ci, k, k, k) is read by the transpose op as
    # (in_channels, out_channels, k, k, k), exactly the adjoint pairing
    back = conv_transpose3d_forward(y, w, np.zeros(2))
    assert fwd.shape == y.shape
    assert back.shape == x.shape
    lhs = float((fwd * y).sum())
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _fd_check(f, arrays, analytic, idx_count=6, eps=1e-6, seed=0):
    """Central finite differences on idx_count coordinates of each array."""
    rng = np.random.default_rng(seed)
    for arr, grad in zip(arrays, analytic):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(idx_count, flat.size),
                              replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = f()
            flat[idx] = orig - eps
            down = f()
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            denom = max(1e-8, abs(fd))
            assert abs(gflat[idx] - fd) / denom < 1e-4, (
                f"analytic {gflat[idx]} vs fd {fd}")


def test_conv3d_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 2, 6, 6, 6))
    w = rng.normal(size=(2, 2, 3, 3, 3)) * 0.5
    b = rng.normal(size=2)
    probe = rng.normal(size=(2, 2, 3, 3, 3))

    def loss():
        return float((conv3d_forward(x, w, b) * probe).sum())

    dx, dw, db = conv3d_backward(probe, x, w)
    _fd_check(loss, [x, w, b], [dx, dw, db])


def test_conv_transpose_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 2, 4, 4, 4))
    w = rng.normal(size=(2, 2, 3, 3, 3)) * 0.5
    b = rng.normal(size=2)
    probe = rng.normal(size=(1, 2, 7, 7, 7))

    def loss():
        return float((conv_transpose3d_forward(x, w, b) * probe).sum())

    dx, dw, db = conv_transpose3d_backward(probe, x, w)
    _fd_check(loss, [x, w, b], [dx, dw, db])


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 2, 4, 4, 4))
    gamma = rng.uniform(0.5, 1.5, size=2)
    beta = rng.normal(size=2)
    rm = rng.normal(size=2) * 0.1
    rv = rng.uniform(0.5, 1.5, size=2)
    probe = rng.normal(size=x.shape)

    def loss():
        out, _, _, _ = batchnorm_forward(x, gamma, beta, rm, rv, mode)
        return float((out * probe).sum())

    _, cache, _, _ = batchnorm_forward(x, gamma, beta, rm, rv, mode)
    dx, dgamma, dbeta = batchnorm_backward(probe, cache, mode)
    _fd_check(loss, [x, gamma, beta], [dx, dgamma, dbeta])


def test_batchnorm_train_normalizes_batch():
    rng = np.random.default_rng(19)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 5, 5, 5))
    out, _, _, _ = batchnorm_forward(x, np.ones(2), np.zeros(2),
                                     np.zeros(2), np.ones(2), "train")
    assert out.mean(axis=(0, 2, 3, 4)) == pytest.approx([0, 0], abs=1e-10)
    assert out.var(axis=(0, 2, 3, 4)) == pytest.approx([1, 1], abs=1e-4)


def test_batchnorm_running_stats_not_mutated():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 2, 4, 4, 4))
    rm, rv = np.zeros(2), np.ones(2)
    rm0, rv0 = rm.copy(), rv.copy()
    _, _, new_rm, new_rv = batchnorm_forward(x, np.ones(2), np.zeros(2),
                                             rm, rv, "train")
    assert np.array_equal(rm, rm0) and np.array_equal(rv, rv0)
    assert not np.array_equal(new_rm, rm0)


# Reference copies of batchnorm_forward/batchnorm_backward as they were
# written before their elementwise steps went in place: one fresh array per
# step, and train mode's statistics from `x.mean` then `x.var`, where
# batchnorm_forward now squares the centred array that becomes xhat. The
# in-place versions must give the same bits.

def _ref_batchnorm_forward(x, gamma, beta, running_mean, running_var, mode,
                           momentum=0.1, eps=1e-5):
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    if mode == "train":
        count = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu.reshape(shape)) * inv_std.reshape(shape)
        unbiased = var * count / (count - 1) if count > 1 else var
        new_rm = (1.0 - momentum) * running_mean + momentum * mu
        new_rv = (1.0 - momentum) * running_var + momentum * unbiased
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xhat = (x - running_mean.reshape(shape)) * inv_std.reshape(shape)
        new_rm, new_rv = running_mean, running_var
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return out, (xhat, inv_std, gamma), new_rm, new_rv


def _ref_batchnorm_backward(g, cache, mode):
    xhat, inv_std, gamma = cache
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    if mode == "eval":
        return g * (gamma * inv_std).reshape(shape), dgamma, dbeta
    gs = gamma.reshape(shape) * g
    dx = inv_std.reshape(shape) * (
        gs
        - gs.mean(axis=axes).reshape(shape)
        - xhat * (gs * xhat).mean(axis=axes).reshape(shape)
    )
    return dx, dgamma, dbeta


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(3, 2, 4, 5, 6), (8, 16, 16, 16, 16), (1, 1, 1, 1, 1),
                                   (3, 16, 5, 7, 9), (8, 32, 16, 16, 16)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batchnorm_matches_reference_bitwise(mode, shape, dtype):
    """Outputs, cache, running stats and gradients are bitwise those of the
    reference, and neither x, g nor the cache is written to."""
    rng = np.random.default_rng([*shape, len(mode), np.dtype(dtype).itemsize])
    c = shape[1]
    x = rng.normal(loc=0.3, scale=2.0, size=shape).astype(dtype)
    gamma, beta = rng.uniform(0.5, 1.5, size=c), rng.normal(size=c)
    rm, rv = rng.normal(size=c) * 0.1, rng.uniform(0.5, 1.5, size=c)
    g = rng.normal(size=shape)
    inputs = [x, gamma, beta, rm, rv, g]
    before = [a.copy() for a in inputs]
    out, cache, new_rm, new_rv = batchnorm_forward(x, gamma, beta, rm, rv, mode)
    ref_out, ref_cache, ref_rm, ref_rv = _ref_batchnorm_forward(x, gamma, beta, rm, rv, mode)
    _assert_all_equal([out, *cache, new_rm, new_rv],
                      [ref_out, *ref_cache, ref_rm, ref_rv])
    cached = [a.copy() for a in cache]
    got = batchnorm_backward(g, cache, mode)
    _assert_all_equal(got, _ref_batchnorm_backward(g, ref_cache, mode))
    _assert_all_equal(inputs + list(cache), before + cached)
    # downstream reductions sum in memory order
    assert out.flags.c_contiguous and got[0].flags.c_contiguous


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(3, 2, 4, 5, 6), (8, 16, 16, 16, 16), (1, 1, 1, 1, 1)])
def test_batchnorm_backward_into_g_matches_reference_bitwise(mode, shape):
    """out=g writes dx into g's buffer, with the bits of the fresh-array
    path; the cache is not written to."""
    rng = np.random.default_rng([*shape, len(mode)])
    c = shape[1]
    x = rng.normal(loc=0.3, scale=2.0, size=shape)
    gamma, beta = rng.uniform(0.5, 1.5, size=c), rng.normal(size=c)
    _, cache, _, _ = batchnorm_forward(x, gamma, beta, rng.normal(size=c) * 0.1,
                                       rng.uniform(0.5, 1.5, size=c), mode)
    cached = [a.copy() for a in cache]
    g = rng.normal(size=shape)
    want = _ref_batchnorm_backward(g, cache, mode)
    got = batchnorm_backward(g, cache, mode, out=g)
    assert got[0] is g
    _assert_all_equal(got, want)
    _assert_all_equal(list(cache), cached)


def test_batchnorm_backward_of_a_cropped_gradient_matches_reference_bitwise():
    """conv3d_backward's dx, the g of the norm below it, is a crop of a
    C-contiguous buffer."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=(2, 4, 5, 6, 7))
    g = rng.normal(size=(2, 4, 7, 8, 9))[:, :, 1:6, 1:7, 1:8]
    gamma, beta = rng.uniform(0.5, 1.5, size=4), rng.normal(size=4)
    for mode in ("train", "eval"):
        _, cache, _, _ = batchnorm_forward(x, gamma, beta, np.zeros(4), np.ones(4), mode)
        _assert_all_equal(batchnorm_backward(g, cache, mode),
                          _ref_batchnorm_backward(g, cache, mode))


def _bn_case(shape, mode, seed=0):
    rng = np.random.default_rng([*shape, len(mode), seed])
    c = shape[1]
    x = rng.normal(loc=0.3, scale=2.0, size=shape)
    params = (rng.uniform(0.5, 1.5, size=c), rng.normal(size=c),
              rng.normal(size=c) * 0.1, rng.uniform(0.5, 1.5, size=c))
    return rng, x, params


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(3, 2, 4, 5, 6), (5, 16, 9, 8, 7), (1, 1, 1, 1, 1),
                                   (4, 1, 6, 5, 4), (8, 32, 16, 16, 16)])
def test_batchnorm_forward_into_out_matches_reference_bitwise(mode, shape):
    """out=x runs batch norm in x's place: train mode writes xhat there (the
    cache keeps x's buffer) and returns a fresh output, eval mode writes
    the output itself there and returns no cache; the bits are the
    reference's either way."""
    _, x, params = _bn_case(shape, mode)
    ref_out, ref_cache, ref_rm, ref_rv = _ref_batchnorm_forward(x, *params, mode)
    out, cache, rm, rv = batchnorm_forward(x, *params, mode, out=x)
    _assert_all_equal([out, rm, rv], [ref_out, ref_rm, ref_rv])
    if mode == "train":
        assert cache[0] is x and not np.shares_memory(out, x)
        _assert_all_equal(list(cache), list(ref_cache))
    else:
        assert out is x and cache is None


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(5, 3, 6, 7, 5), (7, 16, 4, 3, 5), (6, 1, 5, 6, 7)])
def test_batchnorm_backward_by_sample_matches_reference_bitwise(mode, shape):
    """The products that feed batch norm's reductions, and dx's last one,
    are formed one sample at a time (several here); the gradients keep the
    reference's bits, for a fresh dx, for dx in g's place and for a g that
    is a crop. A single channel is summed over its whole product."""
    rng, x, params = _bn_case(shape, mode, seed=1)
    _, cache, _, _ = batchnorm_forward(x, *params, mode)
    cached = [a.copy() for a in cache]
    g = rng.normal(size=shape)
    want = _ref_batchnorm_backward(g, cache, mode)
    _assert_all_equal(batchnorm_backward(g, cache, mode), want)
    crop = np.pad(g, [(0, 0), (0, 0), (1, 2), (2, 1), (1, 1)])[:, :, 1:-2, 2:-1, 1:-1]
    _assert_all_equal(batchnorm_backward(crop, cache, mode), want)
    got = batchnorm_backward(g, cache, mode, out=g)
    assert got[0] is g
    _assert_all_equal(got, want)
    _assert_all_equal(list(cache), cached)


@pytest.mark.parametrize("shape", [(1, 3, 4, 5, 6), (3, 2, 5, 9, 7), (8, 16, 8, 8, 8),
                                   (3, 1, 33, 31, 29), (2, 64, 3, 3, 3)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sum_of_product_matches_numpy_bitwise(shape, dtype):
    """(a * b).sum over (batch, space) without the full product, signed
    zeros included; a may be a crop."""
    rng = np.random.default_rng([*shape, np.dtype(dtype).itemsize])
    a, b = rng.normal(size=shape).astype(dtype), rng.normal(size=shape).astype(dtype)
    a[:, 0] = -0.0
    want = (a * b).sum(axis=(0, 2, 3, 4))
    got = nn._sum_of_product(a, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    crop = np.pad(a, [(0, 0), (0, 0), (1, 1), (0, 2), (1, 0)])[:, :, 1:-1, :-2, 1:]
    assert nn._sum_of_product(crop, b).tobytes() == want.tobytes()


def test_activations_in_place_match_fresh_bitwise():
    """relu and sigmoid, forward and backward, into out=: the bits of the
    fresh-array ops, in out's buffer; without out, no input is written."""
    rng = np.random.default_rng(43)
    x = rng.normal(size=(3, 4, 5, 6, 7))
    x[0, 0, 0] = -0.0
    g = rng.normal(size=x.shape)
    mask = x > 0.0
    y = expit(x)
    before = [a.copy() for a in (x, g, mask, y)]
    fresh = [relu_forward(x), relu_backward(g, mask), sigmoid_forward(x),
             sigmoid_backward(g, y)]
    _assert_all_equal([x, g, mask, y], before)
    _assert_all_equal(fresh, [np.maximum(x, 0.0), g * mask, y, g * y * (1.0 - y)])
    for op, args in ((relu_forward, (x,)), (sigmoid_forward, (x,)),
                     (relu_backward, (g, mask)), (sigmoid_backward, (g, y))):
        buf = args[0].copy()
        assert op(buf, *args[1:], out=buf) is buf
        _assert_all_equal([buf], [op(*args)])


@pytest.mark.parametrize("output_padding", [(0, 0, 0), (1, 0, 1), (1, 1, 1)])
def test_grad_buffer_is_padded_in_place_bitwise(output_padding):
    """With pad_in_place, conv_transpose3d_backward pads a gradient of
    grad_buffer in its own buffer, with the bits of the padded copy it
    makes otherwise (without writing g); any other g is refused."""
    rng, x, w, _, op = _transpose_case(47, (3, 4, 5, 4, 6), 2, output_padding)
    dims = [transpose_out_dim(d, p) for d, p in zip(x.shape[2:], op)]
    buf_dims = [2 * d + 1 for d in x.shape[2:]]
    g = rng.normal(size=(3, 2, *dims))
    g_before = g.copy()
    want = conv_transpose3d_backward(g, x, w, op)
    _assert_all_equal([g], [g_before])
    _assert_all_equal(want, _ref_conv_transpose3d_backward(g, x, w))
    room = grad_buffer(g.shape, op)
    room[...] = g
    base = room.base
    padded = nn._pad(room, buf_dims, in_place=True)
    assert np.shares_memory(padded, base)
    _assert_all_equal([padded], [nn._pad(g, buf_dims)])
    room = grad_buffer(g.shape, op)
    room[...] = g
    _assert_all_equal(conv_transpose3d_backward(room, x, w, op, pad_in_place=True), want)
    for other in (g, np.zeros(2 * base.size)[1:g.size + 1].reshape(g.shape)):
        with pytest.raises(ShapeError, match="grad_buffer"):
            conv_transpose3d_backward(other, x, w, op, pad_in_place=True)


def test_activation_gradients():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(40,))
    g = rng.normal(size=(40,))
    assert np.array_equal(relu_backward(g, x > 0.0), g * (x > 0))
    out = sigmoid_forward(x)
    eps = 1e-6
    fd = (sigmoid_forward(x + eps) - sigmoid_forward(x - eps)) / (2 * eps)
    assert np.allclose(sigmoid_backward(g, out), g * fd, atol=1e-8)
    assert relu_forward(np.array([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]


# ---------------------------------------------------------------------------
# Reference copies of the four conv kernels as they were written before the
# shared gather/scatter/weight-gradient primitives: one offset loop per
# kernel. The shared versions must reproduce them bit for bit, since every
# run-directory artifact depends on the exact float summation order.

def _ref_offsets():
    for kx in range(3):
        for ky in range(3):
            for kz in range(3):
                yield kx, ky, kz


def _ref_pad(x):
    n, c, dx, dy, dz = x.shape
    xp = np.zeros((n, c, dx + 2, dy + 2, dz + 2), dtype=x.dtype)
    xp[:, :, 1:dx + 1, 1:dy + 1, 1:dz + 1] = x
    return xp


def _ref_slice(a, kx, ky, kz, ox, oy, oz):
    return a[:, :, kx:kx + 2 * ox - 1:2, ky:ky + 2 * oy - 1:2,
             kz:kz + 2 * oz - 1:2]


def _ref_conv3d_forward(x, w, b):
    n, ci, dx, dy, dz = x.shape
    co = w.shape[0]
    ox, oy, oz = conv_out_dim(dx), conv_out_dim(dy), conv_out_dim(dz)
    xp = _ref_pad(x)
    acc = np.zeros((co, n, ox, oy, oz), dtype=x.dtype)
    for kx, ky, kz in _ref_offsets():
        xs = _ref_slice(xp, kx, ky, kz, ox, oy, oz)
        acc += np.tensordot(w[:, :, kx, ky, kz], xs, axes=([1], [1]))
    out = acc.transpose(1, 0, 2, 3, 4).copy()
    out += b[None, :, None, None, None]
    return out


def _ref_conv3d_backward(g, x, w):
    n, ci, dx_, dy_, dz_ = x.shape
    _, _, ox, oy, oz = g.shape
    xp = _ref_pad(x)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for kx, ky, kz in _ref_offsets():
        xs = _ref_slice(xp, kx, ky, kz, ox, oy, oz)
        dw[:, :, kx, ky, kz] = np.tensordot(g, xs,
                                            axes=([0, 2, 3, 4], [0, 2, 3, 4]))
        contrib = np.tensordot(g, w[:, :, kx, ky, kz], axes=([1], [0]))
        _ref_slice(dxp, kx, ky, kz, ox, oy, oz)[...] += np.moveaxis(
            contrib, -1, 1)
    db = g.sum(axis=(0, 2, 3, 4))
    return dxp[:, :, 1:dx_ + 1, 1:dy_ + 1, 1:dz_ + 1], dw, db


def _ref_conv_transpose3d_forward(x, w, b, output_padding=(0, 0, 0)):
    n, ci, dx, dy, dz = x.shape
    co = w.shape[1]
    odx = transpose_out_dim(dx, output_padding[0])
    ody = transpose_out_dim(dy, output_padding[1])
    odz = transpose_out_dim(dz, output_padding[2])
    opad = np.zeros((n, co, 2 * dx + 1, 2 * dy + 1, 2 * dz + 1), dtype=x.dtype)
    for kx, ky, kz in _ref_offsets():
        contrib = np.tensordot(x, w[:, :, kx, ky, kz], axes=([1], [0]))
        _ref_slice(opad, kx, ky, kz, dx, dy, dz)[...] += np.moveaxis(
            contrib, -1, 1)
    out = opad[:, :, 1:1 + odx, 1:1 + ody, 1:1 + odz].copy()
    out += b[None, :, None, None, None]
    return out


def _ref_conv_transpose3d_backward(g, x, w):
    n, ci, dx_, dy_, dz_ = x.shape
    co = w.shape[1]
    gpad = np.zeros((n, co, 2 * dx_ + 1, 2 * dy_ + 1, 2 * dz_ + 1),
                    dtype=g.dtype)
    gpad[:, :, 1:1 + g.shape[2], 1:1 + g.shape[3], 1:1 + g.shape[4]] = g
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for kx, ky, kz in _ref_offsets():
        gs = _ref_slice(gpad, kx, ky, kz, dx_, dy_, dz_)
        dw[:, :, kx, ky, kz] = np.tensordot(x, gs,
                                            axes=([0, 2, 3, 4], [0, 2, 3, 4]))
        contrib = np.tensordot(gs, w[:, :, kx, ky, kz], axes=([1], [1]))
        dx += np.moveaxis(contrib, -1, 1)
    db = g.sum(axis=(0, 2, 3, 4))
    return dx, dw, db


PIN_DIMS = [(5, 6, 7), (8, 8, 8), (4, 9, 6)]
PIN_CHANNELS = [(1, 3), (3, 1), (2, 4), (16, 1), (64, 32)]
OUTPUT_PADDINGS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def _pin_conv3d(rng, x, w, b):
    out = conv3d_forward(x, w, b)
    _assert_all_equal([out], [_ref_conv3d_forward(x, w, b)])
    g = rng.normal(size=out.shape)
    _assert_all_equal(conv3d_backward(g, x, w), _ref_conv3d_backward(g, x, w))


def _pin_conv_transpose3d(rng, x, w, b, output_padding):
    out = conv_transpose3d_forward(x, w, b, output_padding)
    _assert_all_equal([out], [_ref_conv_transpose3d_forward(x, w, b, output_padding)])
    g = rng.normal(size=out.shape)
    got = conv_transpose3d_backward(g, x, w, output_padding)
    _assert_all_equal(got, _ref_conv_transpose3d_backward(g, x, w))
    # batch-norm reductions downstream sum in memory order
    assert got[0].flags.c_contiguous


def _pin_float32_conv3d(ci, co):
    rng = np.random.default_rng([ci, co, 32])
    x = rng.normal(size=(2, ci, 7, 8, 9)).astype(np.float32)
    w = rng.normal(size=(co, ci, 3, 3, 3))
    b = rng.normal(size=co)
    out = conv3d_forward(x, w, b)
    assert out.dtype == np.float32
    _assert_all_equal([out], [_ref_conv3d_forward(x, w, b)])


def _conv3d_case(seed, shape, co):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    return rng, x, rng.normal(size=(co, shape[1], 3, 3, 3)), rng.normal(size=co)


def _transpose_case(seed, shape, co, output_padding):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    return (rng, x, rng.normal(size=(shape[1], co, 3, 3, 3)), rng.normal(size=co),
            output_padding)


def _pin_case(ci, co, dims):
    return _conv3d_case([ci, co, *dims], (3, ci) + dims, co)


def _transpose_pin_case(ci, co, dims, output_padding):
    return _transpose_case([ci, co, *dims, *output_padding], (3, ci) + dims, co,
                           output_padding)


# L1 (1 -> 16) and T3 (16 -> 1, 16^3 -> 32^3) of the 32^3 study network at
# batch 2: BLAS picks its kernels by operand size, and the pins above stop
# at 9 voxels per axis.
STUDY_L1 = (32, (2, 1, 32, 32, 32), 16)
STUDY_T3 = (16, (2, 16, 16, 16, 16), 1, (1, 1, 1))

# The conv primitives sum each block of whole samples (or slab of one
# sample) in an accumulator of at most nn._BLOCK_BYTES. Every pin runs at
# the production size and again in 64 KiB blocks, so the bits do not depend
# on the block size. L1 and T3 of the 64^3 network at batch 2 split into
# blocks at both sizes, and so does a batch of 3 whose last group is partial.
# L3 and T3 of odd-sized volumes have per-sample grids of 180 and 4,913 rows
# and must stay whole: cut there, BLAS rounds some rows differently.
SMALL_BLOCK_BYTES = 64 * 1024
BLOCKED_CONV3D = [(64, (2, 1, 64, 64, 64), 16), (3, (3, 1, 16, 16, 32), 16),
                  (5, (3, 32, 11, 12, 10), 64)]
BLOCKED_TRANSPOSE = [(63, (2, 16, 32, 32, 32), 1, (1, 1, 1)),
                     (3, (3, 16, 8, 8, 16), 1, (0, 1, 0)),
                     (7, (2, 16, 17, 17, 17), 1, (0, 1, 0))]


@pytest.fixture
def small_blocks(monkeypatch):
    from latentscope import nn

    monkeypatch.setattr(nn, "_BLOCK_BYTES", SMALL_BLOCK_BYTES)


@pytest.fixture(params=[None, SMALL_BLOCK_BYTES], ids=["production", "64k"])
def block_bytes(request, monkeypatch):
    """Either block size: None for the production one."""
    from latentscope import nn

    if request.param is not None:
        monkeypatch.setattr(nn, "_BLOCK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("dims", PIN_DIMS)
@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_conv3d_matches_reference_bitwise(dims, ci, co):
    _pin_conv3d(*_pin_case(ci, co, dims))


@pytest.mark.parametrize("dims", PIN_DIMS)
@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_conv3d_matches_reference_bitwise_in_small_blocks(small_blocks, dims, ci, co):
    _pin_conv3d(*_pin_case(ci, co, dims))


@pytest.mark.parametrize("output_padding", OUTPUT_PADDINGS)
@pytest.mark.parametrize("dims", PIN_DIMS)
@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_conv_transpose3d_matches_reference_bitwise(output_padding, dims, ci, co):
    _pin_conv_transpose3d(*_transpose_pin_case(ci, co, dims, output_padding))


@pytest.mark.parametrize("output_padding", OUTPUT_PADDINGS)
@pytest.mark.parametrize("dims", PIN_DIMS)
@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_conv_transpose3d_matches_reference_bitwise_in_small_blocks(
        small_blocks, output_padding, dims, ci, co):
    _pin_conv_transpose3d(*_transpose_pin_case(ci, co, dims, output_padding))


def test_pipeline_scale_conv3d_matches_reference_bitwise():
    _pin_conv3d(*_conv3d_case(*STUDY_L1))


def test_pipeline_scale_conv_transpose3d_matches_reference_bitwise():
    case = _transpose_case(*STUDY_T3)
    assert conv_transpose3d_forward(*case[1:]).shape == (2, 1, 32, 32, 32)
    _pin_conv_transpose3d(*case)


def test_pipeline_scale_kernels_match_reference_bitwise_in_small_blocks(small_blocks):
    _pin_conv3d(*_conv3d_case(*STUDY_L1))
    _pin_conv_transpose3d(*_transpose_case(*STUDY_T3))


@pytest.mark.parametrize("case", BLOCKED_CONV3D, ids=["L1_64", "batch3", "L3_odd"])
def test_blocked_conv3d_matches_reference_bitwise(block_bytes, case):
    _pin_conv3d(*_conv3d_case(*case))


@pytest.mark.parametrize("case", BLOCKED_TRANSPOSE, ids=["T3_64", "batch3", "T3_odd"])
def test_blocked_conv_transpose3d_matches_reference_bitwise(block_bytes, case):
    _pin_conv_transpose3d(*_transpose_case(*case))


def test_blocked_pins_span_several_blocks(block_bytes):
    """The 64^3 and batch-3 pins above do cut their batches into blocks."""
    from latentscope import nn

    # L1 output at 64^3 (16 channels of 32^3) and T3's 65^3 buffer
    assert nn._sample_groups(2, 16 * 32**3 * 8, 32**3) == [(0, 1), (1, 2)]
    assert len(nn._even(32, -(-16 * 32**3 * 8 // nn._BLOCK_BYTES), 32**2)) > 1
    assert nn._sample_groups(2, 65**3 * 8, 32**3) == [(0, 1), (1, 2)]
    # the batch-3 conv output and transpose dx: 16 channels of 8 x 8 x 16
    groups = nn._sample_groups(3, 16 * 8 * 8 * 16 * 8, 8 * 8 * 16)
    assert groups == ([(0, 2), (2, 3)] if block_bytes is None else [(0, 1), (1, 2), (2, 3)])


def test_blocks_are_cut_on_row_multiples_only():
    """A block boundary off a multiple of 128 GEMM rows would hand BLAS
    a different M: OpenBLAS picks its small-matrix and edge kernels by size,
    and they round some rows differently. Such a batch stays one block."""
    from latentscope import nn

    assert nn._sample_groups(3, nn._BLOCK_BYTES, 210) == [(0, 3)]
    assert nn._sample_groups(3, nn._BLOCK_BYTES, 256) == [(0, 1), (1, 2), (2, 3)]
    assert nn._even(21, 21, 23 * 19) == [(0, 21)]
    assert nn._even(21, 3, 128) == [(0, 7), (7, 14), (14, 21)]


@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_float32_input_conv3d_matches_reference_bitwise(ci, co):
    """The eval forward feeds float32 volumes to L1 with float64 weights:
    the result keeps the input's dtype and the float64 products' bits."""
    _pin_float32_conv3d(ci, co)


@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_float32_input_conv3d_matches_reference_bitwise_in_small_blocks(small_blocks, ci,
                                                                        co):
    _pin_float32_conv3d(ci, co)


@pytest.mark.parametrize("case", [STUDY_L1, BLOCKED_CONV3D[1], (5, (3, 2, 5, 6, 7), 4)],
                         ids=["study_L1", "batch3", "small"])
def test_conv3d_backward_without_input_grad(case):
    """A first layer asks for (dw, db) only: dx is None, and dw and db are
    bitwise those of the full call."""
    rng, x, w, _ = _conv3d_case(*case)
    g = rng.normal(size=conv3d_forward(x, w, np.zeros(w.shape[0])).shape)
    dx, dw, db = conv3d_backward(g, x, w, input_grad=False)
    assert dx is None
    _assert_all_equal([dw, db], conv3d_backward(g, x, w)[1:])


def _has_c_order_strides(a):
    """Whether `a` is laid out as (N, C, X, Y, Z) in C order: C-contiguous, or
    a crop of a C-contiguous buffer, each stride a multiple of the next one
    of at least that axis's size (axes of size 1 have no layout)."""
    axes = [(n, s) for n, s in zip(a.shape, a.strides) if n > 1]
    return (not axes or axes[-1][1] == a.itemsize) and all(
        s0 % s1 == 0 and s0 // s1 >= n1
        for (_, s0), (n1, s1) in zip(axes, axes[1:]))


@pytest.mark.parametrize("dims", PIN_DIMS)
@pytest.mark.parametrize("ci,co", PIN_CHANNELS)
def test_kernel_results_have_c_order_strides(dims, ci, co):
    """Relu and batch norm keep their input's memory order and the norm sums
    in memory order, so a result in another layout (channel last, say) would
    have the same values but change the trained weights' bits."""
    rng = np.random.default_rng([ci, co, *dims, 5])
    x = rng.normal(size=(2, ci) + dims)
    w = rng.normal(size=(co, ci, 3, 3, 3))
    out = conv3d_forward(x, w, np.zeros(co))
    results = [out, *conv3d_backward(rng.normal(size=out.shape), x, w)]
    wt = rng.normal(size=(ci, co, 3, 3, 3))
    for op in [(0, 0, 0), (1, 0, 1)]:
        out = conv_transpose3d_forward(x, wt, np.zeros(co), op)
        results += [out, *conv_transpose3d_backward(rng.normal(size=out.shape),
                                                    x, wt, op)]
    for r in results:
        assert _has_c_order_strides(r), (r.shape, r.strides)


def test_conv_kernels_do_not_call_one_another(monkeypatch):
    """Each public conv call is one conv op: a profiler that wraps the four
    kernels by name must not see one nested inside another."""
    from latentscope import nn

    names = ("conv3d_forward", "conv3d_backward", "conv_transpose3d_forward",
             "conv_transpose3d_backward")
    kernels = {name: getattr(nn, name) for name in names}

    def nested(*args, **kwargs):
        raise AssertionError("a conv kernel called another public kernel")

    for name in names:
        monkeypatch.setattr(nn, name, nested)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 2, 5, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    y = kernels["conv3d_forward"](x, w, np.zeros(3))
    kernels["conv3d_backward"](y, x, w)
    kernels["conv3d_backward"](y, x, w, input_grad=False)
    z = kernels["conv_transpose3d_forward"](y, w, np.zeros(2), (1, 1, 1))
    kernels["conv_transpose3d_backward"](z, y, w, (1, 1, 1))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(3, 3, 4, 5, 6), (8, 4, 9, 8, 7), (2, 3, 48, 48, 48)])
def test_fired_xhat_restores_the_forward_bitwise(mode, shape):
    """With `fired`, batch norm keeps xhat only where the relu fired (a
    FiredXhat): its output, the rebuilt output and the restored xhat are
    bitwise the reference's, and so are the gradients. Channel 0 fires
    everywhere, channel 1 nowhere, and the conv output holds -0.0, which
    the relu maps to +0.0. The last shape cuts each sample into chunks of
    channels, the others put whole samples in a chunk."""
    rng, z, params = _bn_case(shape, mode, seed=2)
    z[:, 0] = np.abs(z[:, 0]) + 0.5
    z[:, 1] = -np.abs(z[:, 1])
    z[:, 2, ..., 0] = -0.0
    x = relu_forward(z)
    assert not np.signbit(x).any()
    ref_out, ref_cache, ref_rm, ref_rv = _ref_batchnorm_forward(x, *params, mode)
    fired = np.packbits(x > 0)
    out, cache, rm, rv = batchnorm_forward(x.copy(), *params, mode, out=None, fired=fired)
    _assert_all_equal([out, rm, rv, *cache[1:]], [ref_out, ref_rm, ref_rv, *ref_cache[1:]])
    kept = cache[0]
    assert isinstance(kept, nn.FiredXhat) and kept.fired is fired
    assert kept.nbytes == np.count_nonzero(x > 0) * 8 < x.nbytes
    rebuilt = kept.output(params[0], params[1])
    assert rebuilt.transpose(1, 0, 2, 3, 4).flags.c_contiguous
    _assert_all_equal([rebuilt], [ref_out])
    g = rng.normal(size=shape)
    want = _ref_batchnorm_backward(g, ref_cache, mode)
    got = batchnorm_backward(g, cache, mode)
    _assert_all_equal(got, want)
    assert kept.nbytes == 0  # restored: the kept values are freed


def test_fired_xhat_in_place_keeps_xhat_in_its_own_buffer():
    """out=x with `fired`: xhat is written into x's buffer, which then
    shrinks to the fired positions' values, the FiredXhat's store; the
    output is fresh, and both keep the reference's bits."""
    _, z, params = _bn_case((4, 3, 5, 6, 7), "train", seed=3)
    x = relu_forward(z)
    ref_out, ref_cache, _, _ = _ref_batchnorm_forward(x, *params, "train")
    buf = x.copy()
    out, cache, _, _ = batchnorm_forward(buf, *params, "train", out=buf,
                                         fired=np.packbits(x > 0))
    assert buf.size == np.count_nonzero(x > 0) and cache[0].nbytes == buf.nbytes
    _assert_all_equal([out, cache[0].restore()], [ref_out, ref_cache[0]])
