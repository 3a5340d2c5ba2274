"""3D convolution primitives with exact reverse-mode gradients.

All ops take float64 tensors shaped (N, C, X, Y, Z). Every layer uses kernel
3, stride 2, padding 1. Convolutions are cross-correlations (no kernel flip).
Shape laws:

    conv:       out = floor((in - 1) / 2) + 1
    transpose:  out = 2*in - 1 + output_padding   (output_padding in {0,1})

The four conv kernels are compositions of three private primitives, each a
loop over the 27 kernel taps k (taps_k(a) = every second position from k):

    _gather       out += w[:, :, k] . taps_k(src)      conv3d_forward,
                                                       conv_transpose3d_backward dx
    _scatter      taps_k(buf) += w[:, :, k]^T . src    conv3d_backward dx,
                                                       conv_transpose3d_forward
    _weight_grad  dw[:, :, k] = sum a x taps_k(src)    both backward dw

_scatter is the exact adjoint of _gather, so the transpose is the adjoint of
the conv for matching shapes; output_padding extends the far edge with the
ordinary transposed-conv sums (needed to mirror an even-sized encoder level).
The kernels never call one another.

Each tap's product is one GEMM on (M, C) rows (M = batch x grid, channel
last, as _rows builds them) or on their transpose. The operand that does not
depend on the tap is built once per call (per block in _scatter), and each
accumulator has the layout its GEMM writes, so the only other data movement
is one transpose:

    primitive                built once          accumulator     final transpose
    _gather (weights_first)  -                   (C, Mb)         -> (N, C, *out)
    _gather (otherwise)      -                   (Mb, C)         -> (N, C, *out)
    _scatter                 src rows (Mb, Co)   (N, *buf, Ci)   by the caller
    _weight_grad             a as (Ca, M)        dw, per tap     none

_gather and _scatter loop over blocks of M (Goto and van de Geijn, 2008) so
that a block's accumulator stays in L2 for all 27 taps: each block runs the
27-tap loop on its rows before the next block starts. A block holds at most
_BLOCK_BYTES of accumulator (256 KiB; L2 is 2 MiB per core on the machine
measured). Whole samples are grouped while they fit, and the batch is cut
into groups of even size. A larger sample is a block on its own; _gather
splits it further into even slabs along its first output axis, but _scatter
does not: slabs of one sample overlap at their edges in its buffer, so
splitting there would reorder the tap sums. A block's GEMM operand is
C-contiguous wherever _rows would copy (the tap copy of _gather, the
block's own _rows copy in _scatter), never a strided per-sample view:
numpy hands a strided operand to another BLAS kernel, which rounds
differently. _weight_grad is not blocked: its sum over M is inside the
GEMM, and cutting M would reorder it.

A block's GEMM returns bitwise the rows the whole GEMM would only if BLAS
runs the same kernels on them, and OpenBLAS picks its small-matrix, gemv
and edge kernels by operand size. So a batch is cut only where every block
is a multiple of _ROW_ALIGN = 128 rows (M = 128 i); otherwise it stays one
block, which is the unblocked computation. On this rule, random cuts of
GEMMs of the kernels' shapes (OpenBLAS 0.3.31, SkylakeX kernels) matched
the whole product in every one of about 5,000 blocks, and the kernel pins
hold at every block size from 1 KiB to 256 KiB. Cuts at other rows changed
up to a fifth of the blocks: a 16 -> 1 transpose of a 17^3 grid at batch 2
(4,913 rows a sample, its single-column GEMM a gemv) and L3 of a batch of
three 11 x 12 x 10 inputs (180 rows a sample) both changed bits.

The per-tap operand copy and the GEMM's product go into buffers made once
per call (_copy_taps, np.dot's out=), not once per tap: a large fresh
array costs page faults, whose price depends on whether the system has huge
pages free, so 27 of them per call tie training time to the memory state.

Every GEMM gets the operands np.tensordot would give it, in the same layout
and order (in _gather's weights-first path the weight slice stays the
strided view tensordot passes: a contiguous copy changes the bits of some
Co = 1 results), products are in the promoted dtype and accumulate in the
input's, and every accumulator element adds its 27 tap products in tap
order, so the results are bitwise those of a per-tap tensordot loop. Every
result has C-order (N, C, X, Y, Z) strides (conv3d_backward's dx is a crop
of a C-contiguous buffer): relu keeps its input's memory order and batch
norm sums in memory order, so a channel-last result would have the same
values but change the trained weights' bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import expit

from .errors import ShapeError

KERNEL = 3
STRIDE = 2
PADDING = 1
BN_MOMENTUM = 0.1  # weight of the batch statistics in the running update
BN_EPS = 1e-5
# Accumulator bytes per block of _gather and _scatter, and the GEMM rows a
# block is a multiple of (see the module docstring): 2 MiB of L2 per core
# holds a block, its GEMM product and its tap operand.
_BLOCK_BYTES = 256 * 1024
_ROW_ALIGN = 128


def conv_out_dim(d: int) -> int:
    out = (d - 1) // 2 + 1
    if out < 1:
        raise ShapeError(f"axis size {d} collapses under stride-2 conv")
    return out


def transpose_out_dim(d: int, output_padding: int = 0) -> int:
    return 2 * d - 1 + output_padding


def _offsets():
    return itertools.product(range(KERNEL), repeat=3)


def _taps(a: np.ndarray, k, dims) -> np.ndarray:
    """The (N, C, *dims) view of `a` that tap k of a stride-2 kernel reads
    (or writes) for a grid of size `dims`: every second position from k."""
    return a[(..., *(slice(o, o + 2 * d - 1, 2) for o, d in zip(k, dims)))]


def _crop(a: np.ndarray, dims) -> np.ndarray:
    """The (N, C, *dims) view of `a` at offset 1 along each spatial axis."""
    return a[(..., *(slice(1, 1 + d) for d in dims))]


def _pad(a: np.ndarray, buf_dims) -> np.ndarray:
    """`a` placed at offset 1 in a zero (N, C, *buf_dims) buffer."""
    buf = np.zeros(a.shape[:2] + tuple(buf_dims), dtype=a.dtype)
    _crop(buf, a.shape[2:])[...] = a
    return buf


def _rows(a: np.ndarray) -> np.ndarray:
    """(N, C, *dims) -> (N*X*Y*Z, C), channel last: the GEMM operand that
    np.tensordot builds when it contracts `a` over its channel axis."""
    return a.transpose(0, 2, 3, 4, 1).reshape(-1, a.shape[1])


def _rows_view(a: np.ndarray) -> np.ndarray | None:
    """_rows(a) if it is a view of `a`, else None (_rows would copy); finding
    out allocates nothing (reshape's copy=False needs numpy 2.1)."""
    try:
        return np.reshape(a.transpose(0, 2, 3, 4, 1), (-1, a.shape[1]), copy=False)
    except ValueError:
        return None


def _copy_taps(src: np.ndarray, k, dims, buf: np.ndarray, axes) -> None:
    """Copy taps_k(src), transposed by `axes`, into the C-contiguous `buf`
    of the same size: the GEMM operand _rows (or tensordot) would allocate,
    in the same layout, without a fresh allocation per tap."""
    view = _taps(src, k, dims).transpose(axes)
    np.copyto(buf.reshape(view.shape), view)


def _even(size: int, parts: int, rows: int) -> list[tuple[int, int]]:
    """range(size) cut into at most `parts` consecutive (start, stop) pieces,
    all of one length but the last, where each item is `rows` GEMM rows; a
    single piece unless every piece is a multiple of _ROW_ALIGN rows."""
    step = -(-size // max(1, min(parts, size)))
    pieces = [(i, min(i + step, size)) for i in range(0, size, step)]
    if any((stop - start) * rows % _ROW_ALIGN for start, stop in pieces):
        return [(0, size)]
    return pieces


def _sample_groups(n: int, sample_bytes: int, rows: int) -> list[tuple[int, int]]:
    """Even groups of whole samples of `rows` GEMM rows each, at most
    _BLOCK_BYTES a group (a larger sample is a group of its own)."""
    return _even(n, -(-n // max(1, _BLOCK_BYTES // sample_bytes)), rows)


def _gather(src_padded: np.ndarray, w: np.ndarray, out, weights_first: bool) -> np.ndarray:
    """sum_k w[:, :, k] . taps_k(src_padded) over w's axis 1 -> C-contiguous
    (N, w.shape[0], *out).

    weights_first sets the GEMM operand order of each tap's product: BLAS
    rounds A @ B and (B.T @ A.T).T differently for most shapes, and each
    caller keeps the order its artifacts were first computed in. Each block
    sums its 27 taps in an accumulator with that GEMM's own 2-D layout,
    (C, Mb) or (Mb, C) with Mb the block's batch-and-grid size, which is
    then transposed into the result.
    """
    n, c, ci = src_padded.shape[0], w.shape[0], w.shape[1]
    dtype = np.result_type(src_padded, w)
    sample_bytes = c * math.prod(out) * dtype.itemsize
    plane = math.prod(out[1:])
    blocks = list(itertools.product(
        _sample_groups(n, sample_bytes, out[0] * plane),
        _even(out[0], -(-sample_bytes // _BLOCK_BYTES), plane)))
    m = max((s1 - s0) * (x1 - x0) for (s0, s1), (x0, x1) in blocks) * plane
    acc_buf = np.empty(c * m, dtype=src_padded.dtype)
    prod_buf = np.empty(c * m, dtype=dtype)
    taps_buf = np.empty(ci * m, dtype=src_padded.dtype)
    result = np.empty((n, c, *out), dtype=src_padded.dtype)
    for (s0, s1), (x0, x1) in blocks:
        grid = (s1 - s0, x1 - x0, *out[1:])
        mb = math.prod(grid)
        if weights_first:
            acc_shape, taps_shape, axes = (c, mb), (ci, mb), (1, 0, 2, 3, 4)
        else:
            acc_shape, taps_shape, axes = (mb, c), (mb, ci), (0, 2, 3, 4, 1)
        acc = acc_buf[:c * mb].reshape(acc_shape)
        acc.fill(0)
        prod = prod_buf[:c * mb].reshape(acc_shape)
        taps = taps_buf[:ci * mb].reshape(taps_shape)
        src = src_padded[s0:s1, :, 2 * x0:]
        for k in _offsets():
            _copy_taps(src, k, grid[1:], taps, axes)
            w_k = w[(..., *k)]
            acc += np.dot(w_k, taps, out=prod) if weights_first else np.dot(taps, w_k.T, out=prod)
        if (s1, x1) == (n, out[0]):
            del prod_buf, taps_buf, prod, taps  # free the scratch before the last write
        if weights_first:
            result[s0:s1, :, x0:x1] = acc.reshape(c, *grid).transpose(1, 0, 2, 3, 4)
        else:
            result[s0:s1, :, x0:x1] = np.moveaxis(acc.reshape(*grid, c), -1, 1)
    return result


def _scatter(src: np.ndarray, w: np.ndarray, buf_dims) -> np.ndarray:
    """Adjoint of _gather: taps_k(buf) += w[:, :, k]^T . src over w's axis 0,
    into a zero buffer returned as an (N, w.shape[1], *buf_dims) view.

    The buffer is channel last, the layout each tap's product comes out of
    the GEMM in, and the view keeps that layout: each caller copies the
    part it needs to C order once. Blocks are whole samples (slabs of one
    sample would overlap at their edges in the buffer). A block's GEMM
    operand is its rows of _rows(src), built once per block: where _rows
    copies (a C-order src), each block copies only its own samples into
    the same C-contiguous rows a slice of the whole copy would hold; where
    _rows is a view of src, the block slices that view.
    """
    n, dims, ci = src.shape[0], src.shape[2:], w.shape[1]
    dtype = np.result_type(src, w)
    grid = math.prod(dims)
    groups = _sample_groups(n, ci * math.prod(buf_dims) * dtype.itemsize, grid)
    buf = np.zeros((n, *buf_dims, ci), dtype=src.dtype)
    view = _rows_view(src)
    prod_buf = np.empty(max(s1 - s0 for s0, s1 in groups) * grid * ci, dtype=dtype)
    for s0, s1 in groups:
        if view is None:  # ascontiguousarray: one sample's _rows is a strided view
            rows = np.ascontiguousarray(_rows(src[s0:s1]))
        else:
            rows = view[s0 * grid:s1 * grid]
        prod = prod_buf[:(s1 - s0) * grid * ci].reshape(-1, ci)
        contrib = np.moveaxis(prod.reshape(s1 - s0, *dims, ci), -1, 1)
        block = np.moveaxis(buf[s0:s1], -1, 1)
        for k in _offsets():
            np.dot(rows, w[(..., *k)], out=prod)
            _taps(block, k, dims)[...] += contrib
        del rows  # this block's copy, before the next block makes its own
    return np.moveaxis(buf, -1, 1)


def _weight_grad(a: np.ndarray, src_padded: np.ndarray) -> np.ndarray:
    """Per tap k, sum over batch and grid of a x taps_k(src_padded)
    -> (a.shape[1], src_padded.shape[1], 3, 3, 3); a's GEMM operand is
    built once."""
    cb, dims = src_padded.shape[1], a.shape[2:]
    dw = np.empty((a.shape[1], cb) + (KERNEL,) * 3, dtype=a.dtype)
    rows_t = a.transpose(1, 0, 2, 3, 4).reshape(a.shape[1], -1)
    rows = np.empty((rows_t.shape[1], cb), dtype=src_padded.dtype)
    for k in _offsets():
        _copy_taps(src_padded, k, dims, rows, (0, 2, 3, 4, 1))
        dw[(..., *k)] = np.dot(rows_t, rows)
    return dw


def conv3d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (N,Ci,X,Y,Z), w (Co,Ci,3,3,3), b (Co,) -> (N,Co,ox,oy,oz)."""
    ci, dims = x.shape[1], x.shape[2:]
    if w.shape[1] != ci:
        raise ShapeError(f"input channels {ci} != weight in_channels {w.shape[1]}")
    out = _gather(_pad(x, [d + 2 for d in dims]), w, [conv_out_dim(d) for d in dims], True)
    out += b[None, :, None, None, None]
    return out


def conv3d_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray, input_grad: bool = True):
    """Gradients of sum(g * conv3d_forward(x, w, b)) -> (dx, dw, db); dx is
    None unless input_grad (a first layer has no use for it).

    db, then dw, then dx: x is dropped once dw is taken, and g once dx's
    buffer is filled, so a caller that passes them as temporaries (holding
    no reference of its own) has each freed after its last read."""
    dims = x.shape[2:]
    padded = [d + 2 for d in dims]
    db = g.sum(axis=(0, 2, 3, 4))
    dw = _weight_grad(g, _pad(x, padded))
    del x
    if not input_grad:
        return None, dw, db
    buf = _scatter(g, w, padded)
    del g
    return _crop(np.ascontiguousarray(buf), dims), dw, db


def conv_transpose3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    output_padding: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """x (N,Ci,X,Y,Z), w (Ci,Co,3,3,3), b (Co,) -> (N,Co,2X-1+opx,...)."""
    ci, dims = x.shape[1], x.shape[2:]
    if w.shape[0] != ci:
        raise ShapeError(f"input channels {ci} != weight in_channels {w.shape[0]}")
    if any(op not in (0, 1) for op in output_padding):
        raise ShapeError(f"output_padding must be 0 or 1 per axis, got {output_padding}")
    out_dims = [transpose_out_dim(d, op) for d, op in zip(dims, output_padding)]
    out = _crop(_scatter(x, w, [2 * d + 1 for d in dims]), out_dims).copy()
    out += b[None, :, None, None, None]
    return out


def conv_transpose3d_backward(
    g: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    output_padding: tuple[int, int, int] = (0, 0, 0),
):
    """Gradients of sum(g * conv_transpose3d_forward(x, w, b, output_padding))
    -> (dx, dw, db); the output padding is read from g's shape.

    g is dropped once it is padded and db is taken, x once dw is taken,
    before dx is built, so a caller that passes them as temporaries has
    each freed after its last read."""
    dims = x.shape[2:]
    gpad = _pad(g, [2 * d + 1 for d in dims])
    db = g.sum(axis=(0, 2, 3, 4))
    del g
    dw = _weight_grad(x, gpad)
    del x
    return _gather(gpad, w, dims, False), dw, db


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into `out` if given (out=x runs it in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """g where the relu was active: `mask` is the bool array x > 0.0 of the
    relu's input x (what forward keeps instead of x itself)."""
    return g * mask


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    return expit(x)


def sigmoid_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray, mode: str):
    """Per-channel batch norm over (batch, spatial) axes.

    Returns (out, cache, new_running_mean, new_running_var). Running stats are
    never mutated in place; train mode returns the updated copies (with the
    unbiased variance, torch-style), eval mode returns the inputs unchanged.
    """
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    if mode == "train":
        count = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        mu = x.mean(axis=axes)
        xhat = np.subtract(x, mu.reshape(shape))
        # x.var(axis=axes) takes these steps on a centred copy of its own
        var = np.multiply(xhat, xhat).sum(axis=axes) / count
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        unbiased = var * count / (count - 1) if count > 1 else var
        new_rm = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mu
        new_rv = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * unbiased
    elif mode == "eval":
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = np.subtract(x, running_mean.reshape(shape))
        new_rm, new_rv = running_mean, running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    xhat *= inv_std.reshape(shape)
    out = np.multiply(gamma.reshape(shape), xhat)
    out += beta.reshape(shape)
    return out, (xhat, inv_std, gamma), new_rm, new_rv


def batchnorm_backward(g: np.ndarray, cache, mode: str, out: np.ndarray | None = None):
    """Gradients through batchnorm_forward -> (dx, dgamma, dbeta).

    Train mode differentiates through the batch statistics; eval mode treats
    the running statistics as constants. Each elementwise step writes into
    a fresh buffer or into dx, which is `out` if given, else fresh too.
    g is read for the last time before dx is first
    written, so out=g computes dx in g's place (a C-contiguous g only:
    the reductions below sum in memory order, so writing into a strided g
    would change their bits). Without `out`, neither g nor the cache is
    written to.
    """
    xhat, inv_std, gamma = cache
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    buf = np.multiply(g, xhat)
    dgamma = buf.sum(axis=axes)
    dbeta = g.sum(axis=axes)
    if mode == "eval":
        dx = buf if out is None else out
        return np.multiply(g, (gamma * inv_std).reshape(shape), out=dx), dgamma, dbeta
    # dx = inv_std * (gs - mean(gs) - xhat * mean(gs * xhat)), gs = gamma * g
    gs = np.multiply(gamma.reshape(shape), g, out=out)
    mean_gs = gs.mean(axis=axes).reshape(shape)
    mean_gs_xhat = np.multiply(gs, xhat, out=buf).mean(axis=axes).reshape(shape)
    np.multiply(xhat, mean_gs_xhat, out=buf)
    gs -= mean_gs
    gs -= buf
    gs *= inv_std.reshape(shape)
    return gs, dgamma, dbeta


def init_conv_params(rng, in_channels: int, out_channels: int, transpose: bool):
    """Seeded uniform +-1/sqrt(fan_in) with fan_in = in_channels * 27."""
    bound = 1.0 / np.sqrt(in_channels * KERNEL**3)
    if transpose:
        shape = (in_channels, out_channels, KERNEL, KERNEL, KERNEL)
    else:
        shape = (out_channels, in_channels, KERNEL, KERNEL, KERNEL)
    w = rng.uniform(-bound, bound, size=shape)
    b = rng.uniform(-bound, bound, size=out_channels)
    return w, b
