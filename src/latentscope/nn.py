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

What each op writes. Without `out`, no op writes an argument. With it:
relu_forward, relu_backward, sigmoid_forward and sigmoid_backward write
their result into `out` (out=x or out=g runs them in place);
batchnorm_forward writes xhat into `out` in train mode and its output in
eval mode; batchnorm_backward writes dx into `out`. The conv kernels write
no argument, except that conv_transpose3d_backward with pad_in_place
pads a g made by grad_buffer in that g's own buffer. Batch norm forms the products behind
its reductions one sample at a time, in a buffer of one sample
(_sum_of_product), so that the sums keep their bits without a scratch
array of the input's size.
"""

from __future__ import annotations

import functools
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
# Bytes of xhat that a FiredXhat packs or rebuilds in one step (see
# _row_chunks): its scratch, and a few numpy calls per chunk.
_KEPT_CHUNK_BYTES = 1024 * 1024


def conv_out_dim(d: int) -> int:
    out = (d - 1) // 2 + 1
    if out < 1:
        raise ShapeError(f"axis size {d} collapses under stride-2 conv")
    return out


def transpose_out_dim(d: int, output_padding: int = 0) -> int:
    return 2 * d - 1 + output_padding


def _offsets():
    return itertools.product(range(KERNEL), repeat=3)


@functools.cache
def _tap_indices(dims: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per kernel tap k, in _offsets order, the index of the (N, C, *dims)
    view that tap k of a stride-2 kernel reads (or writes) for a grid of
    size `dims`: every second position from k. Built once per grid."""
    return tuple((..., *(slice(o, o + 2 * d - 1, 2) for o, d in zip(k, dims)))
                 for k in _offsets())


def _crop(a: np.ndarray, dims) -> np.ndarray:
    """The (N, C, *dims) view of `a` at offset 1 along each spatial axis."""
    return a[(..., *(slice(1, 1 + d) for d in dims))]


def _pad(a: np.ndarray, buf_dims, in_place: bool = False) -> np.ndarray:
    """`a` placed at offset 1 in a zero (N, C, *buf_dims) buffer: a fresh
    one, and `a` is not written to, unless in_place.

    in_place pads an array of grad_buffer in that buffer, overwriting `a`:
    its samples move into place from the last back (each value lands at or
    after where it was read, so none is overwritten unread), then the
    margins are zeroed. Any other `a` is a ShapeError."""
    shape = a.shape[:2] + tuple(buf_dims)
    if not in_place:
        buf = np.zeros(shape, dtype=a.dtype)
        _crop(buf, a.shape[2:])[...] = a
        return buf
    room = a.base
    if (room is None or room.ndim != 1 or room.size < math.prod(shape) or not a.flags.c_contiguous
            or room.ctypes.data != a.ctypes.data):
        raise ShapeError(f"{a.shape} gradient is not at the start of a buffer with room "
                         f"for {shape} (see grad_buffer)")
    buf = room[:math.prod(shape)].reshape(shape)
    crop = _crop(buf, a.shape[2:])
    for n in reversed(range(a.shape[0])):
        crop[n] = a[n]  # numpy copies an overlapping source first
    for axis, d in enumerate(a.shape[2:], start=2):
        index = [slice(None)] * buf.ndim
        for margin in (slice(0, 1), slice(1 + d, None)):
            index[axis] = margin
            buf[tuple(index)] = 0
    return buf


def grad_buffer(shape, output_padding=(0, 0, 0), dtype=np.float64) -> np.ndarray:
    """An uninitialised C-contiguous array of `shape`, the gradient of a
    transposed conv's output with that output padding, at the start of a
    flat buffer with room for the zero-padded array that
    conv_transpose3d_backward makes of it. A gradient written here and
    handed to that backward with pad_in_place is padded in this buffer, so
    it never exists next to a padded copy of itself."""
    padded = [d + 2 - op for d, op in zip(shape[2:], output_padding)]
    room = np.empty(math.prod(shape[:2]) * math.prod(padded), dtype=dtype)
    return room[:math.prod(shape)].reshape(shape)


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


def _copy_taps(src: np.ndarray, tap, buf: np.ndarray, axes) -> None:
    """Copy src[tap] (a _tap_indices entry), transposed by `axes`, into the
    C-contiguous `buf` of the same size: the GEMM operand _rows (or
    tensordot) would allocate, in the same layout, without a fresh
    allocation per tap."""
    view = src[tap].transpose(axes)
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
    caller keeps the order its artifacts were first computed in, except
    where the inner dimension is 1 (w.shape[1] == 1): each product element
    is then one rounded multiply in either order, so a caller may take the
    faster rows-first order with the same bits. Each block
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
        for k, tap in zip(_offsets(), _tap_indices(grid[1:])):
            _copy_taps(src, tap, taps, axes)
            w_k = w[(..., *k)]
            acc += np.dot(w_k, taps, out=prod) if weights_first else np.dot(taps, w_k.T, out=prod)
        if (s1, x1) == (n, out[0]):
            del prod_buf, taps_buf, prod, taps  # free the scratch before the last write
        if weights_first:
            result[s0:s1, :, x0:x1] = acc.reshape(c, *grid).transpose(1, 0, 2, 3, 4)
        else:
            result[s0:s1, :, x0:x1] = np.moveaxis(acc.reshape(*grid, c), -1, 1)
    return result


def _scatter(src: np.ndarray, w: np.ndarray, buf_dims):
    """Adjoint of _gather: taps_k(buf) += w[:, :, k]^T . src over w's axis 0,
    into a zero buffer of (N, w.shape[1], *buf_dims), yielded a block of
    samples at a time as (s0, s1, block): `block` is samples s0 to s1 of
    the buffer, a view valid until the next block is taken.

    Blocks are whole samples (slabs of one sample would overlap at their
    edges in the buffer), and each sums its taps in one accumulator,
    channel last, the layout each tap's product comes out of the GEMM in;
    the view keeps that layout, and each caller copies what it needs of
    each block to C order, so no buffer of the whole batch is made here. A
    block's GEMM operand is its rows of _rows(src), built once per block:
    where _rows copies (a C-order src), each block copies only its own
    samples into the same C-contiguous rows a slice of the whole copy
    would hold; where _rows is a view of src, the block slices that view.
    """
    n, dims, ci = src.shape[0], src.shape[2:], w.shape[1]
    dtype = np.result_type(src, w)
    grid = math.prod(dims)
    groups = _sample_groups(n, ci * math.prod(buf_dims) * dtype.itemsize, grid)
    most = max(s1 - s0 for s0, s1 in groups)
    acc_buf = np.empty(most * math.prod(buf_dims) * ci, dtype=src.dtype)
    view = _rows_view(src)
    prod_buf = np.empty(most * grid * ci, dtype=dtype)
    for s0, s1 in groups:
        if view is None:  # ascontiguousarray: one sample's _rows is a strided view
            rows = np.ascontiguousarray(_rows(src[s0:s1]))
        else:
            rows = view[s0 * grid:s1 * grid]
        prod = prod_buf[:(s1 - s0) * grid * ci].reshape(-1, ci)
        contrib = np.moveaxis(prod.reshape(s1 - s0, *dims, ci), -1, 1)
        block = acc_buf[:(s1 - s0) * math.prod(buf_dims) * ci].reshape(s1 - s0, *buf_dims, ci)
        block.fill(0)
        block = np.moveaxis(block, -1, 1)
        for k, tap in zip(_offsets(), _tap_indices(dims)):
            np.dot(rows, w[(..., *k)], out=prod)
            acc = block[tap]  # added in place (block[tap][...] += would copy it back)
            acc += contrib
        del rows  # this block's copy, before the next block makes its own
        yield s0, s1, block


def _weight_grad(a: np.ndarray, src_padded: np.ndarray) -> np.ndarray:
    """Per tap k, sum over batch and grid of a x taps_k(src_padded)
    -> (a.shape[1], src_padded.shape[1], 3, 3, 3); a's GEMM operand is
    built once."""
    cb, dims = src_padded.shape[1], a.shape[2:]
    dw = np.empty((a.shape[1], cb) + (KERNEL,) * 3, dtype=a.dtype)
    rows_t = a.transpose(1, 0, 2, 3, 4).reshape(a.shape[1], -1)
    rows = np.empty((rows_t.shape[1], cb), dtype=src_padded.dtype)
    for k, tap in zip(_offsets(), _tap_indices(dims)):
        _copy_taps(src_padded, tap, rows, (0, 2, 3, 4, 1))
        dw[(..., *k)] = np.dot(rows_t, rows)
    return dw


def conv3d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (N,Ci,X,Y,Z), w (Co,Ci,3,3,3), b (Co,) -> (N,Co,ox,oy,oz).

    x is dropped once padded, so a caller that passes it as a temporary has
    it freed before the taps are summed."""
    ci, dims = x.shape[1], x.shape[2:]
    if w.shape[1] != ci:
        raise ShapeError(f"input channels {ci} != weight in_channels {w.shape[1]}")
    padded = _pad(x, [d + 2 for d in dims])
    del x
    # rows first at one input channel: the same bits (see _gather), faster
    out = _gather(padded, w, [conv_out_dim(d) for d in dims], ci > 1)
    out += b[None, :, None, None, None]
    return out


def conv3d_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray, input_grad: bool = True):
    """Gradients of sum(g * conv3d_forward(x, w, b)) -> (dx, dw, db); dx is
    None unless input_grad (a first layer has no use for it).

    db, then dw, then dx: x is dropped once padded, its padded copy once
    dw is taken, and g once dx's buffer is filled, so a caller that passes
    them as temporaries (holding no reference of its own) has each freed
    after its last read."""
    dims = x.shape[2:]
    padded = [d + 2 for d in dims]
    db = g.sum(axis=(0, 2, 3, 4))
    x_padded = _pad(x, padded)
    del x
    dw = _weight_grad(g, x_padded)
    del x_padded
    if not input_grad:
        return None, dw, db
    buf = np.empty((g.shape[0], w.shape[1], *padded), dtype=g.dtype)
    for s0, s1, block in _scatter(g, w, padded):
        buf[s0:s1] = block
    del g
    return _crop(buf, dims), dw, db


def conv_transpose3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    output_padding: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """x (N,Ci,X,Y,Z), w (Ci,Co,3,3,3), b (Co,) -> (N,Co,2X-1+opx,...).

    Each block of samples is copied into the result once its taps are
    summed (see _scatter), so no padded buffer of the whole batch is made;
    x is dropped once its products are scattered, so a caller that passes
    it as a temporary has it freed before the bias is added."""
    ci, dims = x.shape[1], x.shape[2:]
    if w.shape[0] != ci:
        raise ShapeError(f"input channels {ci} != weight in_channels {w.shape[0]}")
    if any(op not in (0, 1) for op in output_padding):
        raise ShapeError(f"output_padding must be 0 or 1 per axis, got {output_padding}")
    out_dims = [transpose_out_dim(d, op) for d, op in zip(dims, output_padding)]
    out = np.empty((x.shape[0], w.shape[1], *out_dims), dtype=x.dtype)
    for s0, s1, block in _scatter(x, w, [2 * d + 1 for d in dims]):
        out[s0:s1] = _crop(block, out_dims)
    del x
    out += b[None, :, None, None, None]
    return out


def conv_transpose3d_backward(
    g: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    output_padding: tuple[int, int, int] = (0, 0, 0),
    pad_in_place: bool = False,
):
    """Gradients of sum(g * conv_transpose3d_forward(x, w, b, output_padding))
    -> (dx, dw, db); the output padding is read from g's shape.

    g is dropped once it is padded and db is taken, x once dw is taken,
    before dx is built, so a caller that passes them as temporaries has
    each freed after its last read. g is not written to, unless
    pad_in_place: then g must be an array of grad_buffer, and it is padded
    in that buffer, overwriting g's values."""
    dims = x.shape[2:]
    db = g.sum(axis=(0, 2, 3, 4))
    gpad = _pad(g, [2 * d + 1 for d in dims], pad_in_place)
    del g
    dw = _weight_grad(x, gpad)
    del x
    return _gather(gpad, w, dims, False), dw, db


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), into `out` if given (out=x runs it in place)."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(g: np.ndarray, mask: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g where the relu was active, into `out` if given (out=g runs it in
    place): `mask` is the bool array x > 0.0 of the relu's input x (what
    forward keeps instead of x itself)."""
    return np.multiply(g, mask, out=out)


def sigmoid_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """expit(x), into `out` if given (out=x runs it in place)."""
    return expit(x, out=out)


def sigmoid_backward(g: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """g * y * (1 - y) for the sigmoid's output y, into `out` if given
    (out=g runs it in place); 1 - y is formed one sample at a time, so no
    other array of g's size is made. y is not written to."""
    dx = np.multiply(g, y, out=out)
    one_minus = np.empty(y.shape[1:], dtype=y.dtype)
    for n in range(y.shape[0]):
        dx[n] *= np.subtract(1.0, y[n], out=one_minus)
    return dx


def _sum_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b).sum(axis=(0, 2, 3, 4)), bitwise, for a and b with C-order
    strides (b contiguous, a contiguous or a crop of a contiguous array).

    With two or more channels numpy sums a C-contiguous product one
    (sample, channel) row at a time and adds the samples' sums in sample
    order, so the product is formed one sample at a time, in one buffer,
    and its per-sample sums are added in that order. A single channel is
    reduced as one flat array, so its product is formed whole."""
    if a.shape[1] < 2:
        return np.multiply(a, b).sum(axis=(0, 2, 3, 4))
    buf = np.empty(a.shape[1:], dtype=np.result_type(a, b))
    total = np.multiply(a[0], b[0], out=buf).sum(axis=(1, 2, 3))
    for n in range(1, a.shape[0]):
        total += np.multiply(a[n], b[n], out=buf).sum(axis=(1, 2, 3))
    return total


def _row_chunks(n: int, c: int, row_bytes: int) -> list[tuple[int, int]]:
    """The N*C rows (one channel of one sample each, `row_bytes` a row) of
    an (N, C, X, Y, Z) array cut into ranges of at most _KEPT_CHUNK_BYTES,
    and at least one row: whole samples where a sample fits, else ranges of
    channels within one sample."""
    if c * row_bytes <= _KEPT_CHUNK_BYTES:
        step = c * (_KEPT_CHUNK_BYTES // (c * row_bytes))
        return [(r, min(r + step, n * c)) for r in range(0, n * c, step)]
    step = max(1, _KEPT_CHUNK_BYTES // row_bytes)
    return [(s * c + a, s * c + min(a + step, c)) for s in range(n) for a in range(0, c, step)]


class FiredXhat:
    """Batch norm's xhat (N, C, X, Y, Z) for an input x that is a relu's
    (or a sigmoid's) output, kept only where x > 0.

    Everywhere else x is +0.0 (np.maximum writes +0.0 for a -0.0 input, and
    a sigmoid is never negative), so xhat holds there the one per-channel
    value, `unfired`, that batchnorm_forward's two ops give a zero input.
    What is kept is that value, the packed mask np.packbits(x > 0) (x in
    C order, the mask relu_backward reads too) and the xhat values at the
    fired positions in C order: about half of xhat's bytes when half the
    relu's outputs are zero. A NaN input's position counts as unfired, so
    its xhat is not rebuilt bitwise (a NaN loss stops training before any
    of it is used).

    The kept values live in xhat's own buffer. Building a FiredXhat moves
    them to the buffer's front, one chunk of rows (_row_chunks) at a time,
    and shrinks the buffer to them (ndarray.resize, a realloc: a buffer
    malloc mapped on its own gives its tail back to the system at once).
    `restore` grows the buffer back and spreads the values out again, from
    the last chunk back, so xhat is rebuilt where it was and never exists
    next to its kept copy; it is the last use. `output` rebuilds batch
    norm's output. Both are bitwise the forward's.
    """

    def __init__(self, xhat: np.ndarray, fired: np.ndarray, unfired: np.ndarray):
        """Keep `xhat`, a C-contiguous array that owns its data, which
        becomes the kept store: it must not be read afterwards."""
        self.shape, self.dtype = xhat.shape, xhat.dtype
        self.fired = fired
        self.unfired = unfired
        size = math.prod(self.shape[2:])
        self._chunks = _row_chunks(self.shape[0], self.shape[1], size * xhat.itemsize)
        self._counts = []
        flat = xhat.reshape(-1)
        kept = 0
        for r0, r1 in self._chunks:
            values = np.compress(self._mask(r0, r1), flat[r0 * size:r1 * size])
            flat[kept:kept + values.size] = values
            kept += values.size
            self._counts.append(values.size)
        del flat, values
        xhat.resize(kept, refcheck=False)
        self._kept = xhat

    @property
    def nbytes(self) -> int:
        """The bytes of the kept xhat values (not of the mask); 0 once
        restored."""
        return 0 if self._kept is None else self._kept.nbytes

    def _mask(self, r0: int, r1: int) -> np.ndarray:
        """x > 0 of rows r0 to r1 as a flat bool array, unpacked from their
        own bits."""
        size = math.prod(self.shape[2:])
        start, stop = r0 * size, r1 * size
        bits = np.unpackbits(self.fired[start // 8:-(-stop // 8)])
        return bits[start % 8:start % 8 + stop - start].view(np.bool_)

    def _rebuild(self, r0: int, r1: int, values: np.ndarray, into: np.ndarray) -> np.ndarray:
        """Rows r0 to r1 of xhat, from their kept `values`, into the flat
        C-contiguous array `into`."""
        rows = into.reshape(r1 - r0, -1)
        rows[...] = self.unfired[np.arange(r0, r1) % self.shape[1]].reshape(-1, 1)
        into[np.flatnonzero(self._mask(r0, r1))] = values
        return into

    def _starts(self):
        """Where each chunk's kept values start in the kept store."""
        return itertools.accumulate(self._counts, initial=0)

    def output(self, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta, batchnorm_forward's output, with its two
        ops, so bitwise; written channel-major, into a C-contiguous
        (C, N, X, Y, Z) buffer, and returned as that buffer's
        (N, C, X, Y, Z) view. xhat is rebuilt a chunk at a time, in a
        buffer of one chunk."""
        if self._kept is None:
            raise ValueError("this xhat was restored; its kept values are gone")
        n, c, *dims = self.shape
        size = math.prod(dims)
        out = np.empty((c, n, *dims), dtype=np.result_type(gamma, self.dtype))
        out_rows = out.reshape(c, n, size)
        buf = np.empty(max(r1 - r0 for r0, r1 in self._chunks) * size, dtype=self.dtype)
        for (r0, r1), start, count in zip(self._chunks, self._starts(), self._counts):
            xhat = self._rebuild(r0, r1, self._kept[start:start + count],
                                 buf[:(r1 - r0) * size])
            s0, c0 = divmod(r0, c)
            ns = max(1, (r1 - r0) // c)
            nc = (r1 - r0) // ns
            block = out_rows[c0:c0 + nc, s0:s0 + ns].transpose(1, 0, 2)
            np.multiply(gamma[c0:c0 + nc].reshape(-1, 1), xhat.reshape(block.shape),
                        out=block)
            block += beta[c0:c0 + nc].reshape(-1, 1)
        return out.transpose(1, 0, 2, 3, 4)

    def restore(self) -> np.ndarray:
        """The C-contiguous xhat, bitwise the one batchnorm_forward made,
        rebuilt in the kept store's own buffer."""
        if self._kept is None:
            raise ValueError("this xhat was restored already")
        xhat, self._kept = self._kept, None
        size = math.prod(self.shape[2:])
        xhat.resize(math.prod(self.shape), refcheck=False)
        starts = list(self._starts())
        for (r0, r1), start, count in reversed(list(zip(self._chunks, starts, self._counts))):
            values = xhat[start:start + count].copy()  # the rows' own place may overlap it
            self._rebuild(r0, r1, values, xhat[r0 * size:r1 * size])
        return xhat.reshape(self.shape)


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray, mode: str,
                      out: np.ndarray | None = None, fired: np.ndarray | None = None):
    """Per-channel batch norm over (batch, spatial) axes.

    Returns (out, cache, new_running_mean, new_running_var). Running stats are
    never mutated in place; train mode returns the updated copies (with the
    unbiased variance, torch-style), eval mode returns the inputs unchanged.
    The cache is (xhat, 1/std, gamma), for batchnorm_backward.

    `fired`, for an x that is a relu's or a sigmoid's output, is
    np.packbits(x > 0) of x in C order: the cache then keeps xhat as a
    FiredXhat, only where x > 0, in xhat's own buffer shrunk to those
    values, so no array of x's size but the output is left.

    Writes: without `out`, nothing passed in is written. With `out` (out=x
    runs it in place), xhat is written into `out`: train mode, and eval
    mode with `fired`, keep it in the cache (with `fired`, `out` becomes
    the FiredXhat's store and must not be read again) and return a fresh
    output; eval mode without `fired` writes its output into `out` and
    returns None for the cache (xhat is overwritten), so an eval forward
    that needs no gradient makes no array of x's size.
    """
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    if mode == "train":
        count = x.shape[0] * x.shape[2] * x.shape[3] * x.shape[4]
        centre = x.mean(axis=axes)
        xhat = np.subtract(x, centre.reshape(shape), out=out)
        # x.var(axis=axes) takes these steps on a centred copy of its own
        var = _sum_of_product(xhat, xhat) / count
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        unbiased = var * count / (count - 1) if count > 1 else var
        new_rm = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * centre
        new_rv = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * unbiased
    elif mode == "eval":
        centre = running_mean
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        xhat = np.subtract(x, centre.reshape(shape), out=out)
        new_rm, new_rv = running_mean, running_var
    else:
        raise ValueError(f"unknown mode {mode!r}")
    xhat *= inv_std.reshape(shape)
    in_place = mode == "eval" and out is not None and fired is None
    y = np.multiply(gamma.reshape(shape), xhat, out=xhat if in_place else None)
    y += beta.reshape(shape)
    if in_place:
        return y, None, new_rm, new_rv
    if fired is not None:
        # xhat's value at x = +0.0, by the same two ops on one zero a channel
        unfired = np.subtract(np.zeros(x.shape[1], x.dtype), centre,
                              out=np.empty(x.shape[1], xhat.dtype))
        unfired *= inv_std
        xhat = FiredXhat(xhat, fired, unfired)
    return y, (xhat, inv_std, gamma), new_rm, new_rv


def batchnorm_backward(g: np.ndarray, cache, mode: str, out: np.ndarray | None = None):
    """Gradients through batchnorm_forward -> (dx, dgamma, dbeta).

    Train mode differentiates through the batch statistics; eval mode treats
    the running statistics as constants. dx is written into `out` if given,
    else into a fresh array; neither g nor the cache is written to
    otherwise. g is read for the last time before dx is first written, so
    out=g computes dx in g's place (a C-contiguous g only: the reductions
    below sum in memory order, so writing into a strided g would change
    their bits). The two products that feed a reduction, and the last
    product of dx, are formed one sample at a time (see _sum_of_product),
    so the only array of g's size made here is dx, and only without `out`.
    A FiredXhat in the cache is restored here, in its own buffer
    (FiredXhat.restore), so the cache serves one backward.
    """
    xhat, inv_std, gamma = cache
    if isinstance(xhat, FiredXhat):
        xhat = xhat.restore()
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    dgamma = _sum_of_product(g, xhat)
    dbeta = g.sum(axis=axes)
    if mode == "eval":
        return np.multiply(g, (gamma * inv_std).reshape(shape), out=out), dgamma, dbeta
    # dx = inv_std * (gs - mean(gs) - xhat * mean(gs * xhat)), gs = gamma * g
    gs = np.multiply(gamma.reshape(shape), g, out=out)
    mean_gs = gs.mean(axis=axes).reshape(shape)
    # divided as ndarray.mean divides its sum
    count = np.intp(gs.shape[0] * gs.shape[2] * gs.shape[3] * gs.shape[4])
    mean_gs_xhat = _sum_of_product(gs, xhat)
    np.true_divide(mean_gs_xhat, count, out=mean_gs_xhat, casting="unsafe")
    mean_gs_xhat = mean_gs_xhat.reshape(shape[1:])
    gs -= mean_gs
    buf = np.empty(xhat.shape[1:], dtype=np.result_type(xhat, mean_gs_xhat))
    for n in range(gs.shape[0]):
        gs[n] -= np.multiply(xhat[n], mean_gs_xhat, out=buf)
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
