"""3D convolutional autoencoder with manual backprop and Adam training.

Architecture (fixed channel ladders): encoder conv 1->16->32->64, decoder
transpose-conv 64->32->16->1, every layer kernel 3 / stride 2 / padding 1.
Each layer applies conv, then activation, then batch norm, in that order;
the final decoder layer uses sigmoid and no batch norm. The decoder mirrors
the encoder's spatial chain exactly by choosing output padding 0 or 1 per
level (odd level sizes give the plain 2*in-1 transpose law, even sizes need
the extra edge position), so any input with all axes >= 8 round-trips.

Everything runs in float64; training is bitwise deterministic for a fixed
seed (init draws, then per-epoch shuffles, from one PRNG).

Memory: a training step keeps, per layer, only what its backward pass reads:
the batch-norm cache (xhat, 1/std, gamma, plus beta) and either the relu
mask z > 0 (packed, eight values a byte) or the sigmoid output. A layer
input that is a batch-norm output, gamma * xhat + beta (every input but
the batch, in this architecture), is not kept: backward rebuilds it from
the producing layer's cache with the forward's own ops, so bitwise, just
before the conv backward that reads it. So each float array the size of
a layer output exists once, as its xhat. A training forward keeps no
encoder activations and frees each layer's input once its conv has read
it. The conv output z is the buffer of the layer's other steps: the
activation runs in place on it, batch norm writes xhat into it, and only
the batch-norm output is a fresh array. backward drops each layer's cache
entry once its batch norm and activation are differentiated, before its
conv backward, and every other large array goes after its last read:
dL/drecon once the output layer's gradient is taken, and each conv
backward's input and incoming gradient inside that call (see backward).
The activation and batch-norm backward write into the gradient they
receive where backward made it, and the output layer's gradient is
written into the buffer its transposed conv pads it in (nn.grad_buffer).
Batch norm forms the products behind its reductions one sample at a time
and the SSIM loss runs in a few window-sized buffers, so no step makes a
full-size scratch array. Every float operation and its order are as
before, so every result keeps its bits.

`train` and `extract_activations` take a `Cohort`, whose subjects share
the atlas grid. Volumes are read (`Volume.voxels`, from disk for a loaded
cohort) and converted to float64 one batch at a time (float32 -> float64
is exact), so training and extraction hold one batch of the cohort, never
all of it.
`extract_activations` writes each batch's encoder rows to an anonymous
temporary file, and `ActivationSet.matrix` reads one layer matrix back per
call: the caller holds one layer matrix at a time, never all of them.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import Cohort, Volume
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .fileio import _read_grid, _write_grid
from .ssim import ssim3d, ssim3d_with_grad

ENCODER_CHANNELS = (1, 16, 32, 64)
MODEL_MAGIC = b"LSAE2\n"
# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # "conv3d" | "conv_transpose3d"
    in_channels: int
    out_channels: int
    activation: str  # "relu" | "sigmoid"
    batch_norm: bool


def default_architecture() -> list[LayerSpec]:
    c = ENCODER_CHANNELS
    enc = [
        LayerSpec("conv3d", c[i], c[i + 1], "relu", True) for i in range(3)
    ]
    dec = [
        LayerSpec("conv_transpose3d", c[3], c[2], "relu", True),
        LayerSpec("conv_transpose3d", c[2], c[1], "relu", True),
        LayerSpec("conv_transpose3d", c[1], c[0], "sigmoid", False),
    ]
    return enc + dec


def encoder_keys(layers: list[LayerSpec]) -> tuple[str, ...]:
    """The keys "L1", "L2", ... of the encoder layers of a layer table, in
    order, so the bottleneck's comes last. The encoder is the table's
    conv3d layers, which precede its transposed convs."""
    return tuple(f"L{j + 1}" for j, s in enumerate(layers) if s.kind == "conv3d")


LAYER_KEYS = encoder_keys(default_architecture())


@dataclass
class LayerParams:
    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None


@dataclass
class AEParams:
    layers: list[LayerSpec]
    params: list[LayerParams]

    def trainable_items(self):
        """Yields (layer_index, name, array) in a fixed order."""
        for i, p in enumerate(self.params):
            yield i, "w", p.w
            yield i, "b", p.b
            if self.layers[i].batch_norm:
                yield i, "gamma", p.gamma
                yield i, "beta", p.beta

    def all_arrays(self):
        for i, p in enumerate(self.params):
            yield p.w
            yield p.b
            if self.layers[i].batch_norm:
                yield p.gamma
                yield p.beta
                yield p.running_mean
                yield p.running_var


def init_params(seed: int, layers: list[LayerSpec] | None = None) -> AEParams:
    rng = np.random.default_rng(seed)
    if layers is None:
        layers = default_architecture()
    params = []
    for spec in layers:
        w, b = nn.init_conv_params(
            rng, spec.in_channels, spec.out_channels,
            transpose=spec.kind == "conv_transpose3d",
        )
        lp = LayerParams(w=w, b=b)
        if spec.batch_norm:
            lp.gamma = np.ones(spec.out_channels)
            lp.beta = np.zeros(spec.out_channels)
            lp.running_mean = np.zeros(spec.out_channels)
            lp.running_var = np.ones(spec.out_channels)
        params.append(lp)
    return AEParams(layers=layers, params=params)


def params_hash(model: AEParams) -> str:
    h = hashlib.sha256()
    for arr in model.all_arrays():
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def encoder_chain_dims(dims: tuple[int, int, int], n_levels: int = 3):
    """Spatial sizes [input, after level 1, ..., after level n_levels]."""
    if min(dims) < 2**n_levels:
        raise ShapeError(
            f"dims {dims} incompatible with {n_levels} stride-2 halvings "
            f"(need every axis >= {2**n_levels})"
        )
    chain = [tuple(dims)]
    for _ in range(n_levels):
        chain.append(tuple(nn.conv_out_dim(d) for d in chain[-1]))
    return chain


def _decoder_output_paddings(chain):
    """Per decoder level, the output padding that mirrors the encoder chain."""
    n_levels = len(chain) - 1
    pads = []
    for level in range(n_levels - 1, -1, -1):
        src = chain[level + 1]
        tgt = chain[level]
        pads.append(tuple(t - (2 * s - 1) for s, t in zip(src, tgt)))
    return pads


def _layer_forward(spec: LayerSpec, p: LayerParams, h: np.ndarray, mode: str, out_pad,
                   want_cache: bool = False):
    """One layer: conv (or transposed conv with output padding `out_pad`),
    activation, then batch norm if the layer has it.

    Returns (output, cache, running): running is the updated (mean, var)
    pair or None; cache is None unless want_cache, else what backward reads
    for this layer (see forward), but for its "input", which forward fills.
    h is handed to the conv as a temporary, so a caller that hands it over
    in turn has it freed once the conv has read it. The conv output z is
    the only layer-sized float array made: the activation runs in place on it
    and batch norm writes into it (xhat in train mode, its whole output in
    an eval forward that keeps no cache), so only a train-mode or cached
    batch norm makes its output afresh.
    """
    handed = [h]
    del h
    if spec.kind == "conv3d":
        z = nn.conv3d_forward(handed.pop(), p.w, p.b)
    else:
        z = nn.conv_transpose3d_forward(handed.pop(), p.w, p.b, out_pad)
    if spec.activation == "relu":
        act = np.packbits(z > 0.0) if want_cache else None
        nn.relu_forward(z, out=z)
    else:
        act = nn.sigmoid_forward(z, out=z)
    y, bn_cache, running = z, None, None
    if spec.batch_norm:
        # in place unless the result would be wider than z (a float32 batch)
        into = z if ((mode == "train" or not want_cache)
                     and np.result_type(z, p.running_mean) == z.dtype) else None
        y, bn_cache, rm, rv = nn.batchnorm_forward(
            z, p.gamma, p.beta, p.running_mean, p.running_var, mode, out=into)
        running = (rm, rv)
    cache = None
    if want_cache:
        cache = {"act": act, "bn": bn_cache, "beta": p.beta, "out_pad": out_pad}
    return y, cache, running


def _input_chain(model: AEParams, x: np.ndarray):
    """Check a batch (N,1,X,Y,Z) against the model; returns its encoder
    chain dims (see encoder_chain_dims)."""
    if x.ndim != 5 or x.shape[1] != model.layers[0].in_channels:
        raise ShapeError(f"expected (N,{model.layers[0].in_channels},X,Y,Z), got {x.shape}")
    return encoder_chain_dims(x.shape[2:], len(encoder_keys(model.layers)))


def forward(model: AEParams, x: np.ndarray, mode: str = "eval", want_cache: bool = False):
    """Run the full autoencoder on a batch (N,1,X,Y,Z).

    Returns (reconstruction, encoder_activations, cache). Activations are the
    post-norm outputs of the three encoder layers; with want_cache (a
    training step, which never reads them) the list is empty, so each
    encoder output is freed once the next layer has read it. cache is None
    unless want_cache; then cache["layers"] holds, per layer, only what
    backward reads:
      "input"    the layer's input array itself (not a copy), or None when
                 that input is the previous layer's batch-norm output, which
                 backward rebuilds from the previous entry (layers 2-6 of
                 the default architecture; layer 1 keeps the batch);
      "act"      the relu mask z > 0 packed 8 values a byte (np.packbits),
                 or the sigmoid output;
      "bn"       batch norm's (xhat, 1/std, gamma), or None;
      "beta"     batch norm's beta (the array itself), or None;
      "out_pad"  the transposed conv's output padding, or None.
    cache["running"] holds the updated running statistics (the caller
    decides whether to apply them). The batch-norm output is not kept (nor
    z, whose buffer holds xhat). Each layer's input but the batch is
    handed to the layer as a temporary, so it is freed once the conv has
    read it. backward consumes cache["layers"].
    """
    chain = _input_chain(model, x)
    n_enc = len(chain) - 1
    out_pads = _decoder_output_paddings(chain)
    acts = []
    layer_caches = []
    new_running = []
    handed = [x]  # each layer's input, handed over as a temporary
    for i, spec in enumerate(model.layers):
        op = None if spec.kind == "conv3d" else out_pads[i - n_enc]
        # backward rebuilds a batch-norm output from the entry before
        rebuilt = i > 0 and model.layers[i - 1].batch_norm
        kept = handed[-1] if want_cache and not rebuilt else None
        y, layer_cache, running = _layer_forward(spec, model.params[i], handed.pop(), mode,
                                                 op, want_cache)
        if want_cache:
            layer_cache["input"] = kept
        new_running.append(running)
        layer_caches.append(layer_cache)
        if spec.kind == "conv3d" and not want_cache:
            acts.append(y)
        handed.append(y)
        del y, kept
    cache = None
    if want_cache:
        cache = {"layers": layer_caches, "running": new_running, "mode": mode}
    return handed.pop(), acts, cache


def loss_value(recon: np.ndarray, target: np.ndarray, kind: str,
               alpha: float = 0.5) -> float:
    v, _ = _loss_impl(recon, target, kind, alpha, want_grad=False)
    return v


def loss_and_grad(recon: np.ndarray, target: np.ndarray, kind: str, alpha: float = 0.5):
    return _loss_impl(recon, target, kind, alpha, want_grad=True)


def _loss_impl(recon, target, kind, alpha, want_grad):
    if recon.shape != target.shape:
        raise ShapeError(f"loss shape mismatch {recon.shape} vs {target.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha {alpha} outside [0,1]")
    n = recon.shape[0]

    def mse_part():
        sq = np.subtract(recon, target)
        value = float(np.mean(np.multiply(sq, sq, out=sq)))
        if not want_grad:
            return value, None
        del sq  # the difference is made again, so it never exists next to its square
        diff = recon - target
        diff *= 2.0 / diff.size  # the gradient, in diff's place
        return value, diff

    def ssim_part():
        total = 0.0
        grad = np.zeros_like(recon) if want_grad else None
        for i in range(n):
            if want_grad:
                s, g = ssim3d_with_grad(recon[i, 0], target[i, 0], out=grad[i, 0])
                np.negative(g, out=g)  # -g / n, in the gradient's place
                g /= n
            else:
                s = ssim3d(recon[i, 0], target[i, 0])
            total += 1.0 - s
        return total / n, grad

    if kind == "mse":
        return mse_part()
    if kind == "ssim":
        return ssim_part()
    if kind == "combined":
        # SSIM first, so its per-volume temporaries are gone before diff is
        # made; the gradients combine in place, each element by the same
        # product and sum as alpha * mg + (1 - alpha) * sg
        sv, sg = ssim_part()
        mv, mg = mse_part()
        value = alpha * mv + (1.0 - alpha) * sv
        if want_grad:
            mg *= alpha
            sg *= 1.0 - alpha
            mg += sg
        return value, mg
    raise ConfigError(f"unknown loss kind {kind!r}")


def _bn_output(lc) -> np.ndarray:
    """The output gamma * xhat + beta of the batch-norm layer whose cache
    entry is `lc`, rebuilt with batchnorm_forward's own two ops, so bitwise
    the forward's output.

    It is written channel-major, into a C-contiguous (C, N, X, Y, Z) buffer,
    and returned as that buffer's (N, C, X, Y, Z) view: a transposed conv's
    weight gradient reads its input as (C, N*X*Y*Z) rows, which are then a
    view of the buffer, not a copy. A conv's backward copies its input into
    a padded buffer, which takes either layout."""
    xhat, _, gamma = lc["bn"]
    shape = (-1, 1, 1, 1, 1)
    xhat_t = xhat.transpose(1, 0, 2, 3, 4)
    out = np.multiply(gamma.reshape(shape), xhat_t, out=np.empty(xhat_t.shape, xhat.dtype))
    out += lc["beta"].reshape(shape)
    return out.transpose(1, 0, 2, 3, 4)


def backward(model: AEParams, cache, dloss_drecon: np.ndarray):
    """Reverse-mode gradients for every trainable parameter.

    cache comes from forward(want_cache=True) and is consumed. Per layer,
    last first, the entry is popped from cache["layers"], batch norm and the
    activation are differentiated with it, and it is dropped before the conv
    backward, so its xhat and mask are freed before the conv's buffers are
    made. A layer whose entry holds no input then reads the previous
    layer's batch-norm output, rebuilt from the previous entry (still in the
    cache) just before the conv backward: at most one rebuilt input is
    alive at a time.

    Each large array is freed after its last read. backward keeps no
    reference to dloss_drecon past the output layer's activation backward,
    so a caller that hands it over, keeping none itself, has it freed there
    (CPython 3.11 moves a call's arguments into the callee's frame). The
    gradient and the conv input are handed to each conv backward the same
    way, and that call frees each after its last read. Below the
    output layer, the gradient reaching a batch norm is one backward made:
    batch norm writes dx into it when it is C-contiguous (a transposed
    conv's dx), into a fresh array otherwise (a conv's dx is a crop), and
    the activation backward writes into that dx. The output layer's
    gradient, dL/drecon being the caller's, goes into a fresh array, or
    for a transposed conv into an nn.grad_buffer, which its conv backward
    pads in place. cache["layers"] is empty on return. Returns grads as a
    dict keyed (layer_index, name) matching trainable_items order.
    """
    layer_caches = cache["layers"]
    if len(layer_caches) != len(model.layers):
        raise ShapeError(f"cache holds {len(layer_caches)} of {len(model.layers)} layers; "
                         "backward consumes the cache of one forward pass")
    grads: dict[tuple[int, str], np.ndarray] = {}
    mode = cache["mode"]
    g = dloss_drecon
    del dloss_drecon
    for i in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[i]
        p = model.params[i]
        lc = layer_caches.pop()
        # g is written in place where this loop made it (not the caller's
        # dL/drecon) and it is C-contiguous (the reductions downstream sum
        # in memory order)
        in_place = i < len(model.layers) - 1 and g.flags.c_contiguous
        if spec.batch_norm:
            g, dgamma, dbeta = nn.batchnorm_backward(g, lc["bn"], mode,
                                                     out=g if in_place else None)
            in_place = g.flags.c_contiguous  # dx: this call's own array
            grads[(i, "gamma")] = dgamma
            grads[(i, "beta")] = dbeta
        # a transposed conv pads a fresh gradient in its own buffer
        in_room = not in_place and spec.kind == "conv_transpose3d"
        if in_room:
            into = nn.grad_buffer(g.shape, lc["out_pad"], g.dtype)
        else:
            into = g if in_place else None
        if spec.activation == "relu":
            mask = np.unpackbits(lc["act"], count=g.size).reshape(g.shape).view(np.bool_)
            g = nn.relu_backward(g, mask, out=into)
            del mask
        else:
            g = nn.sigmoid_backward(g, lc["act"], out=into)
        del into
        x, out_pad = lc["input"], lc["out_pad"]
        del lc  # this layer's xhat and mask: done with before its conv backward
        # popped as call arguments, so the conv backward holds their only
        # references (the batch, layer 1's input, is the caller's)
        handed = {"g": g, "x": _bn_output(layer_caches[-1]) if x is None else x}
        del g, x
        if spec.kind == "conv3d":
            g, dw, db = nn.conv3d_backward(handed.pop("g"), handed.pop("x"), p.w,
                                           input_grad=i > 0)
        else:
            g, dw, db = nn.conv_transpose3d_backward(handed.pop("g"), handed.pop("x"),
                                                     p.w, out_pad, pad_in_place=in_room)
        grads[(i, "w")] = dw
        grads[(i, "b")] = db
    return grads


def loss_and_gradients(model: AEParams, batch: np.ndarray, target: np.ndarray,
                       kind: str, alpha: float = 0.5, mode: str = "train"):
    """One forward+backward pass; returns (loss, grads, new_running_stats).
    dL/drecon is handed to backward as a temporary, so it is freed once the
    output layer's gradient is taken."""
    recon, _, cache = forward(model, batch, mode=mode, want_cache=True)
    value, *drecon = loss_and_grad(recon, target, kind, alpha)
    del recon, _  # the caches hold what backward needs
    grads = backward(model, cache, drecon.pop())
    return value, grads, cache["running"]


@dataclass
class TrainConfig:
    loss_kind: str = "mse"
    alpha: float = 0.5
    lr: float = 0.001
    max_epochs: int = 10
    patience: int = 5
    batch_size: int = 8
    seed: int = 0

    def validate(self):
        if self.loss_kind not in ("mse", "ssim", "combined"):
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0,1]")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be >= 1")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    stopped_epoch: int
    best_epoch: int
    best_loss: float
    params_sha256: str


def early_stop_epoch(losses: list[float], patience: int) -> int | None:
    """Index (1-based) of the epoch after which training stops, or None.

    Stops once the best loss has not improved for `patience` consecutive
    epochs (counted since the epoch that achieved the best loss).
    """
    best = np.inf
    streak = 0
    for e, v in enumerate(losses):
        if v < best:
            best = v
            streak = 0
        else:
            streak += 1
            if streak >= patience:
                return e + 1
    return None


def _volumes(cohort: Cohort) -> list[Volume]:
    """The cohort's volumes in order, unread; a batch reads its own
    (`_as_batch_array`). `Cohort` has checked that they share its atlas's
    dims."""
    if not cohort.subjects:
        raise ConfigError("empty training cohort")
    return [s.volume for s in cohort.subjects]


def _as_batch_array(vols: list[Volume]) -> np.ndarray:
    """Volumes of one shape as one float64 (n, 1, X, Y, Z) batch, each read
    and converted (exactly) into its slot in turn."""
    batch = np.empty((len(vols), 1, *vols[0].dims))
    for i, v in enumerate(vols):
        batch[i, 0] = v.voxels
    return batch


def train(cohort: Cohort, config: TrainConfig) -> tuple[AEParams, TrainReport]:
    """Adam mini-batch training with early stopping; target = input."""
    config.validate()
    vols = _volumes(cohort)
    n = len(vols)
    rng = np.random.default_rng(config.seed)
    model = init_params(seed=int(rng.integers(0, 2**63 - 1)))

    m_state = {k: np.zeros_like(a) for k, a in _trainable_dict(model).items()}
    v_state = {k: np.zeros_like(a) for k, a in _trainable_dict(model).items()}
    t_step = 0

    epoch_losses: list[float] = []
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = _as_batch_array([vols[i] for i in idx])
            value, grads, running = loss_and_gradients(
                model, batch, batch, config.loss_kind, config.alpha, mode="train")
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss {value} at epoch {epoch}, batch {start // config.batch_size}"
                )
            t_step += 1
            _adam_update(model, grads, m_state, v_state, t_step, config.lr)
            _apply_running(model, running)
            batch_losses.append(value)
        epoch_loss = float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            raise NumericError(f"non-finite epoch loss at epoch {epoch}")
        epoch_losses.append(epoch_loss)
        if early_stop_epoch(epoch_losses, config.patience) is not None:
            break
    best = min(epoch_losses)
    report = TrainReport(
        epoch_losses=epoch_losses,
        stopped_epoch=len(epoch_losses),
        best_epoch=epoch_losses.index(best) + 1,
        best_loss=best,
        params_sha256=params_hash(model),
    )
    return model, report


def _trainable_dict(model: AEParams) -> dict[tuple[int, str], np.ndarray]:
    return {(i, name): arr for i, name, arr in model.trainable_items()}


def _adam_update(model, grads, m_state, v_state, t, lr: float):
    for key, arr in _trainable_dict(model).items():
        g = grads[key]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {key}")
        m_state[key] = ADAM_BETA1 * m_state[key] + (1 - ADAM_BETA1) * g
        v_state[key] = ADAM_BETA2 * v_state[key] + (1 - ADAM_BETA2) * (g * g)
        mhat = m_state[key] / (1 - ADAM_BETA1**t)
        vhat = v_state[key] / (1 - ADAM_BETA2**t)
        arr -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _apply_running(model: AEParams, running):
    for i, upd in enumerate(running):
        if upd is not None:
            model.params[i].running_mean = upd[0]
            model.params[i].running_var = upd[1]


class ActivationSet:
    """Flattened eval-mode encoder activations of a cohort: per kept layer,
    an (n_subjects, C*x*y*z) float64 matrix in C order, spilled to an
    anonymous temporary file. `matrix` reads one layer back into a fresh
    array per call, so a caller holds only the matrices it keeps. The file
    has no name on disk; `close`, leaving a `with` block or the process's
    end deletes it."""

    def __init__(self, subject_ids: list[str], shapes: dict, offsets: dict, spill):
        self.subject_ids = subject_ids
        self.shapes = shapes  # key -> (C, x, y, z), in encoder order
        self._offsets = offsets  # key -> byte offset of its rows in `spill`
        self._spill = spill

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._spill.close()

    def matrix(self, layer: str) -> np.ndarray:
        if layer not in self.shapes:
            raise KeyError(f"unknown layer {layer!r}; have {sorted(self.shapes)}")
        out = np.empty((len(self.subject_ids), math.prod(self.shapes[layer])))
        self._spill.seek(self._offsets[layer])
        if self._spill.readinto(out) != out.nbytes:
            raise FormatError(f"activation spill file ends inside layer {layer}")
        return out

    def latent(self) -> np.ndarray:
        """The bottleneck (last encoder layer) activations, (n, C, x, y, z):
        the input of `decode`. `shapes` is in encoder order and always
        holds the bottleneck, so its key is the last."""
        key = list(self.shapes)[-1]
        return self.matrix(key).reshape(-1, *self.shapes[key])


def extract_activations(model: AEParams, cohort: Cohort, batch_size: int = 8,
                        layers=None, spill_dir=None) -> ActivationSet:
    """Eval-mode encoder activations of the cohort's subjects, flattened,
    in cohort order; only the encoder layers run, one batch at a time. Each
    batch's rows of every kept layer are written to their place in an
    anonymous temporary file in `spill_dir` (the system's temporary
    directory when None), so extraction holds one batch, not the matrices.
    With `layers` (keys such as "L1"), only those layers and the bottleneck
    are kept."""
    vols = _volumes(cohort)
    n = len(vols)
    keys = encoder_keys(model.layers)
    keep = set(keys if layers is None else layers) | {keys[-1]}
    if not keep <= set(keys):
        raise KeyError(f"unknown layers {sorted(keep - set(keys))}; have {list(keys)}")
    spill = tempfile.TemporaryFile(dir=spill_dir)
    try:
        shapes, offsets, size = {}, {}, 0
        for start in range(0, n, batch_size):
            handed = [_as_batch_array(vols[start : start + batch_size])]
            _input_chain(model, handed[0])  # checks the batch against the model
            for j, key in enumerate(keys):
                # each layer frees its input once read (see _layer_forward)
                handed.append(_layer_forward(model.layers[j], model.params[j], handed.pop(),
                                             "eval", None)[0])
                if key not in keep:
                    continue
                h = handed[0]
                row_bytes = h[0].nbytes
                if key not in offsets:
                    shapes[key], offsets[key] = tuple(h.shape[1:]), size
                    size += n * row_bytes
                spill.seek(offsets[key] + start * row_bytes)
                spill.write(np.ascontiguousarray(h))
                del h
    except BaseException:
        spill.close()
        raise
    return ActivationSet(cohort.subject_ids, shapes, offsets, spill)


def latent_shape(model: AEParams, dims) -> tuple[int, ...]:
    """(C, x, y, z) of one subject's bottleneck activations under `model`
    for a volume of spatial size `dims`: a row of `ActivationSet.latent()`."""
    n_enc = len(encoder_keys(model.layers))
    return (model.layers[n_enc - 1].out_channels, *encoder_chain_dims(dims, n_enc)[-1])


def decode(model: AEParams, latent: np.ndarray, dims) -> np.ndarray:
    """Eval-mode reconstruction (N,1,*dims) of volumes of spatial size `dims`
    from their bottleneck activations (N, *latent_shape(model, dims)); only
    the decoder layers run."""
    n_enc = len(encoder_keys(model.layers))
    out_pads = _decoder_output_paddings(encoder_chain_dims(dims, n_enc))
    handed = [latent]  # each layer frees its input once read (see _layer_forward)
    for spec, p, op in zip(model.layers[n_enc:], model.params[n_enc:], out_pads):
        handed.append(_layer_forward(spec, p, handed.pop(), "eval", op)[0])
    return handed.pop()


def save_model(model: AEParams, path: str) -> None:
    """The model's arrays in `all_arrays` order, flattened into one float64
    grid (magic "LSAE2\\n"; see fileio). The file records no layer table
    and no array shapes, so only the default architecture can be saved:
    any other layer table, or an array off its shape, is a ShapeError."""
    if model.layers != default_architecture():
        raise ShapeError("only the default architecture can be saved")
    got = [np.shape(a) for a in model.all_arrays()]
    want = [a.shape for a in init_params(0).all_arrays()]
    if got != want:
        raise ShapeError(f"model arrays have shapes {got}, the default "
                         f"architecture needs {want}")
    flat = np.concatenate([np.ravel(a) for a in model.all_arrays()])
    _write_grid(path, MODEL_MAGIC, flat, "<f8")


def load_model(path: str) -> AEParams:
    """The default-architecture model that `save_model` wrote to `path`: a
    missing or unreadable file is a DependencyError, any other value count
    than the architecture's a FormatError."""
    flat, _ = _read_grid(path, MODEL_MAGIC, "<f8", ndim=1)
    model = init_params(0)
    arrays = list(model.all_arrays())
    want = sum(a.size for a in arrays)
    if flat.size != want:
        raise FormatError(f"{path}: {flat.size} values, the autoencoder "
                          f"architecture has {want}")
    start = 0
    for a in arrays:
        a[...] = flat[start : start + a.size].reshape(a.shape)
        start += a.size
    return model
