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
the layer input (the previous layer's output, so no copy), the batch-norm
cache (xhat, 1/std, gamma) and either the relu mask z > 0 (bool, one byte a
value; relu then runs in place on z) or the sigmoid output. backward drops
each layer's cache as soon as that layer's gradients are done. Volumes are
converted to float64 one batch at a time (float32 -> float64 is exact), so
the cohort is never held in float64 as a whole.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Cohort
from .errors import (ConfigError, DependencyError, FormatError, NumericError,
                     ShapeError)
from .ssim import ssim3d, ssim3d_with_grad

ENCODER_CHANNELS = (1, 16, 32, 64)
LAYER_KEYS = ("L1", "L2", "L3")
MODEL_MAGIC = b"LSAE1\n"
_LAYER_KINDS = ("conv3d", "conv_transpose3d")
_ACTIVATIONS = ("relu", "sigmoid")


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
    for this layer (see forward).
    """
    if spec.kind == "conv3d":
        z = nn.conv3d_forward(h, p.w, p.b)
    else:
        z = nn.conv_transpose3d_forward(h, p.w, p.b, out_pad)
    if spec.activation == "relu":
        act = z > 0.0 if want_cache else None
        a = nn.relu_forward(z, out=z)  # in place: z itself is not kept
    else:
        a = act = nn.sigmoid_forward(z)
    y, bn_cache, running = a, None, None
    if spec.batch_norm:
        y, bn_cache, rm, rv = nn.batchnorm_forward(
            a, p.gamma, p.beta, p.running_mean, p.running_var, mode
        )
        running = (rm, rv)
    cache = None
    if want_cache:
        cache = {"input": h, "act": act, "bn": bn_cache, "out_pad": out_pad}
    return y, cache, running


def _input_chain(model: AEParams, x: np.ndarray):
    """Check a batch (N,1,X,Y,Z) against the model; returns its encoder
    chain dims (see encoder_chain_dims)."""
    if x.ndim != 5 or x.shape[1] != model.layers[0].in_channels:
        raise ShapeError(f"expected (N,{model.layers[0].in_channels},X,Y,Z), got {x.shape}")
    n_enc = sum(1 for s in model.layers if s.kind == "conv3d")
    return encoder_chain_dims(x.shape[2:], n_enc)


def forward(model: AEParams, x: np.ndarray, mode: str = "eval", want_cache: bool = False):
    """Run the full autoencoder on a batch (N,1,X,Y,Z).

    Returns (reconstruction, encoder_activations, cache). Activations are the
    post-norm outputs of the three encoder layers. cache is None unless
    want_cache; then cache["layers"] holds, per layer, only what backward
    reads: "input" (the layer's input array itself, not a copy), "act" (the
    bool relu mask z > 0, or the sigmoid output), "bn" (batch norm's
    (xhat, 1/std, gamma) or None) and "out_pad"; cache["running"] holds the
    updated running statistics (the caller decides whether to apply them).
    The conv output z and the activation are not kept. backward consumes
    cache["layers"].
    """
    chain = _input_chain(model, x)
    n_enc = len(chain) - 1
    out_pads = _decoder_output_paddings(chain)
    acts = []
    layer_caches = []
    new_running = []
    h = x
    for i, spec in enumerate(model.layers):
        op = None if spec.kind == "conv3d" else out_pads[i - n_enc]
        y, layer_cache, running = _layer_forward(spec, model.params[i], h, mode, op,
                                                 want_cache)
        new_running.append(running)
        layer_caches.append(layer_cache)
        if spec.kind == "conv3d":
            acts.append(y)
        h = y
    cache = None
    if want_cache:
        cache = {"layers": layer_caches, "running": new_running, "mode": mode}
    return h, acts, cache


def loss_value(recon: np.ndarray, target: np.ndarray, kind: str, alpha: float = 0.5,
               window: int = 7) -> float:
    v, _ = _loss_impl(recon, target, kind, alpha, window, want_grad=False)
    return v


def loss_and_grad(recon: np.ndarray, target: np.ndarray, kind: str,
                  alpha: float = 0.5, window: int = 7):
    return _loss_impl(recon, target, kind, alpha, window, want_grad=True)


def _loss_impl(recon, target, kind, alpha, window, want_grad):
    if recon.shape != target.shape:
        raise ShapeError(f"loss shape mismatch {recon.shape} vs {target.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha {alpha} outside [0,1]")
    n = recon.shape[0]

    def mse_part():
        diff = recon - target
        value = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff if want_grad else None
        return value, grad

    def ssim_part():
        total = 0.0
        grad = np.zeros_like(recon) if want_grad else None
        for i in range(n):
            if want_grad:
                s, g = ssim3d_with_grad(recon[i, 0], target[i, 0], window)
                grad[i, 0] = -g / n
            else:
                s = ssim3d(recon[i, 0], target[i, 0], window)
            total += 1.0 - s
        return total / n, grad

    if kind == "mse":
        return mse_part()
    if kind == "ssim":
        return ssim_part()
    if kind == "combined":
        mv, mg = mse_part()
        sv, sg = ssim_part()
        value = alpha * mv + (1.0 - alpha) * sv
        grad = alpha * mg + (1.0 - alpha) * sg if want_grad else None
        return value, grad
    raise ConfigError(f"unknown loss kind {kind!r}")


def backward(model: AEParams, cache, dloss_drecon: np.ndarray):
    """Reverse-mode gradients for every trainable parameter.

    cache comes from forward(want_cache=True) and is consumed: each layer's
    entry is popped from cache["layers"] once its gradients are done, so its
    arrays can be freed before the next layer's backward, and cache["layers"]
    is empty on return. Returns grads as a dict keyed (layer_index, name)
    matching trainable_items order.
    """
    layer_caches = cache["layers"]
    if len(layer_caches) != len(model.layers):
        raise ShapeError(f"cache holds {len(layer_caches)} of {len(model.layers)} layers; "
                         "backward consumes the cache of one forward pass")
    grads: dict[tuple[int, str], np.ndarray] = {}
    mode = cache["mode"]
    g = dloss_drecon
    for i in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[i]
        p = model.params[i]
        lc = layer_caches.pop()
        if spec.batch_norm:
            g, dgamma, dbeta = nn.batchnorm_backward(g, lc["bn"], mode)
            grads[(i, "gamma")] = dgamma
            grads[(i, "beta")] = dbeta
        if spec.activation == "relu":
            g = nn.relu_backward(g, lc["act"])
        else:
            g = nn.sigmoid_backward(g, lc["act"])
        if spec.kind == "conv3d":
            g, dw, db = nn.conv3d_backward(g, lc["input"], p.w, input_grad=i > 0)
        else:
            g, dw, db = nn.conv_transpose3d_backward(g, lc["input"], p.w, lc["out_pad"])
        grads[(i, "w")] = dw
        grads[(i, "b")] = db
    return grads


def loss_and_gradients(model: AEParams, batch: np.ndarray, target: np.ndarray,
                       kind: str, alpha: float = 0.5, window: int = 7,
                       mode: str = "train"):
    """One forward+backward pass; returns (loss, grads, new_running_stats)."""
    recon, _, cache = forward(model, batch, mode=mode, want_cache=True)
    value, drecon = loss_and_grad(recon, target, kind, alpha, window)
    del recon, _  # the caches hold what backward needs
    grads = backward(model, cache, drecon)
    return value, grads, cache["running"]


@dataclass
class TrainConfig:
    loss_kind: str = "mse"
    alpha: float = 0.5
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 10
    patience: int = 5
    batch_size: int = 8
    ssim_window: int = 7
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


def _volumes(cohort) -> list[np.ndarray]:
    """The cohort's volumes in order, as stored (not converted or copied)."""
    if isinstance(cohort, Cohort):
        vols = [s.volume.voxels for s in cohort.subjects]
    else:
        vols = [np.asarray(v) for v in cohort]
    if not vols:
        raise ConfigError("empty training cohort")
    shapes = {v.shape for v in vols}
    if len(shapes) > 1:
        raise ShapeError(f"volumes differ in shape: {sorted(shapes)}")
    return vols


def _as_batch_array(vols) -> np.ndarray:
    """Volumes as one float64 (n, 1, X, Y, Z) batch; each converts exactly."""
    return np.stack([np.asarray(v, dtype=np.float64) for v in vols])[:, None]


def train(cohort, config: TrainConfig) -> tuple[AEParams, TrainReport]:
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
                model, batch, batch, config.loss_kind, config.alpha,
                config.ssim_window, mode="train",
            )
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss {value} at epoch {epoch}, batch {start // config.batch_size}"
                )
            t_step += 1
            _adam_update(model, grads, m_state, v_state, t_step, config)
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


def _adam_update(model, grads, m_state, v_state, t, config: TrainConfig):
    for key, arr in _trainable_dict(model).items():
        g = grads[key]
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {key}")
        m_state[key] = config.beta1 * m_state[key] + (1 - config.beta1) * g
        v_state[key] = config.beta2 * v_state[key] + (1 - config.beta2) * (g * g)
        mhat = m_state[key] / (1 - config.beta1**t)
        vhat = v_state[key] / (1 - config.beta2**t)
        arr -= config.lr * mhat / (np.sqrt(vhat) + config.eps)


def _apply_running(model: AEParams, running):
    for i, upd in enumerate(running):
        if upd is not None:
            model.params[i].running_mean = upd[0]
            model.params[i].running_var = upd[1]


@dataclass
class ActivationSet:
    """Flattened eval-mode activations per subject for layers L1, L2, L3."""

    subject_ids: list[str]
    layers: dict[str, np.ndarray]  # key -> (n_subjects, C*x*y*z) float64
    shapes: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)

    def matrix(self, layer: str) -> np.ndarray:
        if layer not in self.layers:
            raise KeyError(f"unknown layer {layer!r}; have {sorted(self.layers)}")
        return self.layers[layer]

    def latent(self) -> np.ndarray:
        """The bottleneck (last encoder layer) activations, (n, C, x, y, z):
        the input of `decode`."""
        key = f"L{len(self.layers)}"
        return self.matrix(key).reshape(-1, *self.shapes[key])


def extract_activations(model: AEParams, cohort, subject_ids=None,
                        batch_size: int = 8) -> ActivationSet:
    """Eval-mode encoder activations, flattened, subject order preserved;
    only the encoder layers run, one batch at a time, each batch written
    into its rows of the preallocated (n, features) matrices."""
    vols = _volumes(cohort)
    n = len(vols)
    if isinstance(cohort, Cohort):
        subject_ids = cohort.subject_ids
    elif subject_ids is None:
        subject_ids = [f"S{i:04d}" for i in range(n)]
    layers: dict[str, np.ndarray] = {}
    shapes = {}
    for start in range(0, n, batch_size):
        h = _as_batch_array(vols[start : start + batch_size])
        for j in range(len(_input_chain(model, h)) - 1):  # the encoder layers come first
            h = _layer_forward(model.layers[j], model.params[j], h, "eval", None)[0]
            key = f"L{j + 1}"
            if key not in layers:
                shapes[key] = tuple(h.shape[1:])
                layers[key] = np.empty((n, h[0].size), dtype=h.dtype)
            layers[key][start : start + len(h)] = h.reshape(len(h), -1)
    return ActivationSet(subject_ids=list(subject_ids), layers=layers, shapes=shapes)


def decode(model: AEParams, latent: np.ndarray, dims) -> np.ndarray:
    """Eval-mode reconstruction (N,1,*dims) of volumes of spatial size `dims`
    from their bottleneck activations (N,C,*encoder_chain_dims(dims)[-1]);
    only the decoder layers run."""
    n_enc = sum(1 for s in model.layers if s.kind == "conv3d")
    out_pads = _decoder_output_paddings(encoder_chain_dims(dims, n_enc))
    h = latent
    for spec, p, op in zip(model.layers[n_enc:], model.params[n_enc:], out_pads):
        h = _layer_forward(spec, p, h, "eval", op)[0]
    return h


def save_model(model: AEParams, path: str) -> None:
    """Versioned binary: magic, layer table, little-endian float64 params."""
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(f"layers {len(model.layers)}\n".encode("ascii"))
        for spec in model.layers:
            f.write(
                f"{spec.kind} {spec.in_channels} {spec.out_channels} "
                f"{spec.activation} {int(spec.batch_norm)}\n".encode("ascii")
            )
        for arr in model.all_arrays():
            data = np.ascontiguousarray(arr, dtype="<f8")
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.tobytes())


def load_model(path: str) -> AEParams:
    try:
        with open(path, "rb") as f:
            return _read_model(f)
    except OSError as exc:  # missing or unreadable
        raise DependencyError(f"cannot read model {path}: {exc}") from exc
    except (FormatError, struct.error, ValueError) as exc:  # incl. UnicodeDecodeError
        raise FormatError(f"malformed model file {path}: {exc}") from exc


def _read_model(f) -> AEParams:
    magic = f.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise FormatError(f"bad model magic {magic!r}")
    header = f.readline(64).decode("ascii").split()
    if len(header) != 2 or header[0] != "layers":
        raise FormatError("malformed layer-count line")
    n_layers = int(header[1])
    layers = []
    for _ in range(n_layers):
        parts = f.readline(128).decode("ascii").split()
        if (len(parts) != 5 or parts[0] not in _LAYER_KINDS
                or parts[3] not in _ACTIVATIONS or parts[4] not in ("0", "1")):
            raise FormatError(f"malformed layer spec line {parts!r}")
        spec = LayerSpec(parts[0], int(parts[1]), int(parts[2]), parts[3],
                         parts[4] == "1")
        if min(spec.in_channels, spec.out_channels) < 1:
            raise FormatError(f"non-positive channel count in {parts!r}")
        if layers and layers[-1].out_channels != spec.in_channels:
            raise FormatError(f"layer {len(layers) + 1} takes {spec.in_channels} "
                              f"channels, layer {len(layers)} gives "
                              f"{layers[-1].out_channels}")
        layers.append(spec)

    size = os.fstat(f.fileno()).st_size

    def read_exact(nbytes: int) -> bytes:
        # checked against the file size first: a forged shape word must not
        # make the read allocate more than the file holds
        if nbytes > size - f.tell():
            raise FormatError("truncated model file")
        return f.read(nbytes)

    def read_array():
        (ndim,) = struct.unpack("<I", read_exact(4))
        shape = struct.unpack(f"<{ndim}I", read_exact(4 * ndim))
        data = read_exact(8 * math.prod(shape))
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

    params = []
    for i, spec in enumerate(layers):
        # all_arrays order: w, b, then the four batch-norm arrays in field order
        arrays = [read_array() for _ in range(6 if spec.batch_norm else 2)]
        cin, cout = spec.in_channels, spec.out_channels
        w_shape = (cout, cin) if spec.kind == "conv3d" else (cin, cout)
        want = [w_shape + (nn.KERNEL,) * 3] + [(cout,)] * (len(arrays) - 1)
        got = [a.shape for a in arrays]
        if got != want:
            raise FormatError(f"layer {i + 1} arrays have shapes {got}, "
                              f"its spec needs {want}")
        params.append(LayerParams(*arrays))
    if f.read(1):
        raise FormatError("trailing bytes in model file")
    return AEParams(layers=layers, params=params)
