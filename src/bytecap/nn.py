"""Small 1D-CNN kernel: forward, reverse-mode gradients, Adam, weights file.

Exactly four layer kinds (conv1d, max_pool1d, global_avg_pool1d, dense),
all "valid" (no padding), implemented on numpy arrays laid out
position-major, channel-minor. One table, `_KINDS`, holds each kind's
shape rules, FTLW fields, allowed activations, forward and backward;
`Model` and the public ops run those same functions, and
`ModelConfig.plan()` and the public ops check each layer with the same
rule (`_plan_layer`). Activations are (L, C) per sample or (B, L, C)
batched; every public op accepts either.

Forward builds caches only for training (`Model.forward(want_cache=True)`);
inference builds none. conv1d gathers its windows as a copy of a strided
view of its contiguous input (window axis stepping by the stride, kernel
axis by one position) and caches that window matrix and its output, whose
sign is the ReLU mask; max_pool1d its input and output, from which
backward routes each window's gradient to the first position equal to the
max; global_avg_pool1d its input shape; dense its flattened input. Backward
writes every parameter gradient into one fresh flat buffer laid out like
`Model.flat_params` and returns per-layer views of it.

`Model.forward` first cuts each batch to the leading input positions the
output depends on (`Model.read_length`), so every windowed layer computes
exactly the positions the next layer reads, then scales uint8 bytes to [0,1].

The default profile reproduces the reference shape column
18x64 -> 3x64 -> 1x64 -> 64 -> {2|12} from a length-115 input.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ._bounded import field_reader, read_rest
from .views import class_catalog, scale_bytes

_EPS = 1e-7  # probability clamp for cross-entropy


class ShapeError(ValueError):
    pass


class WeightsFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Layer specs and configs

@dataclass(frozen=True)
class Conv1dSpec:
    filters: int
    kernel: int
    stride: int
    activation: str = "relu"  # "relu" | "none"


@dataclass(frozen=True)
class MaxPool1dSpec:
    pool: int
    stride: int


@dataclass(frozen=True)
class GlobalAvgPoolSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    units: int
    activation: str = "softmax"  # "softmax" | "sigmoid" | "none"


LayerSpec = Union[Conv1dSpec, MaxPool1dSpec, GlobalAvgPoolSpec, DenseSpec]

# ---------------------------------------------------------------------------
# Layer kinds: one forward and one backward each, on batched arrays

def _apply_activation(z, activation):
    if activation == "none":
        return z
    if activation == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {activation!r}")


def _conv_forward(spec, params, a, need_cache):
    """Windows gathered into one matrix (rows are output positions, columns
    ordered (k, c)) times the flattened kernel; bias and ReLU in place.
    Caches the window matrix and the output, whose sign is the ReLU mask."""
    w, b = params
    f, k, c = w.shape
    a = np.ascontiguousarray(a)
    b_dim, l_out = a.shape[0], (a.shape[1] - k) // spec.stride + 1
    s0, s1, s2 = a.strides
    # windows as a strided view of the input (window axis steps by the stride,
    # kernel axis by one position), copied; np.ndarray skips as_strided's
    # Python overhead, which shows at B=1
    xcol = np.ndarray((b_dim, l_out, k, c), a.dtype, a, 0,
                      (s0, spec.stride * s1, s1, s2)).copy()
    xflat = xcol.reshape(b_dim * l_out, k * c)
    wmat = w.transpose(1, 2, 0).reshape(k * c, f)
    z = (xflat @ wmat).reshape(b_dim, l_out, f)
    z += b
    if spec.activation == "relu":
        np.maximum(z, 0, out=z)
    return z, ((a.shape, xflat, z) if need_cache else None)


def _conv_backward(spec, params, cache, g, grads, need_dx):
    in_shape, xflat, out = cache
    w, _ = params
    dw, db = grads
    if spec.activation == "relu":
        g = g * (out > 0)
    bsz, l_out, f = g.shape
    gflat = g.reshape(bsz * l_out, f)
    # xflat columns are (k, c); dw[f, (k, c)] lands contiguous
    np.matmul(gflat.T, xflat, out=dw.reshape(f, -1))
    np.sum(g, axis=(0, 1), out=db)
    if not need_dx:
        return None
    contrib = (gflat @ w.reshape(f, -1)).reshape(bsz, l_out, *w.shape[1:])  # (B, L_out, K, C)
    if in_shape[1] == w.shape[1]:  # one window covers the whole input
        return contrib.reshape(in_shape)
    # scatter window contributions; per k the targets are disjoint
    dx = np.zeros(in_shape, dtype=g.dtype)
    for k in range(w.shape[1]):
        dx[:, k:k + spec.stride * l_out:spec.stride, :] += contrib[:, :, k]
    return dx


def _maxpool_forward(spec, params, a, need_cache):
    """Windowed max as an np.maximum chain over strided slice views; caches
    the input and the output."""
    span = spec.stride * ((a.shape[1] - spec.pool) // spec.stride + 1)
    out = a[:, 0:span:spec.stride, :].copy()
    for p in range(1, spec.pool):
        np.maximum(out, a[:, p:p + span:spec.stride, :], out=out)
    return out, ((a, out) if need_cache else None)


def _maxpool_backward(spec, params, cache, g, grads, need_dx):
    """Each window's gradient goes to its first position equal to the max;
    overlapping windows (stride < pool) add into the positions they share.
    Where the windows tile the input (stride = pool, length = pool * n_out,
    as `Model.forward`'s cut leaves them), each window offset is written
    once into an unfilled array."""
    a, out = cache
    span = spec.stride * out.shape[1]
    tiled = spec.stride == spec.pool and a.shape[1] == span
    dx = (np.empty if tiled else np.zeros)(a.shape, dtype=g.dtype)
    todo = np.ones(out.shape, dtype=bool)  # windows whose max is not yet found
    for p in range(spec.pool):
        at = np.s_[:, p:p + span:spec.stride, :]
        hit = a[at] == out
        hit &= todo
        todo ^= hit
        if tiled:
            np.multiply(g, hit, out=dx[at])
        else:
            dst = dx[at]
            dst += g * hit  # a masked np.add(..., where=) is several times slower
    return dx


def _gap_forward(spec, params, a, need_cache):
    # np.mean's own sum and division, without its overhead
    return np.add.reduce(a, axis=1) / a.shape[1], (a.shape if need_cache else None)


def _gap_backward(spec, params, cache, g, grads, need_dx):
    return np.divide(g[:, None, :], cache[1], out=np.empty(cache, dtype=g.dtype))


def _dense_forward(spec, params, a, need_cache):
    w, b = params
    xflat = a.reshape(a.shape[0], -1)
    z = xflat @ w.T + b
    return _apply_activation(z, spec.activation), ((a.shape, xflat) if need_cache else None)


def _dense_backward(spec, params, cache, g, grads, need_dx):
    """`g` is dLoss/d(pre-activation): loss_and_grad folds the activation in."""
    in_shape, xflat = cache
    w, _ = params
    dw, db = grads
    np.matmul(g.T, xflat, out=dw)
    np.sum(g, axis=0, out=db)
    return (g @ w).reshape(in_shape) if need_dx else None


class LayerKind(NamedTuple):
    """Every per-kind fact: shape rules, FTLW fields, runnable activations,
    and the kind's one forward and one backward.

    FTLW stores `fields` after the kind code, packed with `fmt`, with
    activations as one-byte codes. `out` sees the input shape with the
    window already applied; `params` sees the raw input shape.
    `forward(spec, params, a, need_cache)` -> (out, cache), the cache None
    unless `need_cache`. `backward(spec, params, cache, g, grads, need_dx)`
    writes the parameter gradients into the arrays `grads` (shaped like
    `params`) and returns the input gradient, or None when `need_dx` is
    False, as for the first layer.
    """

    name: str
    code: int
    fields: tuple
    fmt: str
    activations: tuple
    spatial: bool  # needs an (L, C) input
    window: Optional[tuple]  # names of the (size, stride) attributes
    out: Callable
    params: Callable
    forward: Callable
    backward: Callable


_KINDS = {
    Conv1dSpec: LayerKind(
        "conv1d", 0, ("filters", "kernel", "stride", "activation"), "<IIIB",
        ("relu", "none"), True, ("kernel", "stride"),
        lambda s, shape: (shape[0], s.filters),
        lambda s, shape: ((s.filters, s.kernel, shape[1]), (s.filters,)),
        _conv_forward, _conv_backward),
    MaxPool1dSpec: LayerKind(
        "max_pool1d", 1, ("pool", "stride"), "<II", (), True, ("pool", "stride"),
        lambda s, shape: shape,
        lambda s, shape: (),
        _maxpool_forward, _maxpool_backward),
    GlobalAvgPoolSpec: LayerKind(
        "global_avg_pool1d", 2, (), "<", (), True, None,
        lambda s, shape: (shape[1],),
        lambda s, shape: (),
        _gap_forward, _gap_backward),
    DenseSpec: LayerKind(  # flattens its input implicitly
        "dense", 3, ("units", "activation"), "<IB", ("softmax", "sigmoid", "none"), False, None,
        lambda s, shape: (s.units,),
        lambda s, shape: ((s.units, math.prod(shape)), (s.units,)),
        _dense_forward, _dense_backward),
}


class LayerPlan(NamedTuple):
    """One layer of a validated config: its kind and shapes."""

    spec: LayerSpec
    kind: LayerKind
    out_shape: tuple
    param_shapes: tuple  # (weight shape, bias shape), or () if none


def _plan_layer(spec, shape: tuple, last: bool, where: str) -> LayerPlan:
    """The plan of `spec` run on one sample of `shape`, as the final layer
    or not; raises ShapeError, prefixed with `where`, if it cannot run."""
    kind = _KINDS.get(type(spec))
    if kind is None:
        raise ShapeError(f"{where}: unknown spec {spec!r}")
    if kind.activations and spec.activation not in kind.activations:
        raise ShapeError(f"{where}: {kind.name} cannot run activation {spec.activation!r}")
    # the dense backward takes g with respect to the pre-activation,
    # which loss_and_grad supplies for the final layer only
    if isinstance(spec, DenseSpec) and not last and spec.activation != "none":
        raise ShapeError(f"{where}: a dense layer before the last cannot "
                         f"run activation {spec.activation!r}")
    if kind.spatial and len(shape) != 2:
        raise ShapeError(f"{where}: {kind.name} needs an (L, C) input, got {shape}")
    in_shape = shape
    if kind.window:
        size_name, stride_name = kind.window
        size, stride = getattr(spec, size_name), getattr(spec, stride_name)
        if size < 1 or stride < 1:
            raise ShapeError(f"{where}: {kind.name} {size_name} and "
                             f"{stride_name} must be >= 1, got {size}/{stride}")
        if shape[0] < size:
            raise ShapeError(f"{where}: input length {shape[0]} < {size_name} {size}")
        shape = ((shape[0] - size) // stride + 1, shape[1])
    shape = kind.out(spec, shape)
    if min(shape) < 1:
        raise ShapeError(f"{where}: collapsed to empty output")
    return LayerPlan(spec, kind, shape, kind.params(spec, in_shape))


def _check_params(layer: LayerPlan, tensors, where: str):
    """Raise ShapeError unless `tensors` have the layer's parameter shapes."""
    shapes = tuple(np.shape(a) for a in tensors)
    if shapes != layer.param_shapes:
        raise ShapeError(f"{where} ({layer.kind.name}): weight shapes "
                         f"{list(shapes)} != {layer.param_shapes}")


LOSS_BCE = "binary_cross_entropy"
LOSS_CCE = "categorical_cross_entropy"


@dataclass(frozen=True)
class ModelConfig:
    input_len: int
    layers: tuple[LayerSpec, ...]
    loss: str
    class_count: int
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    batch_size: int = 20
    epochs: int = 50
    seed: int = 0

    def plan(self) -> list[LayerPlan]:
        """Walk the layer stack once; raises ShapeError if the algebra fails."""
        plan = []
        shape: tuple = (self.input_len, 1)
        for i, spec in enumerate(self.layers):
            plan.append(_plan_layer(spec, shape, i == len(self.layers) - 1, f"layer {i}"))
            shape = plan[-1].out_shape
        return plan

    def output_shapes(self) -> list[tuple]:
        """Shape after each layer; raises ShapeError if the algebra fails."""
        return [layer.out_shape for layer in self.plan()]

    def validate(self) -> list[LayerPlan]:
        """The layer plan of a well-formed model; raises ShapeError otherwise,
        or ValueError naming a training setting that cannot train: a
        learning rate that is not finite (0 is allowed), an epsilon that is
        not finite and > 0, a moment decay outside [0, 1), or fewer than one
        epoch or sample per batch."""
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        plan = self.plan()
        if not self.layers or not isinstance(self.layers[-1], DenseSpec):
            raise ShapeError("model must end with a dense layer")
        if plan[-1].out_shape != (self.class_count,):
            raise ShapeError(
                f"final dense units {plan[-1].out_shape} != class count {self.class_count}"
            )
        return plan


# each stock profile's input length and two convolutions; every profile
# walks 18x64, 3x64, 1x64, 64, classes
PROFILES = {
    "prose": (115, (Conv1dSpec(64, 64, 3), Conv1dSpec(64, 3, 1))),
    "table": (20, (Conv1dSpec(64, 3, 1), Conv1dSpec(64, 3, 1))),
}
# each pairing's (output activation, loss): for two classes, then for more
PAIRINGS = {
    "paper": (("softmax", LOSS_BCE), ("sigmoid", LOSS_CCE)),
    "standard": (("softmax", LOSS_CCE), ("softmax", LOSS_CCE)),
}


def pairing_for(task: str, pairing: str) -> tuple[str, str]:
    """(output activation, loss) for a task, from `PAIRINGS` by its class
    count; an unknown task or pairing is refused with a ValueError."""
    two = len(class_catalog(task)) == 2
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    return PAIRINGS[pairing][0 if two else 1]


def default_config(task: str = "binary", profile: str = "prose",
                   pairing: str = "paper", **overrides) -> ModelConfig:
    """The stock model: `PROFILES[profile]`'s input length and two convs
    around a max pool (5, 5), then a global average pool and one dense unit
    per class of `task`, activated and paired by `pairing_for`. `overrides`
    replace ModelConfig fields before the config is validated."""
    class_count = len(class_catalog(task))
    activation, loss = pairing_for(task, pairing)
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    input_len, (conv1, conv2) = PROFILES[profile]
    layers = (
        conv1,
        MaxPool1dSpec(5, 5),
        conv2,
        GlobalAvgPoolSpec(),
        DenseSpec(class_count, activation),
    )
    cfg = ModelConfig(input_len=input_len, layers=layers, loss=loss,
                      class_count=class_count)
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Public layer ops: per-sample or batched arrays, through the kind forwards,
# each refusing what the plan refuses for a final layer of its kind

def _batched(x, rank):
    x = np.asarray(x)
    if x.ndim == rank - 1:
        return x[None, ...], True
    if x.ndim != rank:
        raise ShapeError(f"expected {rank - 1}- or {rank}-dim input, got {x.ndim}-dim")
    return x, False


def conv1d_forward(x, w, b, stride: int, activation: str = "none"):
    """Valid cross-correlation: out[t, f] = act(b[f] + sum w[f,k,c] x[t*S+k, c])."""
    x3, squeeze = _batched(x, 3)
    w, b = np.asarray(w, dtype=x3.dtype), np.asarray(b, dtype=x3.dtype)
    spec = Conv1dSpec(w.shape[0], w.shape[1], stride, activation)
    layer = _plan_layer(spec, x3.shape[1:], True, "conv1d_forward")
    _check_params(layer, (w, b), "conv1d_forward")
    y, _ = _conv_forward(spec, (w, b), x3, False)
    return y[0] if squeeze else y


def maxpool1d_forward(x, pool: int, stride: int):
    x3, squeeze = _batched(x, 3)
    spec = MaxPool1dSpec(pool, stride)
    _plan_layer(spec, x3.shape[1:], True, "maxpool1d_forward")
    y, _ = _maxpool_forward(spec, (), x3, False)
    return y[0] if squeeze else y


def global_avg_pool_forward(x):
    x3, squeeze = _batched(x, 3)
    spec = GlobalAvgPoolSpec()
    _plan_layer(spec, x3.shape[1:], True, "global_avg_pool_forward")
    y, _ = _gap_forward(spec, (), x3, False)
    return y[0] if squeeze else y


def dense_forward(x, w, b, activation: str = "none"):
    """Affine map plus activation; inputs above rank 1 are flattened."""
    x = np.asarray(x)
    w = np.asarray(w)
    # one sample is a flat vector or an (L, C) activation; anything else a batch
    one = x.ndim == 1 or (x.ndim == 2 and x.shape[1] != w.shape[1])
    x2 = x.reshape(1, -1) if one else x
    spec = DenseSpec(w.shape[0], activation)
    layer = _plan_layer(spec, x2.shape[1:], True, "dense_forward")
    _check_params(layer, (w, b), "dense_forward")
    y, _ = _dense_forward(spec, (w, b), x2, False)
    return y[0] if one else y


# ---------------------------------------------------------------------------
# Loss

def loss_and_grad(pred, labels, loss: str, activation: str):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    `pred` holds post-activation probabilities; the gradient is pushed back
    through the stated output activation analytically. Probabilities are
    clamped to [1e-7, 1-1e-7] inside the logs (with matching zero gradient
    where the clamp is active, so finite differences agree).

    Each row's labelled probability is picked by index, with no one-hot
    matrix: CCE reads only that entry and BCE swaps it into the (1 - p)
    terms. Off-label CCE gradients are -0.0, so loss and gradient equal the
    textbook y*log(p) + (1-y)*log(1-p) formula bit for bit.
    """
    pred2, squeeze = _batched(pred, 2)
    batch, classes = pred2.shape
    labels = np.asarray(labels).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"label index out of range [0, {classes})")
    at = np.arange(0, batch * classes, classes) + labels  # flat, row-major
    p = np.minimum(np.maximum(pred2, _EPS), 1.0 - _EPS)  # np.clip, less overhead
    picked = p.take(at)
    if loss == LOSS_CCE:
        per_sample = -np.log(picked)
        dldp = np.full_like(p, -0.0)
        dldp.put(at, -1.0 / picked)
    elif loss == LOSS_BCE:
        q = 1.0 - p
        terms = np.log(q)
        terms.put(at, np.log(picked))
        per_sample = -terms.sum(axis=1) / classes
        dldp = np.divide(1.0, q, out=q)
        dldp.put(at, -1.0 / picked)
        dldp /= classes
    else:
        raise ValueError(f"unknown loss {loss!r}")
    dldp *= (pred2 > _EPS) & (pred2 < 1.0 - _EPS)

    if activation == "softmax":
        inner = (dldp * pred2).sum(axis=1, keepdims=True)
        dz = pred2 * (dldp - inner)
    elif activation == "sigmoid":
        dz = dldp * pred2 * (1.0 - pred2)
    elif activation == "none":
        dz = dldp
    else:
        raise ValueError(f"unknown output activation {activation!r}")

    dz /= batch
    # np.mean's own arithmetic, without its overhead
    return float(per_sample.dtype.type(per_sample.sum() / batch)), (dz[0] if squeeze else dz)


# ---------------------------------------------------------------------------
# Model with caching forward and exact reverse-mode backward

def _read_length(plan, input_len: int) -> int:
    """How many leading input positions the output depends on, worked back
    from the final (dense) layer: a windowed layer whose next layer reads
    n of its outputs reads stride*(n-1)+window of its input; a dense or
    global-average layer reads its whole input."""
    lengths = [input_len] + [layer.out_shape[0] for layer in plan[:-1]]
    read = 0
    for layer, length in zip(reversed(plan), reversed(lengths)):
        if layer.kind.window:
            size, stride = (getattr(layer.spec, name) for name in layer.kind.window)
            read = stride * (read - 1) + size
        else:
            read = length
    return read


def _fresh_params(plan, rng):
    """Glorot-uniform weights, zero biases, in fixed layer order.

    A weight of shape (out, *window, in) has fan_in = window * in and
    fan_out = out * window, for conv1d and dense alike.
    """
    params = []
    for layer in plan:
        if not layer.param_shapes:
            params.append([])
            continue
        w_shape, b_shape = layer.param_shapes
        fan_in = math.prod(w_shape[1:])
        fan_out = w_shape[0] * math.prod(w_shape[1:-1])
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append([rng.uniform(-limit, limit, w_shape), np.zeros(b_shape)])
    return params


class Model:
    """Parameterized layer stack built from a ModelConfig, with fresh Glorot
    weights unless `weights` are given (see `set_weights`).

    Parameters live in one flat buffer (`flat_params`); the per-layer
    arrays in `params` are views into it, so optimizer updates through
    either alias are equivalent. Gradients come back the same way: one
    fresh flat buffer per backward pass, with per-layer views into it.
    `read_length` is how many leading input positions the output depends on.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32, weights=None):
        self.config = config
        self.dtype = dtype
        self._plan = config.validate()
        self.read_length = _read_length(self._plan, config.input_len)
        if weights is None:
            weights = _fresh_params(self._plan, np.random.default_rng(config.seed))
        self.set_weights(weights)

    @property
    def final_activation(self) -> str:
        return self.config.layers[-1].activation

    def forward(self, x, want_cache: bool = False):
        """Probabilities for a batch (B, L, 1) or (B, L), L the config's
        `input_len`; with the per-layer caches that `backward` needs when
        `want_cache`, and no caches built otherwise. Any other sample shape
        raises ShapeError. The layers run on the first `read_length`
        positions only, so the caches hold exactly what each layer reads.
        After the cut a uint8 batch is scaled by `views.scale_bytes`, as
        `DatasetFile.tensors()` is, then any batch is cast to `dtype`."""
        a = np.asarray(x)
        if a.ndim == 2:
            a = a[..., None]
        if a.shape[1:] != (self.config.input_len, 1):
            raise ShapeError(f"input samples of shape {a.shape[1:]} != model "
                             f"input shape {(self.config.input_len, 1)}")
        a = a[:, :self.read_length]
        a = (scale_bytes(a) if a.dtype == np.uint8 else a).astype(self.dtype, copy=False)
        caches = []
        for layer, params in zip(self._plan, self.params):
            a, cache = layer.kind.forward(layer.spec, params, a, want_cache)
            caches.append(cache)
        return (a, caches) if want_cache else a

    def flat_backward(self, caches, dlogits) -> np.ndarray:
        """dLoss/dParams from dLoss/dLogits, as one fresh flat buffer laid out
        like `flat_params`."""
        flat = np.empty_like(self.flat_params)
        grads = self._carve(flat)
        g = np.asarray(dlogits, dtype=self.dtype)
        for i in range(len(self._plan) - 1, -1, -1):
            layer = self._plan[i]
            g = layer.kind.backward(layer.spec, self.params[i], caches[i], g,
                                    grads[i], i > 0)
        return flat

    def backward(self, caches, dlogits):
        """Parameter gradients (same nesting as params) from dLoss/dLogits:
        views into one fresh `flat_backward` buffer, so calls never alias."""
        return self._carve(self.flat_backward(caches, dlogits))

    def param_arrays(self) -> list[np.ndarray]:
        return [a for layer in self.params for a in layer]

    def _carve(self, flat) -> list[list[np.ndarray]]:
        """Per-layer views, in plan order, into a flat parameter-sized buffer."""
        views, off = [], 0
        for layer in self._plan:
            views.append([])
            for shape in layer.param_shapes:
                size = math.prod(shape)
                views[-1].append(flat[off:off + size].reshape(shape))
                off += size
        return views

    def set_weights(self, weights: list[list[np.ndarray]]):
        """Copy per-layer tensors, each shape-checked against the plan, into
        a new flat buffer and carve the per-layer views from it."""
        if len(weights) != len(self._plan):
            raise ShapeError("weight list does not match layer count")
        flat = np.empty(sum(math.prod(shape) for layer in self._plan
                            for shape in layer.param_shapes), dtype=self.dtype)
        params = self._carve(flat)
        for i, (layer, tensors, views) in enumerate(zip(self._plan, weights, params)):
            _check_params(layer, tensors, f"layer {i}")
            for view, a in zip(views, tensors):
                view[...] = a
        self.flat_params, self.params = flat, params

    def copy_weights(self) -> list[list[np.ndarray]]:
        return [[a.copy() for a in layer] for layer in self.params]


def grad_arrays(grads) -> list[np.ndarray]:
    return [a for layer in grads for a in layer]


# ---------------------------------------------------------------------------
# Adam

def adam_init(params: list[np.ndarray]):
    return [(np.zeros_like(p), np.zeros_like(p)) for p in params]


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state, t: int,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-7):
    """One bias-corrected Adam update, in place; t is 1-based.

    Per element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g^2, then
    p -= lr * m/(1-b1^t) / (sqrt(v/(1-b2^t)) + eps), each step written into
    one of two scratch arrays in that order. m entries below the dtype's
    smallest normal number are flushed to zero: once a gradient stays 0
    (a dead ReLU filter), m decays into the subnormal range and sticks
    there, as b1 times the smallest subnormal rounds back to itself, and
    arithmetic on subnormals is several times slower.
    """
    if t < 1:
        raise ValueError("Adam step index is 1-based")
    for p, g, (m, v) in zip(params, grads, state):
        s, r = np.empty_like(p), np.empty_like(p)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=s)
        m *= np.abs(m, out=s) >= np.finfo(m.dtype).tiny
        v *= beta2
        v += np.multiply(1.0 - beta2, np.square(g, out=s), out=s)
        np.multiply(lr, np.divide(m, 1.0 - beta1 ** t, out=s), out=s)
        np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=r), out=r)
        r += eps
        p -= np.divide(s, r, out=s)
    return params


# ---------------------------------------------------------------------------
# Checkpoints and the weights file

@dataclass
class Checkpoint:
    config: ModelConfig
    weights: list[list[np.ndarray]]
    best_epoch: int
    best_val_accuracy: float
    # (weights it was built from, float32 model) behind shared_model
    _shared: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def to_model(self) -> Model:
        """A fresh float32 model holding a copy of the weights."""
        return Model(self.config, weights=self.weights)

    def shared_model(self) -> Model:
        """One float32 model per checkpoint for inference, built on first use
        and rebuilt only when `weights` is replaced; callers must not train
        it or change its weights."""
        if self._shared is None or self._shared[0] is not self.weights:
            self._shared = (self.weights, self.to_model())
        return self._shared[1]


_WEIGHTS_MAGIC = b"FTLW"
# v2 adds a loss byte after the header; it is written only when the loss is
# not the one v1 infers from the class count, so every v1 file stays v1
_WEIGHTS_VERSIONS = (1, 2)
_LOSS_CODES = {LOSS_BCE: 0, LOSS_CCE: 1}
_LOSS_FROM_CODE = {v: k for k, v in _LOSS_CODES.items()}
_KIND_FROM_CODE = {kind.code: (spec_type, kind) for spec_type, kind in _KINDS.items()}
_ACT_CODES = {"none": 0, "relu": 1, "softmax": 2, "sigmoid": 3}
_ACT_FROM_CODE = {v: k for k, v in _ACT_CODES.items()}


def _v1_loss(class_count: int) -> str:
    """The loss a version 1 file implies: the paper pairing's (BCE for two
    classes, else CCE)."""
    return PAIRINGS["paper"][0 if class_count == 2 else 1][1]


def save_weights(path, ckpt: Checkpoint):
    """Little-endian layout: FTLW, version, input_len, layer count, in
    version 2 a loss byte, then layer specs, then per parameterized layer
    the weight and bias tensors as raw float32."""
    cfg = ckpt.config
    plan = cfg.validate()
    v1 = cfg.loss == _v1_loss(cfg.class_count)
    with open(path, "wb") as fp:
        fp.write(_WEIGHTS_MAGIC)
        fp.write(struct.pack("<HIH", 1 if v1 else 2, cfg.input_len, len(cfg.layers)))
        if not v1:
            fp.write(struct.pack("<B", _LOSS_CODES[cfg.loss]))
        for layer in plan:
            values = (getattr(layer.spec, name) for name in layer.kind.fields)
            fp.write(struct.pack("<B", layer.kind.code))
            fp.write(struct.pack(layer.kind.fmt, *(
                _ACT_CODES[v] if isinstance(v, str) else v for v in values)))
        for layer in ckpt.weights:
            for tensor in layer:
                fp.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
        fp.write(struct.pack("<If", ckpt.best_epoch, ckpt.best_val_accuracy))


def load_weights(path, expect: Optional[ModelConfig] = None) -> Checkpoint:
    """Read a weights file back into a Checkpoint.

    Training hyperparameters are not stored; the restored ModelConfig keeps
    defaults for them. Passing `expect` additionally enforces that the file
    matches that architecture. A file whose layer specs do not form a valid
    model, that ends early or that goes on past its trailer raises
    WeightsFormatError.
    """
    with open(path, "rb") as fp:
        magic = fp.read(4)
        if magic != _WEIGHTS_MAGIC:
            raise WeightsFormatError(f"{path}: bad weights magic {magic!r}")
        rest, size = read_rest(fp)
        body = io.BytesIO(rest[:size])
        field = field_reader(body, lambda message: WeightsFormatError(f"{path}: {message}"))
        version, input_len, layer_count = struct.unpack("<HIH", field(8, "weights header"))
        if version not in _WEIGHTS_VERSIONS:
            raise WeightsFormatError(f"{path}: unsupported weights version {version}")

        loss = None  # version 1: inferred from the class count below
        if version == 2:
            (code,) = struct.unpack("<B", field(1, "while reading loss"))
            if code not in _LOSS_FROM_CODE:
                raise WeightsFormatError(f"{path}: unknown loss code {code}")
            loss = _LOSS_FROM_CODE[code]

        layers: list[LayerSpec] = []
        for i in range(layer_count):
            (code,) = struct.unpack("<B", field(1, f"while reading layer {i} kind"))
            if code not in _KIND_FROM_CODE:
                raise WeightsFormatError(f"{path}: unknown layer kind {code}")
            spec_type, kind = _KIND_FROM_CODE[code]
            values = struct.unpack(kind.fmt, field(struct.calcsize(kind.fmt),
                                                   f"while reading layer {i} ({kind.name})"))
            args = dict(zip(kind.fields, values))
            if "activation" in args:
                if args["activation"] not in _ACT_FROM_CODE:
                    raise WeightsFormatError(f"{path}: layer {i} ({kind.name}) has "
                                             f"unknown activation code {args['activation']}")
                args["activation"] = _ACT_FROM_CODE[args["activation"]]
            layers.append(spec_type(**args))

        if not layers or not isinstance(layers[-1], DenseSpec):
            raise WeightsFormatError(f"{path}: weights file does not end with a dense layer")
        class_count = layers[-1].units
        config = ModelConfig(input_len=input_len, layers=tuple(layers),
                             loss=loss or _v1_loss(class_count), class_count=class_count)
        try:
            plan = config.validate()
        except ShapeError as e:
            raise WeightsFormatError(f"{path}: {e}") from None
        if expect is not None and (expect.input_len != input_len
                                   or tuple(expect.layers) != tuple(layers)):
            raise WeightsFormatError(f"{path}: architecture does not match expected config")

        weights = []
        for i, layer in enumerate(plan):
            tensors = []
            for shape in layer.param_shapes:
                raw = field(math.prod(shape) * 4,
                            f"while reading layer {i} ({layer.kind.name}) tensor")
                tensors.append(np.frombuffer(raw, dtype="<f4").reshape(shape).copy())
            weights.append(tensors)

        best_epoch, best_acc = struct.unpack("<If", field(8, "while reading trailer"))
        if body.read(1):
            raise WeightsFormatError(f"{path}: bytes after the trailer")
        return Checkpoint(config=config, weights=weights,
                          best_epoch=best_epoch, best_val_accuracy=best_acc)
