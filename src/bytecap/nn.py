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
inference builds none. conv1d caches its window matrix and its output,
whose sign is the ReLU mask; max_pool1d its input and output, from which
backward routes each window's gradient to the first position equal to the
max; global_avg_pool1d its input shape; dense its flattened input. Backward
writes every parameter gradient into one fresh flat buffer laid out like
`Model.flat_params` and returns per-layer views of it.

The default profile reproduces the reference shape column
18x64 -> 3x64 -> 1x64 -> 64 -> {2|12} from a length-115 input.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ._bounded import field_reader
from .views import class_catalog

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


@lru_cache(maxsize=64)
def _window_index(l_in, size, stride):
    """Input positions of every output window.

    Cached, so every model shares one array per geometry: callers must not
    write to it. It stays writeable because np.take copies read-only indices.
    """
    l_out = (l_in - size) // stride + 1
    return np.arange(l_out)[:, None] * stride + np.arange(size)[None, :]


def _conv_forward(spec, params, a, need_cache):
    """Windows gathered into one matrix (rows are output positions, columns
    ordered (k, c)) times the flattened kernel; bias and ReLU in place.
    Caches the window matrix and the output, whose sign is the ReLU mask."""
    w, b = params
    f, k, c = w.shape
    idx = _window_index(a.shape[1], k, spec.stride)
    xcol = np.take(a, idx, axis=1)  # (B, L_out, K, C), contiguous
    b_dim, l_out = xcol.shape[0], xcol.shape[1]
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
    # scatter window contributions; per k the targets are disjoint
    contrib = np.tensordot(g, w, axes=([2], [0]))  # (B, L_out, K, C)
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
    overlapping windows (stride < pool) add into the positions they share."""
    a, out = cache
    span = spec.stride * out.shape[1]
    dx = np.zeros(a.shape, dtype=g.dtype)
    todo = np.ones(out.shape, dtype=bool)  # windows whose max is not yet found
    for p in range(spec.pool):
        at = np.s_[:, p:p + span:spec.stride, :]
        hit = a[at] == out
        hit &= todo
        todo ^= hit
        dst = dx[at]
        dst += g * hit  # a masked np.add(..., where=) is several times slower
    return dx


def _gap_forward(spec, params, a, need_cache):
    return a.mean(axis=1), (a.shape if need_cache else None)


def _gap_backward(spec, params, cache, g, grads, need_dx):
    return np.broadcast_to(g[:, None, :] / cache[1], cache).astype(g.dtype)


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
        """The layer plan of a well-formed model; raises ShapeError otherwise."""
        plan = self.plan()
        if not self.layers or not isinstance(self.layers[-1], DenseSpec):
            raise ShapeError("model must end with a dense layer")
        if plan[-1].out_shape != (self.class_count,):
            raise ShapeError(
                f"final dense units {plan[-1].out_shape} != class count {self.class_count}"
            )
        return plan


def pairing_for(task: str, pairing: str) -> tuple[str, str]:
    """(output activation, loss) for a task.

    "paper" keeps the reference pairing (softmax+BCE for binary,
    sigmoid+CCE for multi); "standard" uses softmax+CCE for both.
    """
    binary = len(class_catalog(task)) == 2
    if pairing == "paper":
        return ("softmax", LOSS_BCE) if binary else ("sigmoid", LOSS_CCE)
    if pairing == "standard":
        return ("softmax", LOSS_CCE)
    raise ValueError(f"unknown pairing {pairing!r}")


def default_config(task: str = "binary", profile: str = "prose",
                   pairing: str = "paper", **overrides) -> ModelConfig:
    """Build the stock model.

    profile "prose": length-115 input, conv(K=64,S=3) -> pool(5,5) ->
    conv(K=3,S=1). profile "table": length-20 input with both convs at
    K=3,S=1. Both walks end at 18x64, 3x64, 1x64, 64, classes.
    """
    class_count = len(class_catalog(task))
    activation, loss = pairing_for(task, pairing)
    if profile == "prose":
        input_len = 115
        convs = [Conv1dSpec(64, 64, 3), Conv1dSpec(64, 3, 1)]
    elif profile == "table":
        input_len = 20
        convs = [Conv1dSpec(64, 3, 1), Conv1dSpec(64, 3, 1)]
    else:
        raise ValueError(f"unknown profile {profile!r}")
    layers = (
        convs[0],
        MaxPool1dSpec(5, 5),
        convs[1],
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

def one_hot(labels, class_count: int, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim == 0:
        labels = labels[None]
    if np.any(labels < 0) or np.any(labels >= class_count):
        raise ValueError(f"label index out of range [0, {class_count})")
    out = np.zeros((labels.shape[0], class_count), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def loss_and_grad(pred, labels, loss: str, activation: str):
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    `pred` holds post-activation probabilities; the gradient is pushed back
    through the stated output activation analytically. Probabilities are
    clamped to [1e-7, 1-1e-7] inside the logs (with matching zero gradient
    where the clamp is active, so finite differences agree).
    """
    pred2, squeeze = _batched(pred, 2)
    y = one_hot(labels, pred2.shape[1], dtype=pred2.dtype)
    p = np.clip(pred2, _EPS, 1.0 - _EPS)
    if loss == LOSS_CCE:
        per_sample = -(y * np.log(p)).sum(axis=1)
        dldp = -y / p
    elif loss == LOSS_BCE:
        u = pred2.shape[1]
        per_sample = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1) / u
        dldp = (-(y / p) + (1.0 - y) / (1.0 - p)) / u
    else:
        raise ValueError(f"unknown loss {loss!r}")
    dldp = dldp * ((pred2 > _EPS) & (pred2 < 1.0 - _EPS))

    if activation == "softmax":
        inner = (dldp * pred2).sum(axis=1, keepdims=True)
        dz = pred2 * (dldp - inner)
    elif activation == "sigmoid":
        dz = dldp * pred2 * (1.0 - pred2)
    elif activation == "none":
        dz = dldp
    else:
        raise ValueError(f"unknown output activation {activation!r}")

    batch = pred2.shape[0]
    loss_value = float(per_sample.mean())
    dz = dz / batch
    return loss_value, (dz[0] if squeeze else dz)


# ---------------------------------------------------------------------------
# Model with caching forward and exact reverse-mode backward

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
    """

    def __init__(self, config: ModelConfig, dtype=np.float32, weights=None):
        self.config = config
        self.dtype = dtype
        self._plan = config.validate()
        if weights is None:
            weights = _fresh_params(self._plan, np.random.default_rng(config.seed))
        self.set_weights(weights)

    @property
    def final_activation(self) -> str:
        return self.config.layers[-1].activation

    def forward(self, x, want_cache: bool = False):
        """Probabilities for a batch (B, L, 1); with the per-layer caches that
        `backward` needs when `want_cache`, and no caches built otherwise."""
        a = np.asarray(x, dtype=self.dtype)
        if a.ndim == 2:
            a = a[..., None]
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
    """The loss a version 1 file implies: BCE for two classes, else CCE."""
    return LOSS_BCE if class_count == 2 else LOSS_CCE


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
        field = field_reader(fp, lambda message: WeightsFormatError(f"{path}: {message}"))
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
        if fp.read(1):
            raise WeightsFormatError(f"{path}: bytes after the trailer")
        return Checkpoint(config=config, weights=weights,
                          best_epoch=best_epoch, best_val_accuracy=best_acc)
