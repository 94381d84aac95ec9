"""Kernel math: layer forwards, finite-difference gradient oracles, Adam,
and the weights file."""

import dataclasses
import hashlib
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap import nn
from bytecap.nn import (
    Checkpoint,
    Conv1dSpec,
    DenseSpec,
    GlobalAvgPoolSpec,
    MaxPool1dSpec,
    Model,
    ModelConfig,
    PAIRINGS,
    PROFILES,
    ShapeError,
    WeightsFormatError,
    adam_init,
    adam_step,
    conv1d_forward,
    default_config,
    dense_forward,
    global_avg_pool_forward,
    load_weights,
    loss_and_grad,
    maxpool1d_forward,
    pairing_for,
    save_weights,
)
from bytecap.train import predict, train
from bytecap.views import TASKS
from conftest import needs_dev_fd, read_through_pipe

LOSS_BCE = "binary_cross_entropy"
LOSS_CCE = "categorical_cross_entropy"


class TestForwards:
    def test_table_shape_walk(self):
        x = np.zeros((115, 1))
        w = np.zeros((64, 64, 1))
        out = conv1d_forward(x, w, np.zeros(64), 3)
        assert out.shape == (18, 64)
        pooled = maxpool1d_forward(out, 5, 5)
        assert pooled.shape == (3, 64)

    def test_conv_hand_dot_products(self):
        out = conv1d_forward(np.array([[1.], [2.], [3.], [4.]]),
                             np.array([[[1.], [0.], [-1.]]]), np.zeros(1), 1)
        assert np.allclose(out.ravel(), [-2.0, -2.0])

    def test_conv_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(9, 1))
        out = conv1d_forward(x, np.ones((1, 1, 1)), np.zeros(1), 1)
        assert np.allclose(out, x)

    def test_conv_shape_error(self):
        with pytest.raises(ShapeError):
            conv1d_forward(np.zeros((3, 1)), np.zeros((2, 5, 1)), np.zeros(2), 1)

    def test_maxpool_windowed(self):
        x = np.array([3, 1, 4, 1, 5, 9], dtype=float)[:, None]
        assert np.allclose(maxpool1d_forward(x, 2, 2).ravel(), [3, 4, 9])

    def test_maxpool_constant(self):
        out = maxpool1d_forward(np.full((10, 3), 2.5), 5, 5)
        assert np.all(out == 2.5)

    def test_maxpool_shape_error(self):
        with pytest.raises(ShapeError):
            maxpool1d_forward(np.zeros((3, 1)), 5, 5)

    def test_gap(self):
        x = np.random.default_rng(1).normal(size=(1, 64))
        assert np.allclose(global_avg_pool_forward(x), x[0])
        assert np.allclose(global_avg_pool_forward(np.array([[2.], [4.]])), [3.0])
        assert np.all(global_avg_pool_forward(np.zeros((5, 4))) == 0)

    def test_dense_softmax_symmetry(self):
        out = dense_forward(np.zeros(3), np.zeros((2, 3)), np.zeros(2), "softmax")
        assert np.allclose(out, [0.5, 0.5])

    def test_dense_sigmoid_midpoint(self):
        out = dense_forward(np.zeros(3), np.zeros((1, 3)), np.zeros(1), "sigmoid")
        assert np.allclose(out, [0.5])

    def test_dense_flattens_higher_rank(self):
        x = np.arange(6, dtype=float).reshape(3, 2)
        w = np.ones((1, 6))
        assert np.allclose(dense_forward(x, w, np.zeros(1)), [15.0])

    def test_softmax_simplex_and_sigmoid_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.normal(scale=4, size=(1, rng.integers(2, 13)))
            p = dense_forward(z, np.eye(z.shape[1]), np.zeros(z.shape[1]), "softmax")
            assert abs(p.sum() - 1.0) < 1e-6
            assert np.all(p > 0)
            s = dense_forward(z, np.eye(z.shape[1]), np.zeros(z.shape[1]), "sigmoid")
            assert np.all((s > 0) & (s < 1))

    # each call is one the plan refuses for a layer of that kind
    REFUSED_OPS = {
        "conv-stride-0": lambda x: conv1d_forward(x, np.ones((2, 3, 1)), np.zeros(2), 0),
        "pool-stride-0": lambda x: maxpool1d_forward(x, 2, 0),
        "pool-size-0": lambda x: maxpool1d_forward(x, 0, 1),
        "conv-sigmoid": lambda x: conv1d_forward(x, np.ones((2, 3, 1)), np.zeros(2), 1,
                                                 "sigmoid"),
        "conv-bogus": lambda x: conv1d_forward(x, np.ones((2, 3, 1)), np.zeros(2), 1, "bogus"),
        "conv-channels": lambda x: conv1d_forward(x, np.ones((2, 3, 4)), np.zeros(2), 1),
        "conv-bias": lambda x: conv1d_forward(x, np.ones((2, 3, 1)), np.zeros(3), 1),
        "dense-width": lambda x: dense_forward(x, np.ones((2, 7)), np.zeros(2)),
        "dense-relu": lambda x: dense_forward(x, np.ones((2, 8)), np.zeros(2), "relu"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED_OPS))
    def test_ops_refuse_what_the_plan_refuses(self, case):
        x = np.ones((8, 1))
        with pytest.raises(ShapeError):
            self.REFUSED_OPS[case](x)
        with pytest.raises(ShapeError):
            self.REFUSED_OPS[case](x[None])

    def test_unknown_task_refused(self):
        with pytest.raises(ValueError, match="unknown task 'bogus'"):
            default_config("bogus")
        for pairing in ("paper", "standard"):
            with pytest.raises(ValueError, match="unknown task 'bogus'"):
                pairing_for("bogus", pairing)
        assert default_config("multi").class_count == 12
        assert pairing_for("multi", "paper") == ("sigmoid", LOSS_CCE)

    # the reference pairings, stated apart from the table that gives them
    PAIRED = {("binary", "paper"): ("softmax", LOSS_BCE),
              ("multi", "paper"): ("sigmoid", LOSS_CCE),
              ("binary", "standard"): ("softmax", LOSS_CCE),
              ("multi", "standard"): ("softmax", LOSS_CCE)}

    @pytest.mark.parametrize("pairing", list(PAIRINGS))
    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize("task", list(TASKS))
    def test_every_table_entry_builds_a_stock_model(self, task, profile, pairing):
        cfg = default_config(task, profile, pairing)
        input_len, convs = PROFILES[profile]
        classes = len(TASKS[task].classes)
        assert cfg.input_len == input_len
        assert (cfg.layers[0], cfg.layers[2]) == convs
        assert cfg.output_shapes() == [(18, 64), (3, 64), (1, 64), (64,), (classes,)]
        assert cfg.class_count == classes
        assert (cfg.layers[-1].activation, cfg.loss) == pairing_for(task, pairing) \
            == self.PAIRED[task, pairing]
        probs = Model(cfg).forward(np.zeros((2, input_len), dtype=np.uint8))
        assert probs.shape == (2, classes)

    def test_forward_deterministic(self):
        cfg = default_config("binary")
        model = Model(cfg)
        x = np.random.default_rng(2).random((8, 115, 1), dtype=np.float32)
        a = model.forward(x)
        b = model.forward(x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch", [1, 20, 256])
    def test_forward_without_caches_matches_training_forward(self, batch):
        model = Model(default_config("binary", seed=batch))
        x = np.random.default_rng(batch).random((batch, 115, 1), dtype=np.float32)
        assert np.array_equal(model.forward(x), model.forward(x, want_cache=True)[0])

    @pytest.mark.parametrize("length", [90, 100, 114, 116, 120, 160])
    def test_forward_refuses_other_input_lengths(self, length):
        # before the check, 120 bytes read as their first 115, 160 gave other
        # probabilities, 100 gave NaN and 90 raised numpy's own stride error
        model = Model(default_config("binary"))
        x = np.random.default_rng(length).random((4, length, 1), dtype=np.float32)
        want = rf"input samples of shape \({length}, 1\) != model input shape \(115, 1\)"
        with pytest.raises(ShapeError, match=want):
            model.forward(x)
        with pytest.raises(ShapeError, match=want):
            model.forward(x[..., 0], want_cache=True)
        with pytest.raises(ValueError, match=f"sample has {length} bytes, model expects 115"):
            predict(Checkpoint(model.config, model.copy_weights(), 0, 0.0), bytes(length))

    def test_forward_refuses_other_channel_counts(self):
        model = Model(default_config("binary", "table"))
        with pytest.raises(ShapeError, match=r"shape \(20, 2\) != model input shape \(20, 1\)"):
            model.forward(np.zeros((3, 20, 2), dtype=np.float32))

    READ_LENGTHS = {  # layers, input length, read length
        "prose": (default_config("binary").layers, 115, 106),
        "table": (default_config("binary", "table").layers, 20, 17),
        "cut_stack": ((Conv1dSpec(3, 3, 1), Conv1dSpec(3, 2, 2), MaxPool1dSpec(2, 2),
                       DenseSpec(2, "softmax")), 15, 14),
        "conv_dense": ((Conv1dSpec(2, 4, 3), DenseSpec(2, "softmax")), 11, 10),
        "conv_gap": ((Conv1dSpec(2, 4, 3), GlobalAvgPoolSpec(), DenseSpec(2, "softmax")), 12, 10),
        "pool_conv_gap": ((MaxPool1dSpec(3, 3), Conv1dSpec(2, 2, 2), GlobalAvgPoolSpec(),
                           DenseSpec(2, "softmax")), 17, 12),
        "dense": ((DenseSpec(2, "softmax"),), 6, 6),
    }

    @pytest.mark.parametrize("case", sorted(READ_LENGTHS))
    def test_read_length(self, case):
        layers, input_len, read = self.READ_LENGTHS[case]
        assert Model(ModelConfig(input_len, layers, LOSS_CCE, 2)).read_length == read

    @pytest.mark.parametrize("profile,read", [("prose", 106), ("table", 17)])
    def test_output_depends_on_the_read_bytes_only(self, profile, read):
        model = Model(default_config("binary", profile, seed=2))
        assert model.read_length == read
        rng = np.random.default_rng(read)
        x = rng.random((8, model.config.input_len, 1), dtype=np.float32)
        base = model.forward(x)
        past = x.copy()
        past[:, read:] = rng.random(past[:, read:].shape, dtype=np.float32)
        assert np.array_equal(model.forward(past), base)
        assert np.array_equal(model.forward(past, want_cache=True)[0], base)
        inside = x.copy()
        inside[:, read - 1] = 1.0 - inside[:, read - 1]
        assert (model.forward(inside) != base).any(axis=1).all()

    def test_init_seeded(self):
        cfg = default_config("multi", seed=13)
        assert np.array_equal(Model(cfg).flat_params, Model(cfg).flat_params)

    def test_weights_shape_checked_against_plan(self):
        cfg = default_config("binary")
        model = Model(cfg)
        before = model.flat_params.copy()
        for bad, shape in ((before[:-1], r"\(16641,\)"), (before[None], r"\(1, 16642\)")):
            want = rf"weights of shape {shape} != the model's 16642 parameters"
            with pytest.raises(ShapeError, match=want):
                model.set_weights(bad)
            with pytest.raises(ShapeError, match=want):
                Model(cfg, weights=bad)
        assert np.array_equal(model.flat_params, before)


def maxpool_backward_oracle(a, g, pool, stride):
    """Per window, the gradient added at the first in-window argmax."""
    dx = np.zeros_like(a)
    for b in range(a.shape[0]):
        for t in range(g.shape[1]):
            for c in range(a.shape[2]):
                first = int(np.argmax(a[b, t * stride:t * stride + pool, c]))
                dx[b, t * stride + first, c] += g[b, t, c]
    return dx


class TestMaxPoolBackward:
    def run(self, a, pool, stride):
        spec = MaxPool1dSpec(pool, stride)
        kind = nn._KINDS[MaxPool1dSpec]
        out, cache = kind.forward(spec, [], a, True)
        g = np.random.default_rng(0).normal(size=out.shape)
        return g, kind.backward(spec, [], cache, g, [], True)

    @pytest.mark.parametrize("pool,stride", [(3, 3), (5, 5), (2, 3), (3, 5),
                                             (3, 2), (4, 1), (5, 3)])
    def test_ties_go_to_first_max(self, pool, stride):
        # values in {0, 1, 2} after a ReLU: all-zero windows and tied maxima
        rng = np.random.default_rng(pool * 10 + stride)
        a = np.maximum(rng.integers(-2, 3, size=(4, 17, 3)), 0).astype(float)
        g, dx = self.run(a, pool, stride)
        expect = maxpool_backward_oracle(a, g, pool, stride)
        if stride >= pool:
            assert np.array_equal(dx, expect)
        else:  # shared positions may sum their windows in another order
            assert np.allclose(dx, expect)

    @pytest.mark.parametrize("pool,n_out", [(2, 6), (3, 5), (5, 3), (5, 1), (1, 4)])
    def test_windows_that_tile_the_input(self, pool, n_out):
        # stride = pool and length = pool * n_out, as the model's cut leaves
        # the stock pools: every position is written once, nothing is added
        rng = np.random.default_rng(pool * 10 + n_out)
        a = np.maximum(rng.integers(-2, 3, size=(4, pool * n_out, 3)), 0).astype(float)
        g, dx = self.run(a, pool, pool)
        assert np.array_equal(dx, maxpool_backward_oracle(a, g, pool, pool))
        g, dx = self.run(np.zeros_like(a), pool, pool)
        assert np.array_equal(dx, maxpool_backward_oracle(np.zeros_like(a), g, pool, pool))

    @pytest.mark.parametrize("pool,stride", [(3, 3), (2, 3), (3, 2)])
    def test_all_zero_windows_route_to_window_start(self, pool, stride):
        a = np.zeros((2, 11, 2))
        g, dx = self.run(a, pool, stride)
        expect = np.zeros_like(a)
        for t in range(g.shape[1]):
            expect[:, t * stride] += g[:, t]
        assert np.allclose(dx, expect)


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        loss, _ = loss_and_grad(np.array([[1.0, 0.0]]), [0], LOSS_CCE, "softmax")
        assert loss <= 1.2e-7
        loss, _ = loss_and_grad(np.array([[1.0, 0.0]]), [0], LOSS_BCE, "softmax")
        assert loss <= 1.2e-7

    def test_uniform_binary_cross_entropy(self):
        loss, _ = loss_and_grad(np.array([[0.5, 0.5]]), [1], LOSS_CCE, "softmax")
        assert abs(loss - 0.6931471805599453) < 1e-9

    def test_bce_hand_formula(self):
        p = np.array([[0.8, 0.3]])
        want = -(np.log(0.8) + np.log(0.7)) / 2  # true class 0, averaged over units
        loss, _ = loss_and_grad(p, [0], LOSS_BCE, "sigmoid")
        assert abs(loss - want) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            loss_and_grad(np.array([[0.5, 0.5]]), [2], LOSS_CCE, "softmax")

    def test_extreme_probabilities_stay_finite(self):
        loss, dz = loss_and_grad(np.array([[0.0, 1.0]]), [0], LOSS_CCE, "softmax")
        assert np.isfinite(loss) and np.all(np.isfinite(dz))


# ---------------------------------------------------------------------------
# Earlier kernels kept as oracles: the shipped ones must match them bit for bit

def oracle_window_gather(a, k, stride):
    """conv1d's window matrix as np.take over a table of window positions."""
    l_out = (a.shape[1] - k) // stride + 1
    idx = np.arange(l_out)[:, None] * stride + np.arange(k)[None, :]
    return np.take(a, idx, axis=1)  # (B, L_out, K, C), contiguous


def oracle_conv_forward(spec, params, a, need_cache):
    w, b = params
    f, k, c = w.shape
    xcol = oracle_window_gather(a, k, spec.stride)
    b_dim, l_out = xcol.shape[0], xcol.shape[1]
    xflat = xcol.reshape(b_dim * l_out, k * c)
    z = (xflat @ w.transpose(1, 2, 0).reshape(k * c, f)).reshape(b_dim, l_out, f)
    z += b
    if spec.activation == "relu":
        np.maximum(z, 0, out=z)
    return z, ((a.shape, xflat, z) if need_cache else None)


def oracle_conv_backward(spec, params, cache, g, grads, need_dx):
    in_shape, xflat, out = cache
    w, _ = params
    dw, db = grads
    if spec.activation == "relu":
        g = g * (out > 0)
    bsz, l_out, f = g.shape
    np.matmul(g.reshape(bsz * l_out, f).T, xflat, out=dw.reshape(f, -1))
    np.sum(g, axis=(0, 1), out=db)
    if not need_dx:
        return None
    contrib = np.tensordot(g, w, axes=([2], [0]))  # (B, L_out, K, C)
    dx = np.zeros(in_shape, dtype=g.dtype)
    for k in range(w.shape[1]):
        dx[:, k:k + spec.stride * l_out:spec.stride, :] += contrib[:, :, k]
    return dx


def oracle_loss_and_grad(pred, labels, loss, activation):
    """Cross-entropy through a one-hot matrix and y*log(p) + (1-y)*log(1-p)."""
    pred2 = np.asarray(pred)
    y = np.zeros(pred2.shape, dtype=pred2.dtype)
    y[np.arange(len(labels)), labels] = 1.0
    p = np.clip(pred2, nn._EPS, 1.0 - nn._EPS)
    if loss == LOSS_CCE:
        per_sample = -(y * np.log(p)).sum(axis=1)
        dldp = -y / p
    else:
        u = pred2.shape[1]
        per_sample = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum(axis=1) / u
        dldp = (-(y / p) + (1.0 - y) / (1.0 - p)) / u
    dldp = dldp * ((pred2 > nn._EPS) & (pred2 < 1.0 - nn._EPS))
    if activation == "softmax":
        dz = pred2 * (dldp - (dldp * pred2).sum(axis=1, keepdims=True))
    elif activation == "sigmoid":
        dz = dldp * pred2 * (1.0 - pred2)
    else:
        dz = dldp
    return float(per_sample.mean()), dz / pred2.shape[0]


class TestOracles:
    @pytest.mark.parametrize("shape,k,stride", [
        ((20, 115, 1), 64, 3),   # prose conv1
        ((20, 3, 64), 3, 1),     # prose conv2
        ((20, 20, 1), 3, 1),     # table conv1
        ((20, 18, 64), 3, 1),    # table conv2
        ((1, 115, 1), 64, 3),    # one sample
        ((3, 31, 2), 2, 5),      # stride > kernel
        ((2, 9, 3), 9, 4),       # one window covers the input
        ((1, 5, 1), 5, 1),       # one window, one sample, one channel
        ((4, 3, 64), 3, 2),      # the cut prose conv2's shape, another stride
    ])
    def test_conv_matches_take_and_tensordot(self, shape, k, stride):
        rng = np.random.default_rng(k * 100 + stride)
        a = rng.normal(size=shape).astype(np.float32)
        spec = Conv1dSpec(5, k, stride, "relu")
        params = (rng.normal(size=(5, k, shape[2])).astype(np.float32),
                  rng.normal(size=5).astype(np.float32))
        for x in (a, np.asfortranarray(a), a[:, ::-1, :], np.repeat(a, 2, axis=1)[:, ::2]):
            z, (in_shape, xflat, out) = nn._conv_forward(spec, params, x, True)
            ref_z, (_, ref_xflat, _) = oracle_conv_forward(spec, params, x, True)
            assert xflat.tobytes() == ref_xflat.tobytes() and in_shape == x.shape
            assert z.tobytes() == ref_z.tobytes() and out is z
            g = rng.normal(size=z.shape).astype(np.float32)
            grads, ref_grads = ([np.empty_like(t) for t in params] for _ in range(2))
            dx = nn._conv_backward(spec, params, (in_shape, xflat, out), g, grads, True)
            ref_dx = oracle_conv_backward(spec, params, (in_shape, xflat, out), g, ref_grads, True)
            assert dx.tobytes() == ref_dx.tobytes()
            assert all(t.tobytes() == r.tobytes() for t, r in zip(grads, ref_grads))
        assert not hasattr(nn, "_window_index")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gap_matches_mean_and_broadcast(self, dtype):
        kind = nn._KINDS[GlobalAvgPoolSpec]
        rng = np.random.default_rng(7)
        for length in (1, 3, 7, 20, 33):
            a = rng.normal(size=(5, length, 4)).astype(dtype)
            y, shape = kind.forward(GlobalAvgPoolSpec(), (), a, True)
            assert y.dtype == dtype and y.tobytes() == a.mean(axis=1).tobytes()
            g = rng.normal(size=y.shape).astype(dtype)
            dx = kind.backward(GlobalAvgPoolSpec(), (), shape, g, (), True)
            ref = np.broadcast_to(g[:, None, :] / length, shape).astype(dtype)
            assert dx.dtype == dtype and dx.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [2, 12])
    @pytest.mark.parametrize("activation", ["softmax", "sigmoid", "none"])
    @pytest.mark.parametrize("loss", [LOSS_BCE, LOSS_CCE])
    def test_loss_matches_one_hot_formula(self, loss, activation, classes, dtype):
        rng = np.random.default_rng(classes)
        z = rng.normal(size=(20, classes)) * 3
        pred = (np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)).astype(dtype)
        eps = dtype(nn._EPS)
        # both clamp edges, exactly, on and off the label
        pred[0, :2] = (0, 1)
        pred[1, :2] = (1, 0)
        pred[2, :2] = (eps, 1 - eps)
        pred[3, :2] = (1 - eps, eps)
        pred[4, :] = eps
        labels = rng.integers(0, classes, 20)
        labels[:5] = (0, 0, 0, 1, classes - 1)
        got_loss, got_dz = loss_and_grad(pred, labels, loss, activation)
        ref_loss, ref_dz = oracle_loss_and_grad(pred, labels, loss, activation)
        assert np.float64(got_loss).tobytes() == np.float64(ref_loss).tobytes()
        assert got_dz.dtype == ref_dz.dtype and got_dz.tobytes() == ref_dz.tobytes()
        # one sample, unbatched
        got_loss, got_dz = loss_and_grad(pred[2], labels[2], loss, activation)
        ref_loss, ref_dz = oracle_loss_and_grad(pred[2:3], labels[2:3], loss, activation)
        assert got_loss == ref_loss and got_dz.tobytes() == ref_dz[0].tobytes()


# ---------------------------------------------------------------------------
# Finite-difference oracles

def fd_param_grads(model, x, y, h):
    """Central-difference gradient of the mean loss for every parameter."""
    def loss_of():
        probs = model.forward(x)
        return loss_and_grad(probs, y, model.config.loss,
                             model.final_activation)[0]

    flat = model.flat_params
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_of()
        flat[i] = orig - h
        lm = loss_of()
        flat[i] = orig
        grads[i] = (lp - lm) / (2 * h)
    return grads


def analytic_param_grads(model, x, y):
    probs, caches = model.forward(x, want_cache=True)
    _, dlogits = loss_and_grad(probs, y, model.config.loss,
                               model.final_activation)
    return model.flat_backward(caches, dlogits)


def f64_twin(model):
    """Same weights at float64, for evaluating the FD oracle accurately."""
    return Model(model.config, dtype=np.float64, weights=model.flat_params)


def rel_err(a, b):
    """Norm-based relative error between two flat parameter gradients."""
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def smooth_draw(model, rng, h, batch=3):
    """Random input/labels resampled away from ReLU kinks and live max-pool
    ties, where central differences are undefined. All-zero pool windows
    produced by a preceding ReLU are kept: the ReLU margin guarantees they
    stay clamped under +-h perturbations, so both gradients are zero there.
    """
    cfg = model.config
    margin = 4 * h
    for _ in range(200):
        x = rng.normal(size=(batch, cfg.input_len, 1)).astype(model.dtype)
        y = rng.integers(0, cfg.class_count, size=batch)
        ok = True
        a = x.astype(model.dtype)
        for spec, params in zip(cfg.layers, model.params):
            if isinstance(spec, Conv1dSpec):
                w, b = params
                z = conv1d_forward(a, w, b, spec.stride, "none")
                if spec.activation == "relu":
                    if np.abs(z).min() < margin:
                        ok = False
                        break
                    a = np.maximum(z, 0)
                else:
                    a = z
            elif isinstance(spec, MaxPool1dSpec):
                from numpy.lib.stride_tricks import sliding_window_view
                sw = sliding_window_view(a, spec.pool, axis=1)[:, ::spec.stride]
                top2 = np.sort(sw, axis=-1)[..., -2:]
                gap = top2[..., 1] - top2[..., 0]
                live_tie = (gap < margin) & (top2[..., 1] != 0.0)
                if live_tie.any():
                    ok = False
                    break
                a = sw.max(axis=-1)
            elif isinstance(spec, GlobalAvgPoolSpec):
                a = a.mean(axis=1)
            elif isinstance(spec, DenseSpec):
                a = dense_forward(a, params[0], params[1], spec.activation)
        if ok:
            return x, y
    raise RuntimeError("could not find a smooth draw")


def tiny_config(layers, loss, class_count, input_len):
    return ModelConfig(input_len=input_len, layers=tuple(layers), loss=loss,
                       class_count=class_count)


GRAD_CASES = [
    ("dense_softmax_cce", tiny_config([DenseSpec(3, "softmax")], LOSS_CCE, 3, 6)),
    ("dense_sigmoid_cce", tiny_config([DenseSpec(3, "sigmoid")], LOSS_CCE, 3, 6)),
    ("dense_softmax_bce", tiny_config([DenseSpec(2, "softmax")], LOSS_BCE, 2, 6)),
    ("dense_sigmoid_bce", tiny_config([DenseSpec(2, "sigmoid")], LOSS_BCE, 2, 6)),
    ("dense_stack", tiny_config([DenseSpec(4, "none"), DenseSpec(2, "softmax")],
                                LOSS_CCE, 2, 6)),
    ("conv_relu", tiny_config([Conv1dSpec(4, 3, 2), DenseSpec(2, "softmax")],
                              LOSS_CCE, 2, 11)),
    ("conv_linear", tiny_config([Conv1dSpec(3, 4, 1, "none"),
                                 DenseSpec(2, "sigmoid")], LOSS_BCE, 2, 9)),
    ("maxpool", tiny_config([Conv1dSpec(3, 2, 1, "none"), MaxPool1dSpec(3, 2),
                             DenseSpec(2, "softmax")], LOSS_CCE, 2, 10)),
    ("gap", tiny_config([Conv1dSpec(4, 3, 1, "none"), GlobalAvgPoolSpec(),
                         DenseSpec(2, "softmax")], LOSS_CCE, 2, 8)),
    ("full_stack", tiny_config([Conv1dSpec(5, 6, 2), MaxPool1dSpec(3, 3),
                                Conv1dSpec(4, 2, 1), GlobalAvgPoolSpec(),
                                DenseSpec(3, "sigmoid")], LOSS_CCE, 3, 20)),
    # reads 14 of 15 inputs; the second conv takes, and returns the dx of,
    # 12 of the first conv's 13 positions
    ("cut_stack", tiny_config([Conv1dSpec(3, 3, 1), Conv1dSpec(3, 2, 2), MaxPool1dSpec(2, 2),
                               DenseSpec(2, "softmax")], LOSS_CCE, 2, 15)),
]
F32_CASES = GRAD_CASES[:7] + GRAD_CASES[-1:]


class TestGradients:
    @pytest.mark.parametrize("name,cfg", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_fd_oracle_f64(self, name, cfg):
        h = 1e-5
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for draw in range(5):
            model = Model(cfg, dtype=np.float64)
            # non-degenerate random weights
            model.flat_params += rng.normal(scale=0.3, size=model.flat_params.shape)
            x, y = smooth_draw(model, rng, h)
            fd = fd_param_grads(model, x, y, h)
            an = analytic_param_grads(model, x, y)
            assert rel_err(an, fd) < 1e-5, f"{name} draw {draw}"

    @pytest.mark.parametrize("name,cfg", F32_CASES, ids=[c[0] for c in F32_CASES])
    def test_fd_oracle_f32(self, name, cfg):
        # f32 analytic path against an accurately evaluated FD oracle;
        # the >=100-draw battery runs in the acceptance suite
        h = 1e-3
        rng = np.random.default_rng(zlib.crc32((name + "32").encode()))
        for draw in range(3):
            model = Model(cfg, dtype=np.float32)
            model.flat_params += rng.normal(scale=0.3,
                                            size=model.flat_params.shape).astype(np.float32)
            x, y = smooth_draw(model, rng, h)
            fd = fd_param_grads(f64_twin(model), x, y, h)
            an = analytic_param_grads(model, x, y)
            assert rel_err(an, fd) < 1e-2, f"{name} draw {draw}"

    def test_hidden_dense_activation_rejected(self):
        # its backward would skip the sigmoid's derivative
        with pytest.raises(ShapeError, match="layer 0: a dense layer before the last"):
            tiny_config([DenseSpec(4, "sigmoid"), DenseSpec(2, "softmax")], LOSS_CCE, 2, 6)

    def test_zero_upstream_gives_zero_grads(self):
        cfg = default_config("binary")
        model = Model(cfg)
        x = np.random.default_rng(3).random((2, 115, 1), dtype=np.float32)
        _, caches = model.forward(x, want_cache=True)
        assert not model.flat_backward(caches, np.zeros((2, 2), dtype=np.float32)).any()

    def test_backward_calls_do_not_alias(self):
        cfg = default_config("binary")
        model = Model(cfg)
        rng = np.random.default_rng(4)
        x = rng.random((5, 115, 1), dtype=np.float32)
        _, caches = model.forward(x, want_cache=True)
        d1, d2 = (rng.normal(size=(5, 2)).astype(np.float32) for _ in range(2))
        first = model.flat_backward(caches, d1)
        kept = first.copy()
        second = [a for layer in model.backward(caches, d2) for a in layer]
        assert not any(np.shares_memory(a, first) for a in second)
        assert np.array_equal(first, kept)
        # the per-layer views lie in the flat buffer a caller hands to adam_step
        flat = model.flat_backward(caches, d2)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in second]))

    def test_hand_chain_rule_single_parameter(self):
        # one input, one sigmoid unit, BCE: dL/dw = (p - y) * x
        cfg = tiny_config([DenseSpec(1, "sigmoid")], LOSS_BCE, 1, 1)
        model = Model(cfg, dtype=np.float64)
        model.set_weights(np.array([0.7, 0.2]))
        x = np.array([[[0.9]]])
        probs, caches = model.forward(x, want_cache=True)
        p = 1 / (1 + np.exp(-(0.7 * 0.9 + 0.2)))
        assert np.allclose(probs, p)
        _, dlogits = loss_and_grad(probs, [0], LOSS_BCE, "sigmoid")
        grads = model.backward(caches, dlogits)
        assert np.allclose(grads[0][0], (p - 1.0) * 0.9)
        assert np.allclose(grads[0][1], p - 1.0)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -0.1, 2.0])
        state = adam_init([p])
        adam_step([p], [g], state, 1, lr=1e-3)
        delta = p - np.array([1.0, -2.0, 3.0])
        assert np.allclose(delta, -1e-3 * np.sign(g), atol=1e-6)

    def test_zero_gradient_no_update(self):
        p = np.array([1.0, 2.0])
        snapshot = p.copy()
        adam_step([p], [np.zeros(2)], adam_init([p]), 1)
        assert np.array_equal(p, snapshot)

    def test_deterministic_updates(self):
        def run():
            rng = np.random.default_rng(4)
            p = rng.normal(size=5)
            state = adam_init([p])
            for t in range(1, 20):
                adam_step([p], [rng.normal(size=5)], state, t)
            return p

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        p = rng.normal(size=300).astype(dtype)
        ref_p, ref_m, ref_v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        state = adam_init([p])
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-7
        for t in range(1, 25):
            g = rng.normal(size=300).astype(dtype)
            adam_step([p], [g], state, t, lr, beta1, beta2, eps)
            ref_m = beta1 * ref_m + (1.0 - beta1) * g
            ref_v = beta2 * ref_v + (1.0 - beta2) * np.square(g)
            mhat = ref_m / (1.0 - beta1 ** t)
            vhat = ref_v / (1.0 - beta2 ** t)
            ref_p = ref_p - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(p, ref_p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subnormal_first_moments_flushed(self, dtype):
        tiny = np.finfo(dtype).tiny
        p = np.ones(6, dtype=dtype)
        g = np.array([0, 0, 0, 0, 1e-3, -1e-3], dtype=dtype)
        m = np.array([tiny / 4, -tiny / 8, tiny * 0.9, 0, 1e-3, 0], dtype=dtype)
        v = np.full(6, 1e-6, dtype=dtype)
        assert np.count_nonzero((m != 0) & (np.abs(m) < tiny)) == 3
        adam_step([p], [g], [(m, v)], 50)
        assert not np.any((m != 0) & (np.abs(m) < tiny))
        assert np.count_nonzero(m) == 2 and np.isfinite(p).all()

    def test_loss_decreases_on_fixed_batch(self):
        cfg = default_config("binary", seed=6)
        model = Model(cfg)
        rng = np.random.default_rng(6)
        x = rng.random((8, 115, 1), dtype=np.float32)
        y = np.array([0, 1] * 4)
        state = adam_init([model.flat_params])
        first = None
        for t in range(1, 101):
            probs, caches = model.forward(x, want_cache=True)
            loss, dlogits = loss_and_grad(probs, y, cfg.loss,
                                          model.final_activation)
            if first is None:
                first = loss
            adam_step([model.flat_params], [model.flat_backward(caches, dlogits)], state, t)
        final = loss_and_grad(model.forward(x), y, cfg.loss,
                              model.final_activation)[0]
        assert final < first / 10


# Stock binary model (prose profile): per layer its FTLW field format, and
# per hostile case the (layer, field, value) written over the saved file
# plus the expected error message.
STOCK_FORMATS = ["<IIIB", "<II", "<IIIB", "<", "<IB"]
HOSTILE_SPECS = {
    "unknown_activation": (4, 1, 9, "activation code 9"),
    "zero_kernel": (0, 1, 0, "must be >= 1"),
    "zero_conv_stride": (2, 2, 0, "must be >= 1"),
    "zero_pool": (1, 0, 0, "must be >= 1"),
    "zero_pool_stride": (1, 1, 0, "must be >= 1"),
    "zero_filters": (2, 0, 0, "empty output"),
    "zero_units": (4, 0, 0, "empty output"),
    "conv_softmax": (0, 3, 2, "conv1d cannot run activation 'softmax'"),
    "conv_sigmoid": (2, 3, 3, "conv1d cannot run activation 'sigmoid'"),
    "dense_relu": (4, 1, 1, "dense cannot run activation 'relu'"),
}


# the input-length refusal's rule, which names FTLW's field beside FTLD's
INPUT_LEN_RULE = re.escape("must lie in [1, 2^32 - 1] "
                           "(the u32 sample length of FTLD and input length of FTLW)")


def write_hostile_weights(path, case):
    """Save the stock binary model, then overwrite one layer spec field."""
    layer, field, value, _ = HOSTILE_SPECS[case]
    cfg = default_config("binary")
    save_weights(path, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                                  best_epoch=0, best_val_accuracy=0.0))
    blob = bytearray(path.read_bytes())
    off = 12 + sum(1 + struct.calcsize(fmt) for fmt in STOCK_FORMATS[:layer])
    fmt = STOCK_FORMATS[layer]
    off += 1 + struct.calcsize("<" + fmt[1:1 + field])
    struct.pack_into("<" + fmt[1 + field], blob, off, value)
    path.write_bytes(bytes(blob))


class TestWeightsFile:
    def trained_checkpoint(self, seed=0):
        cfg = default_config("binary", seed=seed)
        model = Model(cfg)
        return Checkpoint(config=cfg, weights=model.copy_weights(),
                          best_epoch=3, best_val_accuracy=0.875)

    def test_roundtrip_identical_outputs(self, tmp_path):
        ckpt = self.trained_checkpoint()
        p = tmp_path / "w.ftlw"
        save_weights(p, ckpt)
        back = load_weights(p)
        assert back.best_epoch == 3
        assert back.best_val_accuracy == pytest.approx(0.875)
        x = np.random.default_rng(8).random((6, 115, 1), dtype=np.float32)
        assert np.array_equal(ckpt.to_model().forward(x),
                              back.to_model().forward(x))
        # resaving the loaded checkpoint is byte-identical
        p2 = tmp_path / "w2.ftlw"
        save_weights(p2, back)
        assert p2.read_bytes() == p.read_bytes()

    # sha256 of seeded fresh checkpoints' files (versions 1 and 2, both
    # profiles, both tasks); fresh weights are Glorot draws cast to float32,
    # the same on every BLAS build, where trained weights may not be
    FRESH_DIGESTS = {
        ("binary", "prose", "paper"):
            "c9e9434aa64607f9d0dd9b7ccd1ad4462fc88c48134d7337f9ac661f95d34dde",
        ("binary", "prose", "standard"):
            "03dc253879260773744e4b584d8463812be88b933996ccfe201ea0c76040ddf9",
        ("multi", "table", "paper"):
            "e26f417f2cd722f35044722e12e7cf0cbd75b83d4d849dc9a17ba35af0bbe34e",
    }

    @pytest.mark.parametrize("case", sorted(FRESH_DIGESTS), ids="-".join)
    def test_fresh_checkpoint_bytes_pinned(self, tmp_path, case):
        cfg = default_config(*case, seed=7)
        p = tmp_path / "f.ftlw"
        save_weights(p, Checkpoint(cfg, Model(cfg).copy_weights(), 3, 0.875))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == self.FRESH_DIGESTS[case]

    def test_trained_checkpoint_bytes_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 256, (40, 115), dtype=np.uint8)
        y = np.arange(40) % 2
        ckpt, _ = train(default_config("binary", epochs=2, seed=5), (x, y), (x, y))
        p, p2 = tmp_path / "t.ftlw", tmp_path / "t2.ftlw"
        save_weights(p, ckpt)
        back = load_weights(p)
        assert np.array_equal(back.to_model().flat_params, ckpt.to_model().flat_params)
        save_weights(p2, back)
        assert p2.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("cut", [5, -1], ids=["short", "long"])
    def test_weights_of_another_count_refused_before_the_file_opens(self, tmp_path, cut):
        # a short vector once wrote a file that load_weights refuses
        ckpt = self.trained_checkpoint()
        count = ckpt.weights.size
        weights = (ckpt.weights[:-cut] if cut > 0
                   else np.append(ckpt.weights, np.float32(0)))
        p = tmp_path / "w.ftlw"
        with pytest.raises(ShapeError, match=f"checkpoint holds {weights.size} weights, "
                                             f"its config {count} parameters"):
            save_weights(p, Checkpoint(ckpt.config, weights, 3, 0.875))
        assert not p.exists()

    def test_predict_reuses_one_model_per_checkpoint(self, tmp_path):
        ckpt = self.trained_checkpoint(seed=2)
        p = tmp_path / "w.ftlw"
        save_weights(p, ckpt)
        back = load_weights(p)
        samples = [bytes(np.random.default_rng(i).integers(0, 256, 115, dtype=np.uint8))
                   for i in range(5)]
        first = [predict(ckpt, s) for s in samples]
        assert ckpt.shared_model() is ckpt.shared_model()
        for s, (cls, probs) in zip(samples, first):
            again_cls, again = predict(ckpt, s)
            back_cls, from_file = predict(back, s)
            assert cls == again_cls == back_cls
            assert np.array_equal(probs, again) and np.array_equal(probs, from_file)
        # replacing the weights rebuilds the shared model
        ckpt.weights = self.trained_checkpoint(seed=3).weights
        other = Model(ckpt.config, weights=ckpt.weights).forward(
            np.frombuffer(samples[0], np.uint8).astype(np.float32)[None, :, None] / 255.0)
        assert np.array_equal(predict(ckpt, samples[0])[1], other[0])

    def test_truncation_names_layer(self, tmp_path):
        ckpt = self.trained_checkpoint()
        p = tmp_path / "t.ftlw"
        save_weights(p, ckpt)
        blob = p.read_bytes()
        p.write_bytes(blob[:200])  # inside the first conv weight tensor
        with pytest.raises(WeightsFormatError, match=r"layer 0 \(conv1d\)"):
            load_weights(p)

    @needs_dev_fd
    def test_truncation_through_pipe_names_layer(self, tmp_path):
        p = tmp_path / "t.ftlw"
        save_weights(p, self.trained_checkpoint())
        # cut inside the first conv weight tensor
        with pytest.raises(WeightsFormatError, match=r"layer 0 \(conv1d\)"):
            read_through_pipe(load_weights, p.read_bytes()[:200])

    def test_bad_magic_and_version(self, tmp_path):
        p = tmp_path / "m.ftlw"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(p)
        ckpt = self.trained_checkpoint()
        save_weights(p, ckpt)
        blob = bytearray(p.read_bytes())
        blob[4] = 9  # bump version
        p.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="version"):
            load_weights(p)

    @pytest.mark.parametrize("task,pairing,version", [
        ("binary", "paper", 1), ("multi", "paper", 1), ("multi", "standard", 1),
        ("binary", "standard", 2)])
    def test_loss_survives_round_trip(self, tmp_path, task, pairing, version):
        cfg = default_config(task, pairing=pairing)
        p = tmp_path / "l.ftlw"
        save_weights(p, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                                   best_epoch=0, best_val_accuracy=0.5))
        # version 2 only where version 1 would infer the wrong loss
        assert struct.unpack_from("<H", p.read_bytes(), 4)[0] == version
        back = load_weights(p)
        assert back.config.loss == cfg.loss
        p2 = tmp_path / "l2.ftlw"
        save_weights(p2, back)
        assert p2.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("field, value, message", [
        ("input_len", 0, f"input length 0 {INPUT_LEN_RULE}"),
        ("input_len", 2 ** 32, f"input length 4294967296 {INPUT_LEN_RULE}"),
        ("loss", "mse", "loss must be one of binary_cross_entropy, "
                        "categorical_cross_entropy, got 'mse'"),
        ("epochs", 0, "epochs must be >= 1, got 0"),
        ("layers", (), "model must end with a dense layer"),
        ("layers", (MaxPool1dSpec(0, 1), DenseSpec(2, "softmax")),
         "layer 0: max_pool1d pool and stride must be >= 1, got 0/1"),
        ("class_count", 3, r"final dense units \(2,\) != class count 3")])
    def test_config_outside_its_rules_refused_before_any_file(self, field, value, message):
        # save_weights once wrote 4 bytes, then raised struct.error, for the
        # long input, and 12 bytes, then raised KeyError, for the unknown loss;
        # now no such config is made, so none reaches Model or save_weights
        cfg = default_config("binary")
        for refuse in (lambda: dataclasses.replace(cfg, **{field: value}),
                       lambda: ModelConfig(**{**vars(cfg), field: value})):
            with pytest.raises(ValueError, match=message):
                refuse()

    def test_input_length_zero_refused(self, tmp_path):
        # one dense layer: the only stack whose shape rules pass a length-0 input
        p = tmp_path / "zero.ftlw"
        p.write_bytes(b"FTLW" + struct.pack("<HIH", 1, 0, 1) + struct.pack("<BIB", 3, 2, 2)
                      + struct.pack("<2f", 0, 0) + struct.pack("<If", 0, 0.0))
        with pytest.raises(WeightsFormatError, match=f"input length 0 {INPUT_LEN_RULE}"):
            load_weights(p)

    def test_unknown_loss_code_rejected(self, tmp_path):
        cfg = default_config("binary", pairing="standard")
        p = tmp_path / "u.ftlw"
        save_weights(p, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                                   best_epoch=0, best_val_accuracy=0.5))
        blob = bytearray(p.read_bytes())
        blob[12] = 7  # the loss byte after the version 2 header
        p.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="unknown loss code 7"):
            load_weights(p)
        p.write_bytes(bytes(blob[:12]))
        with pytest.raises(WeightsFormatError, match="truncated while reading loss"):
            load_weights(p)

    @pytest.mark.parametrize("case", sorted(HOSTILE_SPECS))
    def test_malformed_layer_spec_rejected(self, tmp_path, case):
        p = tmp_path / "h.ftlw"
        write_hostile_weights(p, case)
        with pytest.raises(WeightsFormatError, match=HOSTILE_SPECS[case][3]):
            load_weights(p)

    def test_hidden_dense_activation_rejected(self, tmp_path):
        p = tmp_path / "hidden.ftlw"
        cfg = dict(GRAD_CASES)["dense_stack"]
        save_weights(p, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                                   best_epoch=0, best_val_accuracy=0.0))
        blob = bytearray(p.read_bytes())
        # a two-class CCE model is saved as version 2, with its loss byte at 12
        assert blob[4] == 2
        blob[13 + 1 + 4] = 3  # layer 0 activation: none -> sigmoid
        p.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="dense layer before the last"):
            load_weights(p)

    def test_claimed_size_checked_before_reading(self, tmp_path):
        # one dense layer over a 2^23-long input: 2^24 weights (64 MiB) claimed
        p = tmp_path / "huge.ftlw"
        p.write_bytes(b"FTLW" + struct.pack("<HIH", 1, 1 << 23, 1)
                      + struct.pack("<BIB", 3, 2, 2) + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(WeightsFormatError, match=r"layer 0 \(dense\)"):
                load_weights(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @needs_dev_fd
    def test_huge_claim_through_pipe(self):
        # a pipe has no size to check: one dense layer over a 2^27-long
        # input claims 2^28 weights (1 GiB), which must not be allocated
        blob = (b"FTLW" + struct.pack("<HIH", 1, 1 << 27, 1)
                + struct.pack("<BIB", 3, 2, 2) + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(WeightsFormatError, match=r"layer 0 \(dense\)"):
                read_through_pipe(load_weights, blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_bytes_after_trailer_refused(self, tmp_path, through_pipe):
        p = tmp_path / "j.ftlw"
        save_weights(p, self.trained_checkpoint())
        load_weights(p)
        blob = p.read_bytes() + b"JUNK"
        p.write_bytes(blob)
        with pytest.raises(WeightsFormatError, match="bytes after the trailer"):
            if through_pipe:
                read_through_pipe(load_weights, blob)
            else:
                load_weights(p)

    def test_file_size_formula(self, tmp_path):
        ckpt = self.trained_checkpoint()
        p = tmp_path / "s.ftlw"
        save_weights(p, ckpt)
        spec_bytes = {Conv1dSpec: 14, MaxPool1dSpec: 9, GlobalAvgPoolSpec: 1,
                      DenseSpec: 6}
        header = 4 + 8 + sum(spec_bytes[type(s)] for s in ckpt.config.layers)
        assert p.stat().st_size == header + ckpt.weights.size * 4 + 8

    def refusal(self, tmp_path, blob, through_pipe):
        """load_weights' error for `blob`, from a file or from a pipe,
        without the path prefix."""
        p = tmp_path / "cut.ftlw"
        p.write_bytes(blob)
        with pytest.raises(WeightsFormatError) as err:
            if through_pipe:
                read_through_pipe(load_weights, blob)
            else:
                load_weights(p)
        return str(err.value).split(": ", 1)[1]

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_every_cut_names_its_field(self, tmp_path, through_pipe):
        # a two-class CCE dense model over 4 inputs: a version 2 file
        cfg = ModelConfig(input_len=4, layers=(DenseSpec(2, "softmax"),),
                          loss=LOSS_CCE, class_count=2)
        p = tmp_path / "tiny.ftlw"
        save_weights(p, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                                   best_epoch=1, best_val_accuracy=0.5))
        blob = p.read_bytes()
        # (end of the field, the message of a cut inside it), by hand
        layout = [(12, "truncated weights header"), (13, "truncated while reading loss"),
                  (14, "truncated while reading layer 0 kind"),
                  (19, "truncated while reading layer 0 (dense)"),
                  (19 + 32 + 8, "truncated while reading layer 0 (dense) tensor"),
                  (19 + 40 + 8, "truncated while reading trailer")]
        assert len(blob) == layout[-1][0]
        for end in range(4, len(blob)):
            want = next(message for field_end, message in layout if end < field_end)
            assert self.refusal(tmp_path, blob[:end], through_pipe) == want, end
        assert self.refusal(tmp_path, blob + b"\x00", through_pipe) == \
            "bytes after the trailer"

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_claim_past_the_largest_read_is_truncated(self, tmp_path, through_pipe):
        # a conv1d of 2^32 - 1 filters, each 2^32 - 1 wide, claims more than
        # 2^66 bytes of weights, past what one read(n) can be asked for
        big = 0xFFFFFFFF
        blob = (b"FTLW" + struct.pack("<HIH", 1, big, 3)
                + struct.pack("<BIIIB", 0, big, big, 1, 1) + struct.pack("<B", 2)
                + struct.pack("<BIB", 3, 2, 2) + b"\x00" * 64)
        assert self.refusal(tmp_path, blob, through_pipe) == \
            "truncated while reading layer 0 (conv1d) tensor"


# each training setting: some values in its range, some outside it
SETTING_VALUES = {
    name: [-1, 0, 1, 2] if isinstance(getattr(ModelConfig, name), int)
    else [-1.0, 0.0, 0.5, 1.0, 2.0, float("nan"), float("inf")]
    for name in nn.SETTING_RULES}


@st.composite
def config_draws(draw):
    """ModelConfig arguments: a stack of up to three of the four layer kinds
    with sizes and strides 0-5 and any activation name, then most often a
    dense layer of one unit per class, and settings in and out of range."""
    size = st.sampled_from([1, 2, 3, 4, 5, 0])
    act = st.sampled_from(["none", "relu", "softmax", "sigmoid", "tanh"])
    spec = st.one_of(st.builds(Conv1dSpec, size, size, size, act),
                     st.builds(MaxPool1dSpec, size, size),
                     st.just(GlobalAvgPoolSpec()), st.builds(DenseSpec, size, act))
    class_count = draw(st.integers(1, 3))
    layers = draw(st.lists(spec, max_size=3))
    if draw(st.sampled_from([True, True, True, False])):
        layers.append(DenseSpec(draw(st.sampled_from([class_count] * 3 + [0, 5])), draw(act)))
    # most often every setting at its default
    changed = draw(st.sampled_from([None] * len(SETTING_VALUES) + sorted(SETTING_VALUES)))
    return {"input_len": draw(st.sampled_from(range(1, 31))), "layers": tuple(layers),
            "loss": draw(st.sampled_from(nn.LOSSES * 3 + ("mse",))),
            "class_count": class_count,
            **({changed: draw(st.sampled_from(SETTING_VALUES[changed]))} if changed else {})}


def test_config_refuses_when_made_or_runs_end_to_end(tmp_path):
    # a config that is made trains one step and round-trips its weights;
    # one that could not is refused by ModelConfig itself
    made = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(config_draws())
    def check(kwargs):
        try:
            cfg = ModelConfig(**kwargs)
        except ValueError:  # ShapeError too
            return
        model = Model(cfg)
        rng = np.random.default_rng(len(made))
        x = rng.integers(0, 256, (3, cfg.input_len), dtype=np.uint8)
        y = rng.integers(0, cfg.class_count, 3)
        probs, caches = model.forward(x, want_cache=True)
        loss, dlogits = loss_and_grad(probs, y, cfg.loss, model.final_activation)
        grad = model.flat_backward(caches, dlogits)
        assert np.isfinite(loss) and grad.shape == model.flat_params.shape
        p = tmp_path / "w.ftlw"
        save_weights(p, Checkpoint(cfg, model.copy_weights(), 0, 0.0))
        back = load_weights(p)
        assert np.array_equal(back.weights, model.flat_params)
        assert back.config == ModelConfig(cfg.input_len, cfg.layers, cfg.loss,
                                          cfg.class_count)
        assert np.array_equal(Model(back.config, weights=back.weights).forward(x), probs)
        made.append(cfg)

    check()
    assert len(made) >= 30  # the draws are not all refused
    # and every kind ran in some config that was made
    assert {type(spec) for cfg in made for spec in cfg.layers} == {
        Conv1dSpec, MaxPool1dSpec, GlobalAvgPoolSpec, DenseSpec}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OMP_NUM_THREADS": "2"}], ids=["unset", "set"])
def test_import_pins_one_blas_thread_unless_set(preset):
    # a fresh interpreter, so that numpy is not loaded before bytecap
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=str(Path(nn.__file__).resolve().parent.parent))
    code = f"import os, bytecap; print(*(os.environ[v] for v in {BLAS_THREAD_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
    assert out == [preset.get(v, "1") for v in BLAS_THREAD_VARS]


# argv: task, profile, out; trains a model on a small synth corpus, saves it to out
TRAIN_AND_SAVE = """\
import sys
from bytecap import nn, synth, views
from bytecap.train import train
task, profile, out = sys.argv[1:]
inputs = synth.synth_corpus(out + ".d", synth.synth_classes(task, 3), seed=9)
cfg = nn.default_config(task, profile, epochs=2, seed=1)
ds = views.build_dataset(inputs, views.ViewKind.PACKET, views.HeaderCategory.ALL_HEADERS,
                         cfg.input_len, task)
nn.save_weights(out, train(cfg, ds, ds)[0])
"""


@pytest.mark.parametrize("task, profile", [("binary", "prose"), ("multi", "table")])
def test_trained_weights_equal_under_one_and_two_blas_threads(tmp_path, task, profile):
    # each run in a fresh interpreter, so the thread setting acts before numpy loads
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, threads),
                   PYTHONPATH=str(Path(nn.__file__).resolve().parent.parent))
        out = tmp_path / f"{threads}.ftlw"
        subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, task, profile, str(out)],
                       env=env, check=True)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
