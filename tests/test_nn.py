"""Kernel math: layer forwards, finite-difference gradient oracles, Adam,
and the weights file."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from bytecap import nn
from bytecap.nn import (
    Checkpoint,
    Conv1dSpec,
    DenseSpec,
    GlobalAvgPoolSpec,
    MaxPool1dSpec,
    Model,
    ModelConfig,
    ShapeError,
    WeightsFormatError,
    adam_init,
    adam_step,
    conv1d_forward,
    default_config,
    dense_forward,
    global_avg_pool_forward,
    grad_arrays,
    load_weights,
    loss_and_grad,
    maxpool1d_forward,
    save_weights,
)
from bytecap.train import predict

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

    def test_init_seeded(self):
        cfg = default_config("multi", seed=13)
        a, b = Model(cfg), Model(cfg)
        for pa, pb in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(pa, pb)

    def test_weights_shape_checked_against_plan(self):
        cfg = default_config("binary")
        model = Model(cfg)
        before = model.flat_params.copy()
        bad = model.copy_weights()
        bad[4][0] = bad[4][0].T  # dense weight (2, 64) given as (64, 2)
        with pytest.raises(ShapeError, match=r"layer 4 \(dense\)"):
            model.set_weights(bad)
        with pytest.raises(ShapeError, match=r"layer 4 \(dense\)"):
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
# Finite-difference oracles

def fd_param_grads(model, x, y, h):
    """Central-difference gradient of the mean loss for every parameter."""
    def loss_of():
        probs = model.forward(x)
        return loss_and_grad(probs, y, model.config.loss,
                             model.final_activation)[0]

    grads = []
    for p in model.param_arrays():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_of()
            flat[i] = orig - h
            lm = loss_of()
            flat[i] = orig
            gf[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def analytic_param_grads(model, x, y):
    probs, caches = model.forward(x, want_cache=True)
    _, dlogits = loss_and_grad(probs, y, model.config.loss,
                               model.final_activation)
    return grad_arrays(model.backward(caches, dlogits))


def f64_twin(model):
    """Same weights at float64, for evaluating the FD oracle accurately."""
    return Model(model.config, dtype=np.float64, weights=model.params)


def rel_err(a, b):
    """Norm-based relative error over all parameters concatenated."""
    av = np.concatenate([g.ravel() for g in a])
    bv = np.concatenate([g.ravel() for g in b])
    denom = max(np.linalg.norm(av), np.linalg.norm(bv), 1e-12)
    return float(np.linalg.norm(av - bv) / denom)


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
]


class TestGradients:
    @pytest.mark.parametrize("name,cfg", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_fd_oracle_f64(self, name, cfg):
        h = 1e-5
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for draw in range(5):
            model = Model(cfg, dtype=np.float64)
            for p in model.param_arrays():  # non-degenerate random weights
                p += rng.normal(scale=0.3, size=p.shape)
            x, y = smooth_draw(model, rng, h)
            fd = fd_param_grads(model, x, y, h)
            an = analytic_param_grads(model, x, y)
            assert rel_err(an, fd) < 1e-5, f"{name} draw {draw}"

    @pytest.mark.parametrize("name,cfg", GRAD_CASES[:7], ids=[c[0] for c in GRAD_CASES[:7]])
    def test_fd_oracle_f32(self, name, cfg):
        # f32 analytic path against an accurately evaluated FD oracle;
        # the >=100-draw battery runs in the acceptance suite
        h = 1e-3
        rng = np.random.default_rng(abs(hash(name + "32")) % 2**32)
        for draw in range(3):
            model = Model(cfg, dtype=np.float32)
            for p in model.param_arrays():
                p += rng.normal(scale=0.3, size=p.shape).astype(np.float32)
            x, y = smooth_draw(model, rng, h)
            fd = fd_param_grads(f64_twin(model), x, y, h)
            an = analytic_param_grads(model, x, y)
            assert rel_err(an, fd) < 1e-2, f"{name} draw {draw}"

    def test_hidden_dense_activation_rejected(self):
        # its backward would skip the sigmoid's derivative
        cfg = tiny_config([DenseSpec(4, "sigmoid"), DenseSpec(2, "softmax")], LOSS_CCE, 2, 6)
        with pytest.raises(ShapeError, match="layer 0: a dense layer before the last"):
            cfg.validate()

    def test_zero_upstream_gives_zero_grads(self):
        cfg = default_config("binary")
        model = Model(cfg)
        x = np.random.default_rng(3).random((2, 115, 1), dtype=np.float32)
        _, caches = model.forward(x, want_cache=True)
        grads = model.backward(caches, np.zeros((2, 2), dtype=np.float32))
        assert all(np.all(g == 0) for g in grad_arrays(grads))

    def test_backward_calls_do_not_alias(self):
        cfg = default_config("binary")
        model = Model(cfg)
        rng = np.random.default_rng(4)
        x = rng.random((5, 115, 1), dtype=np.float32)
        _, caches = model.forward(x, want_cache=True)
        d1, d2 = (rng.normal(size=(5, 2)).astype(np.float32) for _ in range(2))
        first = model.backward(caches, d1)
        kept = [a.copy() for a in grad_arrays(first)]
        second = model.backward(caches, d2)
        for a, b, k in zip(grad_arrays(first), grad_arrays(second), kept):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, k)
        # the flat buffer train_step hands to Adam is laid out like flat_params
        flat = model.flat_backward(caches, d2)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in grad_arrays(second)]))

    def test_hand_chain_rule_single_parameter(self):
        # one input, one sigmoid unit, BCE: dL/dw = (p - y) * x
        cfg = tiny_config([DenseSpec(1, "sigmoid")], LOSS_BCE, 1, 1)
        model = Model(cfg, dtype=np.float64)
        model.set_weights([[np.array([[0.7]]), np.array([0.2])]])
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
        state = adam_init(model.param_arrays())
        first = None
        for t in range(1, 101):
            probs, caches = model.forward(x, want_cache=True)
            loss, dlogits = loss_and_grad(probs, y, cfg.loss,
                                          model.final_activation)
            if first is None:
                first = loss
            grads = model.backward(caches, dlogits)
            adam_step(model.param_arrays(), grad_arrays(grads), state, t)
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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_truncation_through_pipe_names_layer(self, tmp_path):
        p = tmp_path / "t.ftlw"
        save_weights(p, self.trained_checkpoint())
        r, w = os.pipe()
        try:
            os.write(w, p.read_bytes()[:200])  # inside the first conv weight tensor
            os.close(w)
            with pytest.raises(WeightsFormatError, match=r"layer 0 \(conv1d\)"):
                load_weights(f"/dev/fd/{r}")
        finally:
            os.close(r)

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

    def test_architecture_mismatch_detected(self, tmp_path):
        ckpt = self.trained_checkpoint()
        p = tmp_path / "a.ftlw"
        save_weights(p, ckpt)
        other = default_config("multi")
        with pytest.raises(WeightsFormatError, match="architecture"):
            load_weights(p, expect=other)

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

    def test_file_size_formula(self, tmp_path):
        ckpt = self.trained_checkpoint()
        p = tmp_path / "s.ftlw"
        save_weights(p, ckpt)
        spec_bytes = {Conv1dSpec: 14, MaxPool1dSpec: 9, GlobalAvgPoolSpec: 1,
                      DenseSpec: 6}
        header = 4 + 8 + sum(spec_bytes[type(s)] for s in ckpt.config.layers)
        params = sum(a.size for layer in ckpt.weights for a in layer)
        assert p.stat().st_size == header + params * 4 + 8