"""Training loop, checkpoint selection, metrics and prediction."""

import importlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bytecap import nn
from bytecap.nn import Checkpoint, default_config, load_weights, save_weights
from bytecap.train import evaluate, metrics_from_confusion, predict, train
from bytecap.views import (
    DatasetFile,
    HeaderCategory,
    ViewKind,
    build_dataset,
    class_catalog,
    train_val_split,
)
from test_nn import oracle_conv_backward, oracle_conv_forward, oracle_loss_and_grad

train_module = importlib.import_module("bytecap.train")  # the package re-exports train()


def toy_data(n=40, input_len=115, seed=0):
    """Two linearly separable byte-level classes."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, input_len, 1), dtype=np.float32)
    y = np.arange(n) % 2
    x[y == 0] = rng.uniform(0.0, 0.45, size=x[y == 0].shape).astype(np.float32)
    x[y == 1] = rng.uniform(0.55, 1.0, size=x[y == 1].shape).astype(np.float32)
    return x, y.astype(np.int64)


def byte_dataset(task, n, input_len=115, seed=0):
    """n byte rows whose band of byte values follows the label, held as the
    strided (N, input_len) view of a record matrix that read_dataset gives."""
    names = class_catalog(task)
    band = 256 // len(names)
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % len(names)
    records = np.zeros((n, 2 + input_len), dtype=np.uint8)
    records[:, 2:] = rng.integers(0, band, (n, input_len)) + labels[:, None] * band
    return DatasetFile(ViewKind.PACKET, HeaderCategory.ALL_HEADERS, input_len, names,
                       data=records[:, 2:], labels=labels)


def sans_clock(hist):
    return [(e.epoch, e.train_loss, e.train_acc, e.val_loss, e.val_acc)
            for e in hist.epochs]


class TestTrainLoop:
    def test_best_epoch_is_argmax_first_on_tie(self):
        # at learning rate 0 the weights never move, so every epoch ties
        cfg = default_config("binary", epochs=4, seed=3, learning_rate=0.0)
        data = toy_data(24)
        ckpt, hist = train(cfg, data, data)
        assert len({e.val_acc for e in hist.epochs}) == 1
        assert ckpt.best_epoch == 0

    def test_best_epoch_selection_matches_history(self):
        cfg = default_config("binary", epochs=6, seed=3)
        data = toy_data(24)
        ckpt, hist = train(cfg, data, data)
        assert len(hist.epochs) == 6
        accs = [e.val_acc for e in hist.epochs]
        assert ckpt.best_epoch == accs.index(max(accs))
        assert ckpt.best_val_accuracy == max(accs)

    def test_overfit_forty_samples(self):
        # paper regime: batch 20, up to 50 epochs, train == validation
        cfg = default_config("binary", epochs=50, seed=1)
        data = toy_data(40)
        ckpt, hist = train(cfg, data, data, early_stop=True)
        assert ckpt.best_val_accuracy == 1.0
        assert len(hist.epochs) <= 50
        assert evaluate(ckpt, data).accuracy == 1.0

    def test_deterministic_given_seed(self, tmp_path):
        cfg = default_config("binary", epochs=3, seed=9)
        data = toy_data(30, seed=2)

        def run(path):
            ckpt, hist = train(cfg, data, data)
            save_weights(path, ckpt)
            return hist

        h1 = run(tmp_path / "a.ftlw")
        h2 = run(tmp_path / "b.ftlw")
        assert sans_clock(h1) == sans_clock(h2)
        assert (tmp_path / "a.ftlw").read_bytes() == (tmp_path / "b.ftlw").read_bytes()

    def test_missing_class_warns(self):
        cfg = default_config("binary", epochs=1)
        x, _ = toy_data(10)
        y = np.zeros(10, dtype=np.int64)
        with pytest.warns(UserWarning, match="absent"):
            train(cfg, (x, y), (x, y))

    def test_shape_mismatch_rejected(self):
        cfg = default_config("binary", epochs=1)
        x, y = toy_data(10, input_len=64)
        with pytest.raises(ValueError, match="length"):
            train(cfg, (x, y), (x, y))

    def test_empty_set_rejected(self):
        cfg = default_config("binary", epochs=1)
        x, y = toy_data(10)
        with pytest.raises(ValueError, match="non-empty"):
            train(cfg, (x[:0], y[:0]), (x, y))

    def test_paper_and_standard_pairing_agree_on_argmax(self):
        # 2-class softmax: identical weights give identical predictions
        # whether the loss was BCE (reference pairing) or CCE (standard)
        data = toy_data(30)
        paper = default_config("binary", pairing="paper", epochs=2, seed=4)
        standard = default_config("binary", pairing="standard", epochs=2, seed=4)
        ckpt_p, _ = train(paper, data, data)
        ckpt_s, _ = train(standard, data, data)
        ckpt_s.weights = ckpt_p.weights  # same weights, different loss config
        x, y = data
        model_p, model_s = ckpt_p.to_model(), ckpt_s.to_model()
        pred_p = model_p.forward(x).argmax(axis=1)
        pred_s = model_s.forward(x).argmax(axis=1)
        assert np.array_equal(pred_p, pred_s)


class TestReadLength:
    """Training on the bytes the output reads gives the bits of training on
    whole samples."""

    @pytest.mark.parametrize("profile,input_len", [("prose", 115), ("table", 20)])
    @pytest.mark.parametrize("task,pairing", [("binary", "paper"), ("multi", "paper"),
                                              ("binary", "standard")])
    def test_cut_trains_as_whole_samples(self, task, pairing, profile, input_len,
                                         tmp_path, monkeypatch):
        cfg = default_config(task, profile, pairing, epochs=2, seed=7)
        train_ds = byte_dataset(task, 173, input_len, seed=1)
        val_ds = byte_dataset(task, 300, input_len, seed=2)

        def run(name):
            ckpt, history = train(cfg, train_ds, val_ds)
            save_weights(tmp_path / name, ckpt)
            return (tmp_path / name).read_bytes(), sans_clock(history)

        cut = run("cut.ftlw")
        with monkeypatch.context() as m:
            m.setattr(nn, "_read_length", lambda plan, input_len: input_len)
            assert nn.Model(cfg).read_length == input_len
            whole = run("whole.ftlw")
        assert cut == whole


class TestOracleKernels:
    """Training with the earlier kernels patched in gives the same bits."""

    @pytest.mark.parametrize("task,pairing", [("binary", "paper"), ("multi", "paper"),
                                              ("binary", "standard")])
    def test_one_epoch_matches_oracle_kernels(self, task, pairing, tmp_path, monkeypatch):
        cfg = default_config(task, pairing=pairing, epochs=1, seed=11)
        rng = np.random.default_rng(11)
        y = np.arange(200) % cfg.class_count
        x = (rng.random((200, 115, 1)) * 0.5 + y[:, None, None] / (2 * cfg.class_count))
        data, val = (x[:160].astype(np.float32), y[:160]), (x[160:].astype(np.float32), y[160:])

        def run(name):
            ckpt, history = train(cfg, data, val)
            save_weights(tmp_path / name, ckpt)
            return ((tmp_path / name).read_bytes(),
                    [(e.train_loss, e.train_acc, e.val_loss, e.val_acc) for e in history.epochs])

        shipped = run("shipped.ftlw")
        with monkeypatch.context() as m:
            conv = nn._KINDS[nn.Conv1dSpec]
            m.setitem(nn._KINDS, nn.Conv1dSpec, conv._replace(forward=oracle_conv_forward,
                                                              backward=oracle_conv_backward))
            m.setattr(train_module, "loss_and_grad", oracle_loss_and_grad)
            oracle = run("oracle.ftlw")
        assert shipped == oracle


class TestByteRows:
    """A DatasetFile trains and evaluates from its uint8 rows, scaled per batch."""

    @pytest.mark.parametrize("task,pairing", [("binary", "paper"), ("multi", "paper"),
                                              ("binary", "standard")])
    def test_rows_train_and_evaluate_as_their_tensors(self, task, pairing, tmp_path):
        # 173 rows at batch 20 end in a partial batch of 13; 300 validation
        # rows make one full EVAL_BATCH slice and a partial one
        cfg = default_config(task, pairing=pairing, epochs=2, seed=5)
        train_ds, val_ds = byte_dataset(task, 173, seed=1), byte_dataset(task, 300, seed=2)

        def run(name, train_data, val_data):
            ckpt, history = train(cfg, train_data, val_data)
            save_weights(tmp_path / name, ckpt)
            return ckpt, (tmp_path / name).read_bytes(), sans_clock(history)

        ckpt, *from_rows = run("rows.ftlw", train_ds, val_ds)
        _, *from_tensors = run("tensors.ftlw", train_ds.tensors(), val_ds.tensors())
        assert from_rows == from_tensors
        by_rows, by_tensors = evaluate(ckpt, val_ds), evaluate(ckpt, val_ds.tensors())
        assert np.array_equal(by_rows.confusion, by_tensors.confusion)
        assert by_rows.confusion.sum() == 300

    def test_memory_is_bounded_by_the_batch_not_the_dataset(self):
        # a float32 copy of 12,000 rows of 115 bytes is 5.5 MB, well above
        # the ~2.2 MB working set of one EVAL_BATCH forward pass
        n, input_len = 12_000, 115
        ds = byte_dataset("binary", n, input_len, seed=3)
        train_ds = byte_dataset("binary", 2_000, input_len, seed=4)
        val_ds = byte_dataset("binary", n - 2_000, input_len, seed=5)
        cfg = default_config("binary", epochs=1, seed=0)
        tracemalloc.start()
        try:
            ckpt, _ = train(cfg, train_ds, val_ds)
            train_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            evaluate(ckpt, ds)
            evaluate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = n * input_len * 4
        assert train_peak < bound, f"train peak {train_peak} B"
        assert evaluate_peak < bound, f"evaluate peak {evaluate_peak} B"


class TestOneWayIn:
    """Model.forward turns uint8 bytes into model input for every caller."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uint8_batch_is_its_tensors_rows(self, dtype):
        ds = byte_dataset("multi", 37, seed=6)
        model = nn.Model(default_config("multi", seed=3), dtype=dtype)
        want = model.forward(ds.tensors()[0])
        assert want.dtype == dtype
        for rows in (ds.data, ds.data[..., None]):
            got = model.forward(rows)
            assert rows.dtype == np.uint8 and got.dtype == dtype
            assert np.array_equal(got, want)

    def test_predict_is_forward_on_its_tensors_row(self):
        ds = byte_dataset("binary", 9, seed=7)
        ckpt, _ = train(default_config("binary", epochs=1, seed=2), ds, ds)
        x, _ = ds.tensors()
        model = ckpt.to_model()
        for i, sample in enumerate(ds.samples):
            _, probs = predict(ckpt, sample.data)
            assert np.array_equal(probs, model.forward(x[i:i + 1])[0])

    def test_evaluate_scores_with_new_weights(self):
        ds = byte_dataset("binary", 40, seed=8)
        cfg = default_config("binary", seed=2)

        def voting_for(cls):
            # a zero last dense layer whose bias picks `cls` for every row
            weights = nn.Model(cfg).copy_weights()
            weights[-1][0][...] = 0.0
            weights[-1][1][...] = 0.0
            weights[-1][1][cls] = 10.0
            return weights

        ckpt = Checkpoint(config=cfg, weights=voting_for(0), best_epoch=0,
                          best_val_accuracy=0.0)
        assert evaluate(ckpt, ds).confusion[:, 0].sum() == 40
        ckpt.weights = voting_for(1)
        assert evaluate(ckpt, ds).confusion[:, 1].sum() == 40


class TestPairRowCounts:
    """An (X, y) pair is refused unless X is (N, L) or (N, L, 1) with N labels."""

    def test_train_refuses_fewer_labels_than_rows(self):
        x, y = toy_data(6)
        cfg = default_config("binary", epochs=1)
        with pytest.raises(ValueError, match="6 input rows but 4 labels"):
            train(cfg, (x, y[:4]), (x, y))
        with pytest.raises(ValueError, match="6 input rows but 4 labels"):
            train(cfg, (x, y), (x, y[:4]))

    def test_evaluate_refuses_unequal_counts(self):
        x, y = toy_data(6)
        ckpt, _ = train(default_config("binary", epochs=1), (x, y), (x, y))
        with pytest.raises(ValueError, match="6 input rows but 4 labels"):
            evaluate(ckpt, (x, y[:4]))
        with pytest.raises(ValueError, match="4 input rows but 6 labels"):
            evaluate(ckpt, (x[:4], y))

    @pytest.mark.parametrize("rank", [1, 4])
    def test_rank_outside_two_and_three_is_refused(self, rank):
        x, y = toy_data(6)
        rows = x.reshape(-1) if rank == 1 else x[..., None]
        with pytest.raises(ValueError, match=f"got a {rank}-dim array"):
            train(default_config("binary", epochs=1), (rows, y), (x, y))

    @pytest.mark.parametrize("shape", [(6, 1), (6, 2), (1, 6)])
    def test_train_refuses_labels_that_are_not_one_dim(self, shape):
        x, y = toy_data(6)
        labels = np.resize(y, shape)
        cfg = default_config("binary", epochs=1)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            train(cfg, (x, labels), (x, y))
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            train(cfg, (x, y), (x, labels))

    @pytest.mark.parametrize("shape", [(6, 1), (6, 2)])
    def test_evaluate_refuses_labels_that_are_not_one_dim(self, shape):
        x, y = toy_data(6)
        ckpt, _ = train(default_config("binary", epochs=1), (x, y), (x, y))
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            evaluate(ckpt, (x, np.resize(y, shape)))


@pytest.mark.parametrize("name, value, rule", [
    ("learning_rate", float("nan"), "must be finite"),
    ("learning_rate", float("inf"), "must be finite"),
    ("epsilon", float("nan"), "must be finite and > 0"),
    ("epsilon", 0.0, "must be finite and > 0"),
    ("epsilon", -1e-7, "must be finite and > 0"),
    ("beta1", 1.0, r"must lie in \[0, 1\)"),
    ("beta1", -0.1, r"must lie in \[0, 1\)"),
    ("beta2", float("nan"), r"must lie in \[0, 1\)"),
    ("beta2", 1.5, r"must lie in \[0, 1\)"),
    ("epochs", 0, "must be >= 1"),
    ("batch_size", -3, "must be >= 1")])
def test_config_refuses_settings_that_cannot_train(name, value, rule):
    # each of these once trained every weight into NaN, or not at all
    with pytest.raises(ValueError, match=f"{name} {rule}, got {value!r}"):
        default_config("binary", "table", **{name: value})
    cfg = replace(default_config("binary", "table", epochs=1), **{name: value})
    data = toy_data(4, input_len=20)
    with pytest.raises(ValueError, match=f"{name} {rule}"):
        train(cfg, data, data)


class TestMetrics:
    def test_accuracy_fraction(self):
        cm = np.array([[5, 1], [1, 3]])
        rep = metrics_from_confusion(cm)
        assert rep.accuracy == pytest.approx(0.8)

    def test_weighted_f1_hand_example(self):
        # supports {3, 1}, per-class f1 {1.0, 0.5} -> 0.875
        cm = np.array([[3, 0], [1, 1]])
        rep = metrics_from_confusion(cm)
        assert rep.f1[0] == pytest.approx(2 * 1.0 * 0.75 / 1.75)  # p=0.75, r=1
        # craft exact f1 values instead via a cleaner matrix
        cm = np.array([[3, 0, 0], [0, 1, 2], [0, 0, 0]])
        rep = metrics_from_confusion(cm)
        assert rep.f1[0] == 1.0
        assert rep.support.tolist() == [3, 3, 0]

    def test_weighted_f1_formula_direct(self):
        cm = np.array([[3, 0], [0, 1]])
        rep = metrics_from_confusion(cm)
        assert rep.f1.tolist() == [1.0, 1.0]
        # force per-class f1 {1.0, 0.5} with support {3, 1}: needs fp for
        # class 1 without touching class 0 support; use a 3-class matrix
        cm = np.array([[3, 0, 0],
                       [0, 1, 1],
                       [0, 1, 0]])
        rep = metrics_from_confusion(cm)
        assert rep.support.tolist() == [3, 2, 1]

    def test_all_one_class_balanced(self):
        cm = np.array([[5, 0], [5, 0]])
        rep = metrics_from_confusion(cm)
        assert rep.accuracy == 0.5
        assert rep.recall[0] == 1.0 and rep.recall[1] == 0.0
        assert rep.precision[1] == 0.0  # zero denominator yields zero

    def test_consistency_random_confusions(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = int(rng.integers(2, 8))
            cm = rng.integers(0, 30, size=(c, c))
            rep = metrics_from_confusion(cm)
            total = cm.sum()
            assert rep.accuracy == pytest.approx(np.trace(cm) / total)
            assert rep.support.sum() == total
            want_wf1 = sum(rep.support[i] / total * rep.f1[i] for i in range(c))
            assert rep.weighted_f1 == pytest.approx(want_wf1)
            assert 0 <= rep.accuracy <= 1 and 0 <= rep.weighted_f1 <= 1
            assert np.all((rep.f1 >= 0) & (rep.f1 <= 1))


class TestPredict:
    def make_checkpoint(self):
        cfg = default_config("binary", epochs=3, seed=5)
        data = toy_data(24)
        ckpt, _ = train(cfg, data, data)
        return ckpt

    def test_argmax_matches_class(self):
        ckpt = self.make_checkpoint()
        sample = bytes(range(115))
        cls, probs = predict(ckpt, sample)
        assert cls == int(np.argmax(probs))
        assert probs.shape == (2,)

    def test_roundtrip_identical_prediction(self, tmp_path):
        ckpt = self.make_checkpoint()
        save_weights(tmp_path / "w.ftlw", ckpt)
        back = load_weights(tmp_path / "w.ftlw")
        sample = bytes([7] * 115)
        c1, p1 = predict(ckpt, sample)
        c2, p2 = predict(back, sample)
        assert c1 == c2 and np.array_equal(p1, p2)

    def test_length_mismatch(self):
        ckpt = self.make_checkpoint()
        with pytest.raises(ValueError, match="115"):
            predict(ckpt, b"\x00" * 10)


class TestEvaluateOnDataset:
    def test_full_pipeline_metrics(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.SESSION,
                           HeaderCategory.ALL_HEADERS, 115, "binary")
        train_ds, val_ds = train_val_split(ds, 0.2, seed=0)
        cfg = default_config("binary", epochs=10, seed=0)
        ckpt, _ = train(cfg, train_ds, val_ds, early_stop=True)
        rep = evaluate(ckpt, val_ds)
        assert rep.class_names == ["benign", "malicious"]
        assert rep.confusion.sum() == len(val_ds.samples)
        assert rep.accuracy == 1.0  # synthetic classes are trivially separable

    @pytest.mark.filterwarnings("ignore:classes .* absent")
    def test_class_count_mismatch(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.SESSION,
                           HeaderCategory.ALL_HEADERS, 115, "binary")
        cfg = default_config("multi", epochs=1)
        data = (np.zeros((4, 115, 1), dtype=np.float32),
                np.zeros(4, dtype=np.int64))
        ckpt, _ = train(cfg, data, data)
        with pytest.raises(ValueError, match="classes"):
            evaluate(ckpt, ds)