"""Training loop with best-epoch weight retention, plus evaluation metrics.

One rule: a set is checked once, by `_rows_and_labels`, and then only
`nn`'s cores run on it, which check nothing. `train`'s steps, its
per-epoch validation pass (`_loss_acc`) and `evaluate` all run that way;
`predict`, given one raw sample, goes through the public `Model.forward`.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .nn import Checkpoint, Model, ModelConfig, _adam_update, _loss_and_grad
from .views import DatasetFile

EVAL_BATCH = 256


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_records(self) -> list[str]:
        return [json.dumps(vars(e), sort_keys=True) for e in self.epochs]

    def to_text_table(self) -> str:
        lines = [f"{'epoch':>5} {'train_loss':>10} {'train_acc':>9} "
                 f"{'val_loss':>10} {'val_acc':>9} {'seconds':>8}"]
        for e in self.epochs:
            lines.append(f"{e.epoch:>5} {e.train_loss:>10.4f} {e.train_acc:>9.4f} "
                         f"{e.val_loss:>10.4f} {e.val_acc:>9.4f} {e.seconds:>8.3f}")
        return "\n".join(lines)


@dataclass
class MetricsReport:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    weighted_f1: float
    confusion: np.ndarray
    class_names: list[str]

    def to_text_table(self) -> str:
        lines = [f"accuracy     {self.accuracy:.4f}",
                 f"weighted f1  {self.weighted_f1:.4f}",
                 "",
                 f"{'class':<16} {'precision':>9} {'recall':>7} {'f1':>7} {'support':>8}"]
        for i, name in enumerate(self.class_names):
            lines.append(f"{name:<16} {self.precision[i]:>9.4f} {self.recall[i]:>7.4f} "
                         f"{self.f1[i]:>7.4f} {self.support[i]:>8d}")
        return "\n".join(lines)

    def to_records(self) -> list[str]:
        recs = [json.dumps({"accuracy": self.accuracy,
                            "weighted_f1": self.weighted_f1}, sort_keys=True)]
        for i, name in enumerate(self.class_names):
            recs.append(json.dumps({
                "class": name,
                "precision": float(self.precision[i]),
                "recall": float(self.recall[i]),
                "f1": float(self.f1[i]),
                "support": int(self.support[i]),
            }, sort_keys=True))
        return recs

    def confusion_table(self) -> str:
        width = max(8, max(len(n) for n in self.class_names) + 1)
        head = " " * width + "".join(f"{n[:width - 1]:>{width}}" for n in self.class_names)
        lines = [head]
        for i, name in enumerate(self.class_names):
            row = "".join(f"{int(v):>{width}}" for v in self.confusion[i])
            lines.append(f"{name[:width - 1]:<{width}}" + row)
        return "\n".join(lines)


def _rows_and_labels(data, model: Model):
    """A set's rows as the (N, L, 1) view `Model._batch` makes, uncast and
    uncopied (a DatasetFile's uint8 bytes as held, an (X, y) pair's X as
    given), and its int64 labels, one per row, each in [0, class_count):
    checked here once, so the cores may run on any slice of them."""
    cfg = model.config
    if isinstance(data, DatasetFile):
        if data.sample_len != cfg.input_len:
            raise ValueError(f"dataset sample length {data.sample_len} != "
                             f"model input length {cfg.input_len}")
        if len(data.class_names) != cfg.class_count:
            raise ValueError(f"dataset has {len(data.class_names)} classes, "
                             f"model expects {cfg.class_count}")
        data = data.data.reshape(-1, cfg.input_len), data.labels
    x, y = data
    x, y = model._batch(x), np.asarray(y, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-dim (N,), got shape {y.shape}")
    if len(x) != len(y):
        raise ValueError(f"{len(x)} input rows but {len(y)} labels")
    if y.size and (y.min() < 0 or y.max() >= cfg.class_count):
        raise ValueError("label index out of range")
    return x, y


def _forward_batches(model: Model, x):
    """(rows, probabilities) for each EVAL_BATCH-row slice of `x`, rows
    `_rows_and_labels` has checked, in order."""
    for start in range(0, len(x), EVAL_BATCH):
        rows = slice(start, start + EVAL_BATCH)
        yield rows, model._forward(x[rows], False)


def _loss_acc(model: Model, x, y, loss: str) -> tuple[float, float]:
    total_loss = 0.0
    correct = 0
    for rows, probs in _forward_batches(model, x):
        yb = y[rows]
        batch_loss, _ = _loss_and_grad(probs, yb, loss, model.final_activation)
        total_loss += batch_loss * len(yb)
        correct += int((probs.argmax(axis=1) == yb).sum())
    n = len(y)
    return total_loss / n, correct / n


def train(config: ModelConfig, train_data, val_data, *,
          early_stop: bool = False) -> tuple[Checkpoint, TrainHistory]:
    """Run the epoch loop and return the best-validation-accuracy weights.

    Each set is a DatasetFile or an (X, y) pair, one label per row. Batches
    of either go to the model as held, a DatasetFile's as uint8 bytes that
    the forward pass scales, so no copy of a set is made, the memory beyond
    the sets is bounded by the batch, and the result equals training on
    `tensors()` bit for bit.

    The sets are checked once, here, for what the public calls would
    check in each batch: row and label counts, the sample shape and the
    label range. Each step then runs those calls' cores (`Model._forward`,
    `nn._loss_and_grad`, `Model._backward`, `nn._adam_update`) on one
    gradient buffer and one pair of Adam scratch arrays, and each
    validation pass `Model._forward` and `nn._loss_and_grad`; the result
    equals, bit for bit, a loop over the public calls.

    Shuffling is seeded per config; batches keep the trailing partial batch.
    With early_stop the loop ends once validation accuracy hits 1.0 (the
    metric's maximum); otherwise all epochs run and the best epoch's
    weights are returned either way.
    """
    model = Model(config)
    x_train, y_train = _rows_and_labels(train_data, model)
    x_val, y_val = _rows_and_labels(val_data, model)
    if len(y_train) == 0 or len(y_val) == 0:
        raise ValueError("train and validation sets must be non-empty")
    present = np.unique(y_train)
    if len(present) < config.class_count:
        missing = sorted(set(range(config.class_count)) - set(present.tolist()))
        warnings.warn(f"classes {missing} absent from training set")

    # Adam's moments, and the gradient buffer whose per-layer views are `grads`
    m, v = np.zeros_like(model.flat_params), np.zeros_like(model.flat_params)
    grad = np.empty_like(model.flat_params)
    grads = model._carve(grad)
    scratch = (np.empty_like(grad), np.empty_like(grad))
    tiny = np.finfo(model.dtype).tiny
    activation = model.final_activation
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_acc = -1.0  # below every accuracy, so epoch 0 sets the best weights
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(y_train))
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            yb = y_train[idx]
            step += 1
            probs, caches = model._forward(x_train[idx], True)
            batch_loss, dlogits = _loss_and_grad(probs, yb, config.loss, activation)
            model._backward(caches, dlogits, grads)
            _adam_update(model.flat_params, grad, m, v, step, config.learning_rate,
                         config.beta1, config.beta2, config.epsilon, scratch, tiny)
            epoch_loss += batch_loss * len(yb)
            epoch_correct += np.count_nonzero(probs.argmax(axis=1) == yb)
        val_loss, val_acc = _loss_acc(model, x_val, y_val, config.loss)
        history.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=epoch_loss / len(y_train),
            train_acc=epoch_correct / len(y_train),
            val_loss=val_loss,
            val_acc=val_acc,
            seconds=time.perf_counter() - t0,
        ))
        if val_acc > best_acc:  # strict: first epoch wins ties
            best_acc = val_acc
            best_weights = model.copy_weights()
            best_epoch = epoch
        if early_stop and val_acc >= 1.0:
            break
    ckpt = Checkpoint(config=config, weights=best_weights,
                      best_epoch=best_epoch, best_val_accuracy=best_acc)
    return ckpt, history


def metrics_from_confusion(confusion, class_names=None) -> MetricsReport:
    """Accuracy, per-class precision/recall/f1 and support-weighted f1.

    Zero denominators yield zero scores rather than NaN.
    """
    cm = np.asarray(confusion, dtype=np.int64)
    c = cm.shape[0]
    if class_names is None:
        class_names = [f"class_{i}" for i in range(c)]
    total = cm.sum()
    tp = np.diag(cm).astype(np.float64)
    pred_totals = cm.sum(axis=0).astype(np.float64)
    true_totals = cm.sum(axis=1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(true_totals > 0, tp / true_totals, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / np.where(pr > 0, pr, 1), 0.0)
    support = true_totals.astype(np.int64)
    accuracy = float(tp.sum() / total) if total else 0.0
    weighted_f1 = float((support / total * f1).sum()) if total else 0.0
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, support=support, weighted_f1=weighted_f1,
                         confusion=cm, class_names=list(class_names))


def evaluate(ckpt: Checkpoint, data) -> MetricsReport:
    """Run the checkpoint over a dataset and tabulate the confusion matrix.

    `data` is a DatasetFile or an (X, y) pair, checked once and then fed
    EVAL_BATCH rows at a time to the core of the checkpoint's shared model
    (as in `predict`), a DatasetFile's as uint8 bytes that the forward pass
    scales: no float32 copy is made.
    """
    model = ckpt.shared_model()
    x, y = _rows_and_labels(data, model)
    c = ckpt.config.class_count
    pred = np.zeros(len(y), dtype=np.int64)
    for rows, probs in _forward_batches(model, x):
        pred[rows] = probs.argmax(axis=1)  # ties: lowest class
    cm = np.bincount(y * c + pred, minlength=c * c).reshape(c, c)
    names = data.class_names if isinstance(data, DatasetFile) else None
    return metrics_from_confusion(cm, names)


def _warmup(config: ModelConfig):
    """One discarded epoch of `train` on one random uint8 row per class of
    `config`, labelled 0 to C-1, so every class is present: first-use costs
    are then paid here, not in a timed phase."""
    classes = config.class_count
    rows = (np.random.default_rng(0).integers(0, 256, (classes, config.input_len),
                                              dtype=np.uint8), np.arange(classes))
    train(replace(config, epochs=1), rows, rows)


def predict(ckpt: Checkpoint, sample_bytes: bytes) -> tuple[int, np.ndarray]:
    """Classify one raw byte vector of the model's input length, with the
    checkpoint's shared model, which scales the bytes."""
    cfg = ckpt.config
    if len(sample_bytes) != cfg.input_len:
        raise ValueError(f"sample has {len(sample_bytes)} bytes, "
                         f"model expects {cfg.input_len}")
    probs = ckpt.shared_model().forward(np.frombuffer(sample_bytes, np.uint8)[None])[0]
    return int(probs.argmax()), probs
