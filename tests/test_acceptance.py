"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines
while running). Every tolerance is asserted exactly as stated.
"""

import random
import time
import zlib

import numpy as np

from bytecap.bench import time_pipelines
from bytecap.cli import main as cli_main
from bytecap.nn import (
    Conv1dSpec,
    DenseSpec,
    GlobalAvgPoolSpec,
    MaxPool1dSpec,
    Model,
    ModelConfig,
    default_config,
    load_weights,
    save_weights,
)
from bytecap.pcap import dissect, read_pcap_records, write_pcap
from bytecap.train import evaluate, metrics_from_confusion, train
from bytecap.views import (
    DatasetFile,
    HeaderCategory,
    ViewKind,
    build_dataset,
    read_dataset,
    split_view,
    strip_headers,
    train_val_split,
    write_dataset,
)
from conftest import ipv4_frame, ipv6_frame, arp_frame
from test_nn import (
    analytic_param_grads,
    f64_twin,
    fd_param_grads,
    rel_err,
    smooth_draw,
)
from test_views import brute_force_groups, pair

LOSS_BCE = "binary_cross_entropy"
LOSS_CCE = "categorical_cross_entropy"


def report(num, detail):
    print(f"ACCEPTANCE {num:>2} PASS  {detail}")


def test_c01_shape_reproduction():
    t0 = time.perf_counter()
    for task, head in (("binary", 2), ("multi", 12)):
        cfg = default_config(task, "prose")
        assert cfg.input_len == 115
        assert cfg.output_shapes() == [(18, 64), (3, 64), (1, 64), (64,), (head,)]
        # the alternative reading reproduces the same column
        assert default_config(task, "table").output_shapes() == \
               [(18, 64), (3, 64), (1, 64), (64,), (head,)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"prose and table profiles walk 18x64 -> 3x64 -> 1x64 -> 64 -> 2/12 "
              f"({elapsed:.3f}s)")


def test_c02_gradient_correctness_f32_battery():
    t0 = time.perf_counter()
    cases = {
        "dense_softmax_cce": ModelConfig(6, (DenseSpec(3, "softmax"),), LOSS_CCE, 3),
        "dense_sigmoid_cce": ModelConfig(6, (DenseSpec(3, "sigmoid"),), LOSS_CCE, 3),
        "dense_softmax_bce": ModelConfig(6, (DenseSpec(2, "softmax"),), LOSS_BCE, 2),
        "dense_sigmoid_bce": ModelConfig(6, (DenseSpec(2, "sigmoid"),), LOSS_BCE, 2),
        "conv1d": ModelConfig(9, (Conv1dSpec(2, 3, 2), DenseSpec(2, "softmax")),
                              LOSS_CCE, 2),
        "max_pool1d": ModelConfig(8, (Conv1dSpec(2, 2, 1, "none"),
                                      MaxPool1dSpec(3, 2), DenseSpec(2, "sigmoid")),
                                  LOSS_BCE, 2),
        "global_avg_pool1d": ModelConfig(7, (Conv1dSpec(2, 3, 1, "none"),
                                             GlobalAvgPoolSpec(),
                                             DenseSpec(2, "softmax")),
                                         LOSS_CCE, 2),
    }
    # f32 analytic gradients against the FD oracle; the oracle itself is
    # evaluated on a float64 twin of the same weights so that central
    # differences at the stated step are not drowned by f32 rounding
    h = 1e-3
    draws = 100
    worst = 0.0
    for name, cfg in cases.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(draws):
            model = Model(cfg, dtype=np.float32)
            for p in model.param_arrays():
                p += rng.normal(scale=0.3, size=p.shape).astype(np.float32)
            x, y = smooth_draw(model, rng, h, batch=2)
            err = rel_err(analytic_param_grads(model, x, y),
                          fd_param_grads(f64_twin(model), x, y, h))
            worst = max(worst, err)
            assert err < 1e-2, f"{name}: relative error {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"{draws} draws x {len(cases)} layer/loss configs at f32, "
              f"worst relative error {worst:.2e} ({elapsed:.1f}s)")


def test_c03_overfit_forty_samples(corpus_small):
    t0 = time.perf_counter()
    ds = build_dataset(corpus_small, ViewKind.PACKET,
                       HeaderCategory.ALL_HEADERS, 115, "binary")
    per_class = [[s for s in ds.samples if s.label == c][:20] for c in (0, 1)]
    assert all(len(g) == 20 for g in per_class)
    forty = DatasetFile(ds.view, ds.category, ds.sample_len, ds.class_names,
                        per_class[0] + per_class[1])
    cfg = default_config("binary", epochs=50, seed=0)  # batch 20 default
    ckpt, hist = train(cfg, forty, forty, early_stop=True)
    assert len(hist.epochs) <= 50
    assert ckpt.best_val_accuracy == 1.0
    assert evaluate(ckpt, forty).accuracy == 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"40-sample overfit hits accuracy 1.0 at epoch "
              f"{ckpt.best_epoch} ({elapsed:.1f}s)")


def test_c04_synthetic_separability_grid(corpus_acceptance):
    t0 = time.perf_counter()
    session_count = sum(
        len(split_view([(r, dissect(r)) for r in read_pcap_records(p)[1]],
                       ViewKind.SESSION))
        for p, _ in corpus_acceptance)
    assert session_count >= 400
    results = []
    for view in ViewKind:
        for cat in HeaderCategory:
            ds = build_dataset(corpus_acceptance, view, cat, 115, "binary")
            train_ds, val_ds = train_val_split(ds, 0.2, seed=1)
            cfg = default_config("binary", epochs=15, seed=1)
            ckpt, _ = train(cfg, train_ds, val_ds, early_stop=True)
            rep = evaluate(ckpt, val_ds)
            results.append((view.value, cat.value, rep.accuracy, rep.weighted_f1))
            assert rep.accuracy >= 0.95, (view, cat, rep.accuracy)
            assert rep.weighted_f1 >= 0.95, (view, cat, rep.weighted_f1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    lo_acc = min(r[2] for r in results)
    lo_f1 = min(r[3] for r in results)
    report(4, f"12/12 view x category cells, {session_count} sessions, "
              f"min accuracy {lo_acc:.3f}, min weighted f1 {lo_f1:.3f} "
              f"({elapsed:.1f}s)")


def test_c05_splitter_matches_bruteforce_oracle(tmp_path):
    t0 = time.perf_counter()
    rng = random.Random(17)
    for file_no in range(50):
        frames = []
        hosts = [(10, 0, 0, i) for i in range(rng.randrange(2, 6))]
        for i in range(rng.randrange(20, 60)):
            src, dst = rng.sample(hosts, 2)
            frames.append(ipv4_frame(
                src=src, dst=dst,
                sport=rng.choice([1000, 2000, 3000]),
                dport=rng.choice([80, 443]),
                proto=rng.choice([6, 17]),
                payload=bytes(rng.randrange(256) for _ in range(rng.randrange(20)))))
        p = tmp_path / f"r{file_no}.pcap"
        write_pcap(p, [(i, 0, f) for i, f in enumerate(frames)])
        _, recs = read_pcap_records(p)
        pairs = [(rec, dissect(rec)) for rec in recs]
        for view in (ViewKind.SESSION, ViewKind.FLOW):
            units = split_view(pairs, view)
            got = sorted(sorted(r.index for r, _ in u) for u in units.values())
            want = sorted(brute_force_groups(pairs, view))
            assert got == want, f"file {file_no} {view}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, f"50 random pcaps: session/flow units match the pairwise "
              f"oracle exactly ({elapsed:.1f}s)")


def test_c06_header_category_algebra():
    t0 = time.perf_counter()
    rng = random.Random(31)
    checked = 0
    for _ in range(10_000):
        kind = rng.random()
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        if kind < 0.6:
            frame = ipv4_frame(payload=payload, proto=rng.choice([6, 17, 1]),
                               vlan_tags=rng.randrange(3),
                               ihl=rng.choice([5, 5, 5, 6, 8]),
                               src=tuple(rng.randrange(256) for _ in range(4)),
                               dst=tuple(rng.randrange(256) for _ in range(4)))
        elif kind < 0.85:
            frame = ipv6_frame(payload=payload,
                               next_header=rng.choice([6, 17, 0]))
        else:
            frame = arp_frame()
        rec, d = pair(frame)
        out = {cat: strip_headers(frame, d, cat) for cat in HeaderCategory}
        # exact slice definitions, rederived from the dissection offsets
        assert out[HeaderCategory.ALL_HEADERS] == frame
        assert out[HeaderCategory.WITHOUT_ETHERNET] == frame[d.eth_end:]
        if d.ip_end is not None:
            assert out[HeaderCategory.ONLY_ETHERNET] == \
                   frame[:d.eth_end] + frame[d.ip_end:]
            assert out[HeaderCategory.NO_HEADERS] == frame[d.ip_end:]
        else:
            assert out[HeaderCategory.ONLY_ETHERNET] == frame
            assert out[HeaderCategory.NO_HEADERS] == frame[d.eth_end:]
        lens = {cat: len(v) for cat, v in out.items()}
        assert lens[HeaderCategory.NO_HEADERS] <= lens[HeaderCategory.ONLY_ETHERNET] \
               <= lens[HeaderCategory.ALL_HEADERS]
        assert lens[HeaderCategory.NO_HEADERS] <= lens[HeaderCategory.WITHOUT_ETHERNET] \
               <= lens[HeaderCategory.ALL_HEADERS]
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"{checked} random frames satisfy the slice algebra "
              f"({elapsed:.1f}s)")


def test_c07_serialization_roundtrips(corpus_small, tmp_path):
    ds = build_dataset(corpus_small, ViewKind.FLOW,
                       HeaderCategory.WITHOUT_ETHERNET, 115, "binary")
    p1, p2 = tmp_path / "a.ftld", tmp_path / "b.ftld"
    write_dataset(p1, ds)
    write_dataset(p2, read_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes()

    cfg = default_config("binary", epochs=3, seed=2)
    tr, va = train_val_split(ds, 0.2, seed=2)
    ckpt, _ = train(cfg, tr, va)
    w1, w2 = tmp_path / "a.ftlw", tmp_path / "b.ftlw"
    save_weights(w1, ckpt)
    back = load_weights(w1)
    save_weights(w2, back)
    assert w1.read_bytes() == w2.read_bytes()

    x = np.random.default_rng(0).random((16, 115, 1), dtype=np.float32)
    assert np.array_equal(ckpt.to_model().forward(x), back.to_model().forward(x))
    report(7, "dataset and weights files round-trip byte-exactly; "
              "round-tripped checkpoint predicts bit-identically")


def test_c08_metrics_against_hand_formula():
    def hand_metrics(cm):
        # independent scalar-loop implementation of the definitions
        c = len(cm)
        total = sum(sum(row) for row in cm)
        correct = sum(cm[i][i] for i in range(c))
        accuracy = correct / total
        weighted_f1 = 0.0
        for i in range(c):
            tp = cm[i][i]
            fp = sum(cm[r][i] for r in range(c)) - tp
            fn = sum(cm[i][p] for p in range(c)) - tp
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            support = tp + fn
            weighted_f1 += support / total * f1
        return accuracy, weighted_f1

    rng = np.random.default_rng(20)
    for trial in range(20):
        c = int(rng.integers(2, 13))
        cm = rng.integers(0, 40, size=(c, c))
        if cm.sum() == 0:
            cm[0, 0] = 1
        rep = metrics_from_confusion(cm)
        acc, wf1 = hand_metrics(cm.tolist())
        assert abs(rep.accuracy - acc) < 1e-9
        assert abs(rep.weighted_f1 - wf1) < 1e-9
    report(8, "accuracy and weighted f1 match the hand formula on 20 random "
              "confusion matrices to 1e-9")


def test_c09_timing_direction(corpus_bench):
    t0 = time.perf_counter()
    rep = time_pipelines(corpus_bench,
                         [ViewKind.SESSION, ViewKind.FLOW, ViewKind.PACKET],
                         115, "binary", epochs=10, seed=0)
    rows = {r.pipeline: r for r in rep.rows}
    assert set(rows) == {"session", "flow", "packet", "stat-baseline"}
    baseline_total = rows["stat-baseline"].build_s + rows["stat-baseline"].train_s
    for view in ("session", "flow"):
        featureless_total = rows[view].build_s + rows[view].train_s
        assert featureless_total < baseline_total, (
            f"{view}: {featureless_total:.3f}s !< baseline {baseline_total:.3f}s")
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "pipeline,build_s,train_s,test_s,accuracy"
    assert all(len(line.split(",")) == 5 for line in csv.splitlines())
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"session {rows['session'].build_s + rows['session'].train_s:.2f}s "
              f"and flow {rows['flow'].build_s + rows['flow'].train_s:.2f}s "
              f"beat baseline {baseline_total:.2f}s; four columns emitted "
              f"({elapsed:.1f}s)")


def test_c10_command_determinism(corpus_small, tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{p},{n}\n" for p, n in corpus_small))

    def synth(d):
        assert cli_main(["synth", "--out", str(d), "--sessions", "6",
                         "--seed", "21"]) == 0
        return (d / "benign.pcap").read_bytes() + (d / "malicious.pcap").read_bytes()

    assert synth(tmp_path / "s1") == synth(tmp_path / "s2")

    def build(path):
        assert cli_main(["build", "--labels", str(labels), "--view", "flow",
                         "--category", "no-eth", "--n", "115",
                         "--out", str(path)]) == 0
        return path.read_bytes()

    assert build(tmp_path / "d1.ftld") == build(tmp_path / "d2.ftld")

    def train_once(w):
        assert cli_main(["train", str(tmp_path / "d1.ftld"), "--epochs", "3",
                         "--seed", "4", "--out", str(w)]) == 0
        return w.read_bytes()

    assert train_once(tmp_path / "m1.ftlw") == train_once(tmp_path / "m2.ftlw")

    def eval_once(records):
        assert cli_main(["eval", str(tmp_path / "d1.ftld"),
                         str(tmp_path / "m1.ftlw"), "--out", str(records)]) == 0
        return records.read_bytes()

    assert eval_once(tmp_path / "r1.jsonl") == eval_once(tmp_path / "r2.jsonl")
    report(10, "synth, build, train and eval are byte-identical under a "
               "repeated seed")