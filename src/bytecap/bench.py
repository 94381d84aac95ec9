"""Wall-clock comparison: byte-stream pipelines vs a feature-extraction baseline.

The baseline stands in for a classic feature-engineered detector: it
computes a fixed 115-element statistical vector per traffic unit and
trains a dense-only classifier on it. The exact statistics are arbitrary
but deterministic; what the comparison measures is the cost of having a
feature-extraction stage at all. The report labels it "stat-baseline".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .nn import DenseSpec, Model, ModelConfig, adam_init, default_config, pairing_for
from .pcap import PROTO_TCP, PROTO_UDP, L3Kind
from .train import evaluate, train, train_step
from .views import (
    HeaderCategory,
    ViewKind,
    build_dataset,
    class_catalog,
    filter_packets,
    label_index,
    read_capture,
    split_view,
    split_indices,
    train_val_split,
)

FEATURE_COUNT = 115

# Damped-window decay rates for the streaming statistics (per second).
_DECAYS = (0.01, 0.1, 0.5, 1.0, 5.0)


def timed(fn):
    """Run fn() under a monotonic clock; returns (result, seconds)."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _damped(times, values, lam) -> tuple[float, float, float]:
    """Damped count, mean and variance of one value stream at decay `lam`:
    before each new value the running sums fade by exp(-lam * elapsed)."""
    w = s = ss = 0.0
    last_t = None
    for t, v in zip(times, values):
        if last_t is not None:
            d = math.exp(-lam * (t - last_t))
            w *= d
            s *= d
            ss *= d
        last_t = t
        w += 1.0
        s += v
        ss += v * v
    if w == 0.0:
        return 0.0, 0.0, 0.0
    mean = s / w
    return w, mean, max(ss / w - mean * mean, 0.0)


def extract_stat_features(unit, ts_scale: float = 1e-6) -> np.ndarray:
    """Fixed 115-element statistical feature vector for one traffic unit.

    Modelled on Kitsune's damped-window statistics (Mirsky et al.,
    "Kitsune: An Ensemble of Autoencoders for Online Network Intrusion
    Detection", NDSS 2018): damped statistics at 5 decay rates in three
    aggregation scopes (whole unit, per source host, per directed socket),
    then global size/timing stats, header and endpoint summaries,
    per-time-quartile payload histograms and payload byte stats. One walk
    over the (record, dissection) unit gathers per-packet columns; every
    statistic is computed from them. Deterministic for identical input.
    """
    times, lengths, byte_means, payloads, payload_lens = [], [], [], [], []
    eth_ends, ip_lens, tr_lens, protos, ttls = [], [], [], [], []
    hosts, socks = [], []
    for rec, dis in unit:
        data = rec.data
        times.append(rec.timestamp(ts_scale))
        lengths.append(rec.cap_len)
        byte_means.append(sum(data) / len(data) if data else 0.0)
        start = dis.payload_start if dis.payload_start is not None else rec.cap_len
        payloads.append(data[start:])
        payload_lens.append(rec.cap_len - start)
        eth_ends.append(dis.eth_end)
        ip_lens.append(dis.ip_end - dis.ip_start if dis.ip_end is not None else 0)
        tr_lens.append(dis.payload_start - dis.transport_start
                       if dis.payload_start is not None else 0)
        protos.append(dis.proto)
        if dis.ip_start is not None:  # the IPv4 TTL or the IPv6 hop limit
            ttls.append(data[dis.ip_start + (8 if dis.l3_kind is L3Kind.IPV4 else 7)])
        tup = dis.five_tuple
        hosts.append(tup.src_ip if tup else b"")
        socks.append((tup.src_ip, tup.src_port, tup.dst_ip, tup.dst_port, tup.proto)
                     if tup else None)
    n = len(times)
    iats = [t2 - t1 for t1, t2 in zip(times, times[1:])]
    feats: list[float] = []

    for lam in _DECAYS:
        w, lm, lv = _damped(times, lengths, lam)
        _, im, iv = _damped(times[1:], iats, lam)
        _, bm, bv = _damped(times, byte_means, lam)
        feats += [w, lm, lv, im, iv, bm, bv]
    # per source host and per directed socket: the length stream of each
    # key, averaged over keys in first-appearance order
    for keys in (hosts, socks):
        groups: dict = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        streams = [([times[i] for i in g], [lengths[i] for i in g])
                   for g in groups.values()]
        for lam in _DECAYS:
            per_key = [_damped(t, v, lam) for t, v in streams]
            feats += [float(np.mean(col)) for col in zip(*per_key)]

    # Global size and timing stats.
    feats += [float(n), times[-1] - times[0] if n > 1 else 0.0]
    for col in (lengths, payload_lens):
        a = np.asarray(col, dtype=np.float64)
        feats += [float(a.sum()), float(a.mean()), float(a.min()), float(a.max()),
                  float(a.std())]
    ia = np.asarray(iats, dtype=np.float64)
    feats += ([float(ia.mean()), float(ia.min()), float(ia.max()), float(ia.std())]
              if ia.size else [0.0] * 4)

    # Header and endpoint summaries.
    feats += [float(np.mean(eth_ends)), float(np.mean(ip_lens)), float(np.mean(tr_lens))]
    feats.append(sum(p == PROTO_TCP for p in protos) / n)
    feats.append(sum(p == PROTO_UDP for p in protos) / n)
    feats.append(sum(p not in (PROTO_TCP, PROTO_UDP) for p in protos) / n)
    feats.append(float(np.mean(ttls)) if ttls else 0.0)
    ports = [s for s in socks if s is not None]
    for col in (1, 3):  # source, then destination ports
        vals = [s[col] for s in ports]
        feats += ([float(min(vals)), float(max(vals)), float(np.mean(vals))]
                  if vals else [0.0, 0.0, 0.0])
    feats.append(sum(s == socks[0] for s in socks) / n)

    # Per-time-quartile payload histograms, 4 bins each.
    for q in np.array_split(np.arange(n), 4):
        blob = b"".join(payloads[i] for i in q)
        if blob:
            arr = np.frombuffer(blob, dtype=np.uint8)
            hist = np.bincount(arr >> 6, minlength=4)[:4]
            feats += (hist / arr.size).tolist()
        else:
            feats += [0.0] * 4

    # Payload byte value stats.
    all_payload = b"".join(payloads)
    if all_payload:
        arr = np.frombuffer(all_payload, dtype=np.uint8)
        counts = np.bincount(arr, minlength=256)
        probs = counts[counts > 0] / arr.size
        entropy = float(-(probs * np.log2(probs)).sum())
        feats += [float(arr.mean()), float(arr.std()), entropy,
                  float((counts > 0).sum()) / 256.0]
    else:
        feats += [0.0] * 4

    out = np.asarray(feats, dtype=np.float64)
    if out.shape != (FEATURE_COUNT,):
        raise ValueError(f"feature recipe produced shape {out.shape}, "
                         f"expected ({FEATURE_COUNT},)")
    return out


@dataclass
class PipelineTiming:
    pipeline: str
    build_s: float
    train_s: float
    test_s: float
    accuracy: float


@dataclass
class TimingReport:
    rows: list[PipelineTiming] = field(default_factory=list)

    CSV_HEADER = "pipeline,build_s,train_s,test_s,accuracy"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.pipeline},{r.build_s:.6f},{r.train_s:.6f},"
                         f"{r.test_s:.6f},{r.accuracy:.6f}")
        return "\n".join(lines)

    def to_text_table(self) -> str:
        lines = [f"{'pipeline':<14} {'build (s)':>10} {'train (s)':>10} "
                 f"{'test (s)':>9} {'accuracy':>9}"]
        for r in self.rows:
            lines.append(f"{r.pipeline:<14} {r.build_s:>10.3f} {r.train_s:>10.3f} "
                         f"{r.test_s:>9.3f} {r.accuracy:>9.4f}")
        return "\n".join(lines)


def _collect_units(corpus, task):
    """Session units with their capture's ts_scale, and labels, for the
    feature baseline."""
    units = []
    labels = []
    for path, name in corpus:
        label = label_index(name, task)  # same label semantics as build_dataset
        if label is None:
            continue
        scale, pairs = read_capture(path)
        pairs = filter_packets(pairs, ViewKind.SESSION)
        for unit in split_view(pairs, ViewKind.SESSION).values():
            units.append((unit, scale))
            labels.append(label)
    return units, np.asarray(labels, dtype=np.int64)


def _warmup(cfg: ModelConfig):
    """One discarded training step of `cfg`'s model keeps first-use costs
    out of the timed phases."""
    model = Model(cfg)
    x = np.random.default_rng(0).random((4, cfg.input_len, 1), dtype=np.float32)
    train_step(model, adam_init([model.flat_params]), 1, x, np.zeros(4, dtype=np.int64))


def time_pipelines(corpus, views, n, task, *, category=HeaderCategory.ALL_HEADERS,
                   epochs: int = 10, batch: int = 20, seed: int = 0,
                   pairing: str = "paper", profile: str = "prose") -> TimingReport:
    """Time build/train/test per view plus the stat-baseline, serially.

    All pipelines share the split (a fifth of each class held out for
    validation, as in `bytecap train`), the epoch count and the batch
    size. Phases are disjoint and cover the whole run: build includes
    reading, dissection, unit grouping, sample or feature extraction and
    the split. First, `_warmup` runs the views' CNN config once.
    """
    cnn_cfg = default_config(task, profile, pairing, input_len=n,
                             epochs=epochs, batch_size=batch, seed=seed)
    _warmup(cnn_cfg)
    activation, loss = pairing_for(task, pairing)
    class_count = len(class_catalog(task))
    base_cfg = ModelConfig(input_len=FEATURE_COUNT,
                           layers=(DenseSpec(class_count, activation),),
                           loss=loss, class_count=class_count,
                           batch_size=batch, epochs=epochs, seed=seed)

    def build_view(view):
        return lambda: train_val_split(build_dataset(corpus, view, category, n, task),
                                       seed=seed)

    def build_baseline():
        units, labels = _collect_units(corpus, task)
        feats = np.stack([extract_stat_features(u, scale) for u, scale in units])
        train_idx, val_idx = split_indices(labels, seed=seed)
        mu = feats[train_idx].mean(axis=0)
        sd = feats[train_idx].std(axis=0)
        sd[sd == 0] = 1.0
        feats = (feats - mu) / sd
        return ((feats[train_idx], labels[train_idx]),
                (feats[val_idx], labels[val_idx]))

    pipelines = [(view.value, cnn_cfg, build_view(view)) for view in views]
    pipelines.append(("stat-baseline", base_cfg, build_baseline))
    report = TimingReport()
    for name, cfg, build in pipelines:
        (train_set, val_set), build_s = timed(build)
        (ckpt, _), train_s = timed(lambda: train(cfg, train_set, val_set))
        metrics, test_s = timed(lambda: evaluate(ckpt, val_set))
        report.rows.append(PipelineTiming(name, build_s, train_s, test_s,
                                          metrics.accuracy))
    return report
