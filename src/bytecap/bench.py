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
from .pcap import PROTO_TCP, PROTO_UDP
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


def _stats5(values) -> list[float]:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        return [0.0] * 5
    return [float(a.sum()), float(a.mean()), float(a.min()), float(a.max()),
            float(a.std())]


class _DampedStream:
    """Incrementally damped count/mean/variance of one value stream."""

    __slots__ = ("lam", "w", "s", "ss", "last_t")

    def __init__(self, lam):
        self.lam = lam
        self.w = self.s = self.ss = 0.0
        self.last_t = None

    def add(self, t, v):
        if self.last_t is not None:
            d = math.exp(-self.lam * (t - self.last_t))
            self.w *= d
            self.s *= d
            self.ss *= d
        self.last_t = t
        self.w += 1.0
        self.s += v
        self.ss += v * v

    def stats(self):
        if self.w == 0.0:
            return 0.0, 0.0, 0.0
        mean = self.s / self.w
        return self.w, mean, max(self.ss / self.w - mean * mean, 0.0)


def extract_stat_features(unit, ts_scale: float = 1e-6) -> np.ndarray:
    """Fixed 115-element statistical feature vector for one traffic unit.

    Shaped like a streaming feature pipeline: per packet it updates damped
    statistics at 5 decay rates in three aggregation scopes (whole unit,
    per source host, per directed socket), then summarizes, adds global
    size/timing stats, header and endpoint summaries, per-time-quartile
    payload histograms and payload byte stats. Deterministic for identical
    input.
    """
    records = [rec for rec, _ in unit]
    dissections = [dis for _, dis in unit]
    n = len(records)
    feats: list[float] = []

    times = [rec.timestamp(ts_scale) for rec in records]
    lengths = [rec.cap_len for rec in records]
    byte_means = [(sum(rec.data) / len(rec.data)) if rec.data else 0.0
                  for rec in records]

    # Scope 1: whole unit, streams for length / inter-arrival / byte mean.
    unit_len = [_DampedStream(lam) for lam in _DECAYS]
    unit_iat = [_DampedStream(lam) for lam in _DECAYS]
    unit_bm = [_DampedStream(lam) for lam in _DECAYS]
    # Scopes 2 and 3: per source host and per directed socket, length stream.
    by_host: dict = {}
    by_socket: dict = {}
    prev_t = None
    for (rec, dis), t, ln, bm in zip(unit, times, lengths, byte_means):
        for st in unit_len:
            st.add(t, ln)
        for st in unit_bm:
            st.add(t, bm)
        if prev_t is not None:
            for st in unit_iat:
                st.add(t, t - prev_t)
        prev_t = t
        tup = dis.five_tuple
        host = tup.src_ip if tup else b""
        sock = (tup.src_ip, tup.src_port, tup.dst_ip, tup.dst_port,
                tup.proto) if tup else None
        for key, book in ((host, by_host), (sock, by_socket)):
            streams = book.get(key)
            if streams is None:
                streams = [_DampedStream(lam) for lam in _DECAYS]
                book[key] = streams
            for st in streams:
                st.add(t, ln)

    for st_len, st_iat, st_bm in zip(unit_len, unit_iat, unit_bm):
        w, lm, lv = st_len.stats()
        _, im, iv = st_iat.stats()
        _, bm_m, bm_v = st_bm.stats()
        feats += [w, lm, lv, im, iv, bm_m, bm_v]
    for book in (by_host, by_socket):
        per_window = [[st.stats() for st in streams] for streams in book.values()]
        for wi in range(len(_DECAYS)):
            rows = [pw[wi] for pw in per_window]
            feats += [float(np.mean([r[0] for r in rows])),
                      float(np.mean([r[1] for r in rows])),
                      float(np.mean([r[2] for r in rows]))]

    # Global size and timing stats.
    iats = [t2 - t1 for t1, t2 in zip(times, times[1:])]
    feats.append(float(n))
    feats.append(times[-1] - times[0] if n > 1 else 0.0)
    feats += _stats5(lengths)
    payloads = []
    payload_lens = []
    for rec, dis in unit:
        start = dis.payload_start if dis.payload_start is not None else rec.cap_len
        payloads.append(rec.data[start:])
        payload_lens.append(rec.cap_len - start)
    feats += _stats5(payload_lens)
    ia = np.asarray(iats, dtype=np.float64)
    feats += ([float(ia.mean()), float(ia.min()), float(ia.max()), float(ia.std())]
              if ia.size else [0.0] * 4)

    # Header and endpoint summaries.
    eth_ends = [d.eth_end for d in dissections]
    ip_lens = [(d.ip_end - d.ip_start) if d.ip_end is not None else 0
               for d in dissections]
    tr_lens = [(d.payload_start - d.transport_start)
               if d.payload_start is not None else 0 for d in dissections]
    feats += [float(np.mean(eth_ends)), float(np.mean(ip_lens)), float(np.mean(tr_lens))]
    protos = [d.proto for d in dissections]
    feats.append(sum(p == PROTO_TCP for p in protos) / n)
    feats.append(sum(p == PROTO_UDP for p in protos) / n)
    feats.append(sum(p not in (PROTO_TCP, PROTO_UDP) for p in protos) / n)
    ttls = []
    for rec, dis in unit:
        if dis.l3_kind.value == "ipv4" and dis.ip_start is not None:
            ttls.append(rec.data[dis.ip_start + 8])
        elif dis.l3_kind.value == "ipv6" and dis.ip_start is not None:
            ttls.append(rec.data[dis.ip_start + 7])
    feats.append(float(np.mean(ttls)) if ttls else 0.0)
    sports = [d.five_tuple.src_port for d in dissections if d.five_tuple]
    dports = [d.five_tuple.dst_port for d in dissections if d.five_tuple]
    for ports in (sports, dports):
        if ports:
            feats += [float(min(ports)), float(max(ports)), float(np.mean(ports))]
        else:
            feats += [0.0, 0.0, 0.0]
    first_tuple = dissections[0].five_tuple
    feats.append(sum(d.five_tuple == first_tuple for d in dissections) / n)

    # Per-time-quartile payload histograms, 4 bins each.
    quartiles = np.array_split(np.arange(n), 4)
    for q in quartiles:
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


def _warmup(n, task, pairing):
    """One discarded training step keeps first-use costs out of the timed phases."""
    cfg = default_config(task, "prose", pairing, input_len=n, epochs=1, seed=0)
    model = Model(cfg)
    x = np.random.default_rng(0).random((4, n, 1), dtype=np.float32)
    train_step(model, adam_init([model.flat_params]), 1, x, np.zeros(4, dtype=np.int64))


def time_pipelines(corpus, views, n, task, *, category=HeaderCategory.ALL_HEADERS,
                   epochs: int = 10, batch: int = 20, seed: int = 0,
                   val_fraction: float = 0.2, pairing: str = "paper",
                   profile: str = "prose") -> TimingReport:
    """Time build/train/test per view plus the stat-baseline, serially.

    All pipelines share the split seed, the epoch count and the batch size.
    Phases are disjoint and cover the whole run: build includes reading,
    dissection, unit grouping, sample or feature extraction and the split.
    """
    _warmup(n, task, pairing)
    report = TimingReport()
    for view in views:
        cfg = default_config(task, profile, pairing, input_len=n,
                             epochs=epochs, batch_size=batch, seed=seed)

        def build():
            ds = build_dataset(corpus, view, category, n, task)
            return train_val_split(ds, val_fraction, seed)

        (train_ds, val_ds), build_s = timed(build)
        (ckpt, _), train_s = timed(lambda: train(cfg, train_ds, val_ds))
        metrics, test_s = timed(lambda: evaluate(ckpt, val_ds))
        report.rows.append(PipelineTiming(view.value, build_s, train_s, test_s,
                                          metrics.accuracy))

    # Feature-extraction baseline on session units.
    activation, loss = pairing_for(task, pairing)
    class_count = len(class_catalog(task))
    base_cfg = ModelConfig(input_len=FEATURE_COUNT,
                           layers=(DenseSpec(class_count, activation),),
                           loss=loss, class_count=class_count,
                           batch_size=batch, epochs=epochs, seed=seed)

    def build_baseline():
        units, labels = _collect_units(corpus, task)
        feats = np.stack([extract_stat_features(u, scale) for u, scale in units])
        train_idx, val_idx = split_indices(labels, val_fraction, seed)
        mu = feats[train_idx].mean(axis=0)
        sd = feats[train_idx].std(axis=0)
        sd[sd == 0] = 1.0
        feats = (feats - mu) / sd
        return ((feats[train_idx], labels[train_idx]),
                (feats[val_idx], labels[val_idx]))

    (base_train, base_val), build_s = timed(build_baseline)
    (ckpt, _), train_s = timed(lambda: train(base_cfg, base_train, base_val))
    metrics, test_s = timed(lambda: evaluate(ckpt, base_val))
    report.rows.append(PipelineTiming("stat-baseline", build_s, train_s, test_s,
                                      metrics.accuracy))
    return report
