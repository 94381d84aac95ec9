"""Feature-vector recipe and the timing harness."""

import importlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bytecap import bench
from bytecap.bench import (
    FEATURE_COUNT,
    TimingReport,
    extract_stat_features,
    time_pipelines,
    timed,
)
from bytecap.nn import PAIRINGS, PROFILES, DenseSpec, ModelConfig, default_config, pairing_for
from bytecap.pcap import (
    PROTO_TCP,
    PROTO_UDP,
    PacketRecord,
    dissect,
    read_pcap_records,
    write_pcap,
)
from bytecap.views import (
    TASKS,
    ViewKind,
    class_catalog,
    filter_packets,
    read_capture,
    split_view,
)
from conftest import arp_frame, ipv4_frame, ipv6_frame

train_module = importlib.import_module("bytecap.train")  # the package re-exports train()

_DECAYS = (0.01, 0.1, 0.5, 1.0, 5.0)


# The recipe as it stood with one stream object per decay, scope and key,
# and one walk of the unit per column: the reference the one-walk recipe
# must match bit for bit.
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


def oracle_stat_features(unit, ts_scale: float = 1e-6) -> np.ndarray:
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



def unit_of(frames, t0=0):
    unit = []
    for i, f in enumerate(frames):
        rec = PacketRecord(index=i, ts_sec=t0 + i, ts_frac=i * 1000,
                           cap_len=len(f), orig_len=len(f), data=f)
        unit.append((rec, dissect(rec)))
    return unit


def session_units(corpus):
    """(unit, ts_scale) for every session of a corpus."""
    out = []
    for path, _ in corpus:
        scale, pairs = read_capture(path)
        units = split_view(filter_packets(pairs, ViewKind.SESSION), ViewKind.SESSION)
        out += [(unit, scale) for unit in units.values()]
    return out


def many_endpoints():
    """Forty packets from nine source hosts on eleven sockets at irregular
    sub-second gaps, so each key's damped weight, mean and variance are
    inexact and the per-host and per-socket means run numpy's pairwise sum."""
    frames = [ipv4_frame(payload=bytes([i]) * (i * 7 % 23), src=(10, 0, 0, i % 9),
                         sport=4000 + i % 10, ttl=30 + i)
              for i in range(39)]
    frames.append(ipv6_frame(payload=b"v6", next_header=17))
    unit = []
    for i, f in enumerate(frames):
        rec = PacketRecord(index=i, ts_sec=100 + i // 7,
                           ts_frac=(i * i * 37_001) % 1_000_000,
                           cap_len=len(f), orig_len=len(f), data=f)
        unit.append((rec, dissect(rec)))
    return sorted(unit, key=lambda pair: pair[0].timestamp())


class TestRecipeMatchesOracle:
    def test_every_session_of_the_corpus(self, corpus_small):
        for unit, scale in session_units(corpus_small):
            assert np.array_equal(extract_stat_features(unit, scale),
                                  oracle_stat_features(unit, scale))

    def test_every_session_of_the_nanosecond_twin(self, corpus_small, tmp_path):
        twins = []
        for path, name in corpus_small:
            _, recs = read_pcap_records(path)
            nano = tmp_path / f"{name}_nano.pcap"
            write_pcap(nano, [(r.ts_sec, r.ts_frac * 1000, r.data) for r in recs],
                       ts_resolution="nano", byte_order=">")
            twins.append((nano, name))
        units = session_units(twins)
        assert units and all(scale == 1e-9 for _, scale in units)
        for unit, scale in units:
            assert np.array_equal(extract_stat_features(unit, scale),
                                  oracle_stat_features(unit, scale))

    @pytest.mark.parametrize("frames", [
        [ipv4_frame(payload=b"one")],
        [ipv6_frame(payload=b"six" * 7), ipv6_frame(next_header=17, payload=b"u"),
         ipv6_frame(next_header=58, payload=b"icmp")],
        [ipv4_frame(vlan_tags=2, payload=b"qq"), ipv4_frame(vlan_tags=1)],
        [ipv4_frame(proto=17, payload=b"\x01" * 30), ipv4_frame(proto=17)],
        [ipv4_frame(payload=b"head"), ipv4_frame(frag_offset=185, payload=b"tail" * 9)],
        [arp_frame(), ipv4_frame(payload=b"after arp"), b"\x00" * 9],
        [arp_frame()],
        [ipv4_frame(payload=b"x")[:40], ipv4_frame(proto=17)[:38], ipv4_frame(ihl=6)],
        [b""],
    ], ids=["single", "ipv6", "vlan", "udp", "fragment", "non-ip", "only-non-ip",
            "truncated-transport", "empty-frame"])
    def test_hand_built_units(self, frames):
        unit = unit_of(frames)
        assert np.array_equal(extract_stat_features(unit), oracle_stat_features(unit))

    def test_many_hosts_and_sockets(self):
        unit = many_endpoints()
        assert len({dis.five_tuple.src_ip for _, dis in unit}) >= 8
        assert len({dis.five_tuple for _, dis in unit}) >= 8
        for scale in (1e-6, 1e-9):
            assert np.array_equal(extract_stat_features(unit, scale),
                                  oracle_stat_features(unit, scale))


class TestFeatures:
    def test_vector_length_always_115(self):
        for frames in ([ipv4_frame()],
                       [ipv4_frame(payload=b"abc")] * 5,
                       [ipv4_frame(proto=17, payload=b"\xff" * 40)] * 3,
                       [ipv4_frame(), ipv4_frame(proto=17)]):
            v = extract_stat_features(unit_of(frames))
            assert v.shape == (FEATURE_COUNT,)
            assert np.all(np.isfinite(v))

    def test_shape_mismatch_raises_value_error(self, monkeypatch):
        # an explicit check, not an assert that `python -O` would strip
        monkeypatch.setattr(bench, "FEATURE_COUNT", FEATURE_COUNT + 1)
        with pytest.raises(ValueError, match="feature recipe"):
            extract_stat_features(unit_of([ipv4_frame()]))

    def test_single_packet_unit_spreads_are_zero(self):
        v = extract_stat_features(unit_of([ipv4_frame(payload=b"xy")]))
        assert v.shape == (FEATURE_COUNT,)
        # per-window variance features and all inter-arrival stats are zero
        for w in range(5):
            base = w * 7
            assert v[base + 2] == 0.0  # length variance
            assert v[base + 3] == 0.0 and v[base + 4] == 0.0  # iat mean/var
            assert v[base + 6] == 0.0  # byte-mean variance

    def test_identical_units_identical_vectors(self):
        frames = [ipv4_frame(payload=bytes([i] * 10)) for i in range(4)]
        a = extract_stat_features(unit_of(frames))
        b = extract_stat_features(unit_of(frames))
        assert np.array_equal(a, b)

    def test_payload_distribution_visible(self):
        low = extract_stat_features(unit_of([ipv4_frame(payload=b"\x10" * 50)]))
        high = extract_stat_features(unit_of([ipv4_frame(payload=b"\xf0" * 50)]))
        assert not np.array_equal(low, high)


class TestTimed:
    def test_instrumentation_overhead_negligible(self):
        # timing an empty phase must cost well under 1% of any real phase
        _, secs = timed(lambda: None)
        assert secs < 1e-3

    def test_returns_result(self):
        value, secs = timed(lambda: 41 + 1)
        assert value == 42 and secs >= 0


class TestTimePipelines:
    def test_report_structure_and_columns(self, corpus_small):
        report = time_pipelines(corpus_small, [ViewKind.SESSION, ViewKind.FLOW],
                                115, "binary", epochs=2, seed=0)
        names = [r.pipeline for r in report.rows]
        assert names == ["session", "flow", "stat-baseline"]
        for r in report.rows:
            assert r.build_s >= 0 and r.train_s >= 0 and r.test_s >= 0
            assert 0 <= r.accuracy <= 1
        csv = report.to_csv()
        assert csv.splitlines()[0] == "pipeline,build_s,train_s,test_s,accuracy"
        assert len(csv.splitlines()) == 4
        table = report.to_text_table()
        assert "stat-baseline" in table

    def test_deterministic_accuracies(self, corpus_small):
        a = time_pipelines(corpus_small, [ViewKind.SESSION], 115, "binary",
                           epochs=2, seed=3)
        b = time_pipelines(corpus_small, [ViewKind.SESSION], 115, "binary",
                           epochs=2, seed=3)
        assert [r.accuracy for r in a.rows] == [r.accuracy for r in b.rows]

    def test_nano_capture_matches_micro_twin(self, corpus_small, tmp_path, monkeypatch):
        twins = []
        for path, name in corpus_small:
            _, recs = read_pcap_records(path)
            nano = tmp_path / f"{name}_nano.pcap"
            write_pcap(nano, [(r.ts_sec, r.ts_frac * 1000, r.data) for r in recs],
                       ts_resolution="nano")
            twins.append((nano, name))
        seen = []

        def recording(unit, ts_scale=1e-6):
            seen.append(extract_stat_features(unit, ts_scale))
            return seen[-1]

        monkeypatch.setattr(bench, "extract_stat_features", recording)
        time_pipelines(corpus_small, [], 115, "binary", epochs=1)
        micro = np.stack(seen)
        seen.clear()
        time_pipelines(twins, [], 115, "binary", epochs=1)
        assert np.array_equal(np.stack(seen), micro)

    def test_table_profile_at_its_own_input_length(self, corpus_small):
        # the warm-up once built the prose model whatever the profile, and
        # at N=20 its first kernel (64) is longer than the input
        report = time_pipelines(corpus_small, [ViewKind.SESSION], 20, "binary",
                                profile="table", epochs=1)
        assert [r.pipeline for r in report.rows] == ["session", "stat-baseline"]

    @pytest.mark.parametrize("profile, n", [("prose", 115), ("table", 20)])
    def test_warmup_runs_the_cnn_config_that_is_timed(self, corpus_small, monkeypatch,
                                                      profile, n):
        warmed, trained = [], []
        warmup, train = bench._warmup, bench.train

        def recording_warmup(cfg):
            warmed.append(cfg)
            return warmup(cfg)

        def recording_train(cfg, *args, **kwargs):
            trained.append(cfg)
            return train(cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "_warmup", recording_warmup)
        monkeypatch.setattr(bench, "train", recording_train)
        time_pipelines(corpus_small, [ViewKind.SESSION], n, "binary", profile=profile,
                       epochs=1, batch=7, seed=2)
        cnn = default_config("binary", profile, input_len=n, epochs=1, batch_size=7, seed=2)
        assert warmed == [cnn]
        # the warm-up's own training is not one of the timed pipelines' calls
        assert trained == [cnn, replace(cnn, input_len=FEATURE_COUNT, layers=cnn.layers[-1:])]

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_warmup_trains_one_epoch_on_a_uint8_row_of_every_class(self, monkeypatch, task):
        cfg = default_config(task, epochs=5, batch_size=7, seed=2)
        calls = []
        real = train_module.train

        def recording(config, train_data, val_data, **kwargs):
            calls.append((config, train_data))
            return real(config, train_data, val_data, **kwargs)

        monkeypatch.setattr(train_module, "train", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no class may be absent from the rows
            bench._warmup(cfg)
        [(config, (x, y))] = calls
        assert config == replace(cfg, epochs=1)
        assert x.dtype == np.uint8 and x.shape == (cfg.class_count, cfg.input_len)
        assert np.array_equal(y, np.arange(cfg.class_count))

    @pytest.mark.parametrize("task", sorted(TASKS))
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("pairing", sorted(PAIRINGS))
    def test_baseline_config_is_the_cnn_output_layer_on_the_features(
            self, monkeypatch, task, profile, pairing):
        class Trained(Exception):
            pass

        def stop(cfg, *args, **kwargs):
            raise Trained(cfg)

        monkeypatch.setattr(bench, "_collect_units",
                            lambda corpus, task: ([(None, 1e-6)] * 10, np.arange(10) % 2))
        monkeypatch.setattr(bench, "extract_stat_features",
                            lambda unit, scale: np.zeros(FEATURE_COUNT))
        monkeypatch.setattr(bench, "train", stop)
        with pytest.raises(Trained) as trained:
            time_pipelines([], [], PROFILES[profile][0], task, profile=profile,
                           pairing=pairing, epochs=3, batch=7, seed=2)
        activation, loss = pairing_for(task, pairing)
        classes = len(class_catalog(task))
        assert trained.value.args[0] == ModelConfig(
            FEATURE_COUNT, (DenseSpec(classes, activation),), loss, classes,
            batch_size=7, epochs=3, seed=2)

    def test_report_format_stable(self):
        report = TimingReport(rows=[])
        assert report.to_csv() == TimingReport.CSV_HEADER