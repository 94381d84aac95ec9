"""Feature-vector recipe and the timing harness."""

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
from bytecap.pcap import PacketRecord, dissect, read_pcap_records, write_pcap
from bytecap.views import ViewKind
from conftest import ipv4_frame


def unit_of(frames, t0=0):
    unit = []
    for i, f in enumerate(frames):
        rec = PacketRecord(index=i, ts_sec=t0 + i, ts_frac=i * 1000,
                           cap_len=len(f), orig_len=len(f), data=f)
        unit.append((rec, dissect(rec)))
    return unit


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

    def test_report_format_stable(self):
        report = TimingReport(rows=[])
        assert report.to_csv() == TimingReport.CSV_HEADER