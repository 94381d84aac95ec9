"""`synth_corpus` against the per-frame generator it replaced, kept here
verbatim as the oracle: every recipe writes the same files and returns the
same list. Also the refusals of recipes the generator cannot write."""

import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap.pcap import PROTO_TCP, PROTO_UDP, SNAPLEN, PacketRecord, read_pcap_records, write_pcap
from bytecap.synth import (
    SynthClass,
    binary_synth_classes,
    synth_classes,
    synth_corpus,
)
from bytecap.views import TASKS, class_catalog


def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    s = sum(struct.unpack(f">{len(data) // 2}H", data))
    while s > 0xFFFF:
        s = (s & 0xFFFF) + (s >> 16)
    return (~s) & 0xFFFF


def _ipv4_header(src: bytes, dst: bytes, proto: int, payload_len: int, ident: int) -> bytes:
    total = 20 + payload_len
    hdr = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, ident, 0x4000, 64,
                      proto, 0, src, dst)
    csum = _checksum16(hdr)
    return hdr[:10] + struct.pack(">H", csum) + hdr[12:]

def _tcp_header(sport, dport, seq, ack, payload, src, dst) -> bytes:
    hdr = struct.pack(">HHIIBBHHH", sport, dport, seq, ack, 5 << 4, 0x18,
                      65535, 0, 0)
    pseudo = src + dst + struct.pack(">BBH", 0, PROTO_TCP, len(hdr) + len(payload))
    csum = _checksum16(pseudo + hdr + payload)
    return hdr[:16] + struct.pack(">H", csum) + hdr[18:]


def _udp_header(sport, dport, payload, src, dst) -> bytes:
    length = 8 + len(payload)
    hdr = struct.pack(">HHHH", sport, dport, length, 0)
    pseudo = src + dst + struct.pack(">BBH", 0, PROTO_UDP, length)
    csum = _checksum16(pseudo + hdr + payload) or 0xFFFF  # 0 means "none" in UDP
    return hdr[:6] + struct.pack(">H", csum)


def _slug(name: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in name)


def oracle_synth_corpus(out_dir, classes: list[SynthClass], seed: int = 0, *,
                 packets_per_session: tuple[int, int] = (4, 10),
                 payload_len: tuple[int, int] = (60, 180)) -> list[tuple[Path, str]]:
    """Write one pcap per class; returns [(path, class name), ...].

    Sessions are bidirectional exchanges between random endpoints with
    monotonically increasing timestamps; a quarter of them, drawn per
    session, run over UDP and the rest over TCP. Fixing the seed fixes every output
    byte.
    """
    if len(classes) < 2:
        raise ValueError("a corpus needs at least 2 classes")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    results = []
    base_ts = 1_600_000_000
    for cls in classes:
        records = []
        ts_sec = base_ts
        ts_usec = 0
        for s in range(cls.sessions):
            n_pkts = int(rng.integers(packets_per_session[0], packets_per_session[1] + 1))
            use_udp = rng.random() < 0.25
            src_ip = bytes([10, *rng.integers(0, 256, 3, dtype=np.uint8)])
            dst_ip = bytes([10, *rng.integers(0, 256, 3, dtype=np.uint8)])
            sport = int(rng.integers(1024, 65536))
            dport = int(rng.choice([80, 443, 8080, 1883, 23]))
            src_mac = bytes([2, 0, *rng.integers(0, 256, 4, dtype=np.uint8)])
            dst_mac = bytes([2, 1, *rng.integers(0, 256, 4, dtype=np.uint8)])
            seq_fwd, seq_rev = int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31))
            for p in range(n_pkts):
                forward = p % 2 == 0  # strict alternation keeps both flows populated
                plen = int(rng.integers(payload_len[0], payload_len[1] + 1))
                payload = rng.integers(cls.byte_low, cls.byte_high + 1,
                                       size=plen, dtype=np.uint8).tobytes()
                if forward:
                    sip, dip, sp, dp = src_ip, dst_ip, sport, dport
                    smac, dmac = src_mac, dst_mac
                else:
                    sip, dip, sp, dp = dst_ip, src_ip, dport, sport
                    smac, dmac = dst_mac, src_mac
                if use_udp:
                    l4 = _udp_header(sp, dp, payload, sip, dip) + payload
                    proto = PROTO_UDP
                else:
                    seq = seq_fwd if forward else seq_rev
                    ack = seq_rev if forward else seq_fwd
                    l4 = _tcp_header(sp, dp, seq, ack, payload, sip, dip) + payload
                    proto = PROTO_TCP
                    if forward:
                        seq_fwd = (seq_fwd + plen) & 0xFFFFFFFF
                    else:
                        seq_rev = (seq_rev + plen) & 0xFFFFFFFF
                ip = _ipv4_header(sip, dip, proto, len(l4), ident=(s * 251 + p) & 0xFFFF)
                frame = dmac + smac + struct.pack(">H", 0x0800) + ip + l4
                ts_usec += int(rng.integers(200, 5000))
                ts_sec += ts_usec // 1_000_000
                ts_usec %= 1_000_000
                records.append(PacketRecord(
                    index=len(records), ts_sec=ts_sec, ts_frac=ts_usec,
                    cap_len=len(frame), orig_len=len(frame), data=frame,
                ))
        path = out_dir / f"{_slug(cls.name)}.pcap"
        write_pcap(path, records)
        results.append((path, cls.name))
    return results


def assert_matches_oracle(out_dir, classes, seed, **recipe):
    """The oracle's files and return value, then synth_corpus's into the
    same directory: the same list, the same bytes."""
    want = oracle_synth_corpus(out_dir, classes, seed, **recipe)
    want_bytes = [path.read_bytes() for path, _ in want]
    for path, _ in want:
        path.unlink()
    got = synth_corpus(out_dir, classes, seed, **recipe)
    assert got == want
    assert [path.read_bytes() for path, _ in got] == want_bytes
    return got


# (ingest-grid and train-infer share a recipe)
PERFBENCH_RECIPES = {
    "ingest-grid": dict(packets_per_session=(50, 120), payload_len=(60, 180)),
    "short-sessions": dict(packets_per_session=(4, 10), payload_len=(20, 60)),
}


@pytest.mark.parametrize("classes, seed, recipe", [
    (binary_synth_classes(4), 0, {}),
    (synth_classes("multi", 2), 3, {}),
    (binary_synth_classes(3), 1, PERFBENCH_RECIPES["ingest-grid"]),
    (binary_synth_classes(15), 2, PERFBENCH_RECIPES["short-sessions"]),
    (binary_synth_classes(5), 4, dict(payload_len=(0, 3), packets_per_session=(1, 1))),
    ([SynthClass("one", 7, 7, 3), SynthClass("top", 255, 255, 3)], 5, {}),
    *[(binary_synth_classes(3), seed, {}) for seed in (6, 7, 2**32 - 1, 12345678901)],
], ids=["binary", "multi", "ingest-grid", "short-sessions", "tiny", "one-value-band",
        "seed6", "seed7", "seed2^32-1", "seed-big"])
def test_matches_oracle(tmp_path, classes, seed, recipe):
    assert_matches_oracle(tmp_path, classes, seed, **recipe)


def test_matches_oracle_where_udp_checksum_is_zero(tmp_path):
    # this recipe holds a UDP frame whose checksum sums to 0, written as
    # 0xFFFF (a checksum 0xFFFF cannot arise otherwise: the pseudo-header
    # is never all zero)
    got = assert_matches_oracle(tmp_path, binary_synth_classes(30), 35,
                                packets_per_session=(20, 40), payload_len=(0, 8))
    _, records = read_pcap_records(got[0][0])
    assert any(r.data[23] == PROTO_UDP and r.data[40:42] == b"\xff\xff" for r in records)


def test_matches_oracle_when_microseconds_carry_many_times(tmp_path):
    classes = [SynthClass("long", 0, 255, 2), SynthClass("short", 0, 255, 1)]
    got = assert_matches_oracle(tmp_path, classes, 8, packets_per_session=(2000, 2000),
                                payload_len=(0, 2))
    _, records = read_pcap_records(got[0][0])
    assert records[-1].ts_sec - records[0].ts_sec >= 5


@st.composite
def recipes(draw):
    classes = []
    for i in range(draw(st.integers(2, 3))):
        low = draw(st.integers(0, 255))
        classes.append(SynthClass(f"c{i}", low, draw(st.integers(low, 255)),
                                  draw(st.integers(1, 3))))
    packets = draw(st.integers(1, 6))
    payload = draw(st.integers(0, 40))
    return (classes, draw(st.integers(0, 2**32 - 1)),
            dict(packets_per_session=(packets, draw(st.integers(packets, packets + 4))),
                 payload_len=(payload, draw(st.integers(payload, payload + 40)))))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(recipes())
def test_matches_oracle_on_small_recipes(recipe):
    classes, seed, kwargs = recipe
    with tempfile.TemporaryDirectory() as out_dir:
        assert_matches_oracle(Path(out_dir), classes, seed, **kwargs)


def test_bytes_are_pinned(tmp_path):
    # sha256 of each file as the per-frame generator wrote it
    got = synth_corpus(tmp_path, binary_synth_classes(3), seed=9)
    assert [(path.name, name, hashlib.sha256(path.read_bytes()).hexdigest())
            for path, name in got] == [
        ("benign.pcap", "benign",
         "d133d32b5fd2cf630f52c4164f6afc5bdb509bd77eaa3ce01d8afd6c9203f2ff"),
        ("malicious.pcap", "malicious",
         "16ba03bb94c6b596ef3317150546714f650ab4d1055aa4ba408f2d1c0c5baf02"),
    ]


@pytest.mark.parametrize("task", list(TASKS))
def test_synth_classes_band_every_byte_once(task):
    classes = synth_classes(task, 1)
    assert [c.name for c in classes] == class_catalog(task)
    assert all(c.sessions == 1 for c in classes)
    bands = [(c.byte_low, c.byte_high) for c in classes]
    # in label order, each band starts where the one before it ends, from 0 to 255
    assert bands[0][0] == 0 and bands[-1][1] == 255
    assert all(lo <= hi for lo, hi in bands)
    assert all(prev[1] + 1 == nxt[0] for prev, nxt in zip(bands, bands[1:]))


class TestRefusals:
    """A recipe the generator cannot write is refused before `out_dir` is
    created, with a ValueError naming the class or the argument."""

    def refused(self, tmp_path, match, classes=None, **recipe):
        out = tmp_path / "corpus"
        with pytest.raises(ValueError, match=match):
            synth_corpus(out, classes or binary_synth_classes(2), 0, **recipe)
        assert not out.exists()

    @pytest.mark.parametrize("low, high", [(9, 8), (-1, 8), (0, 256)])
    def test_byte_band_of_a_later_class(self, tmp_path, low, high):
        classes = [SynthClass("fine", 0, 255, 1), SynthClass("bad", low, high, 1)]
        self.refused(tmp_path, "class 'bad': payload bytes must satisfy "
                               f"0 <= byte_low <= byte_high <= 255, got {low} and {high}",
                     classes)

    @pytest.mark.parametrize("packets", [(0, 0), (0, 3), (5, 4)])
    def test_packets_per_session(self, tmp_path, packets):
        self.refused(tmp_path, "packets_per_session must satisfy 1 <= lo <= hi, "
                               f"got {re.escape(str(packets))}", packets_per_session=packets)

    @pytest.mark.parametrize("payload", [(70000, 70000), (0, SNAPLEN - 53), (-1, 3), (4, 3)])
    def test_payload_len(self, tmp_path, payload):
        self.refused(tmp_path, f"payload_len must satisfy 0 <= lo <= hi <= {SNAPLEN - 54}, "
                               f"got {re.escape(str(payload))}", payload_len=payload)

    def test_longest_payload_is_written(self, tmp_path):
        classes = [SynthClass("a", 0, 0, 1), SynthClass("b", 1, 1, 1)]
        [(path, _), _] = synth_corpus(tmp_path, classes, 0, packets_per_session=(1, 1),
                                      payload_len=(SNAPLEN - 54, SNAPLEN - 54))
        _, [record] = read_pcap_records(path)
        assert record.cap_len in (SNAPLEN, SNAPLEN - 12)  # TCP or UDP

