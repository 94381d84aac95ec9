"""Reader, dissector and key tests against hand-written byte fixtures."""

import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap.pcap import (
    Dissection,
    FiveTuple,
    L3Kind,
    NonIpPacketError,
    PacketRecord,
    PcapFormatError,
    TruncatedCaptureError,
    dissect,
    dissect_frames,
    keys,
    read_pcap,
    read_pcap_records,
    session_rows,
    write_frames,
    write_pcap,
)
from bytecap import pcap
from bytecap.views import Capture
from conftest import arp_frame, ipv4_frame, ipv6_frame, needs_dev_fd, read_through_pipe


def global_header(magic=0xD4C3B2A1, snaplen=65535, linktype=1, order="<"):
    return struct.pack(">I", magic) + struct.pack(order + "HHiIII", 2, 4, 0, 0,
                                                  snaplen, linktype)


def record(data, ts_sec=1600000000, ts_frac=42, order="<", orig=None):
    orig = len(data) if orig is None else orig
    return struct.pack(order + "IIII", ts_sec, ts_frac, len(data), orig) + data


class TestReader:
    def test_two_handwritten_records(self, tmp_path):
        # Fixture assembled field by field from the classic layout.
        p = tmp_path / "two.pcap"
        body = global_header()
        body += record(b"\x01" * 60)
        body += record(b"\x02" * 74)
        p.write_bytes(body)
        meta, recs = read_pcap_records(p)
        assert [r.cap_len for r in recs] == [60, 74]
        assert [r.index for r in recs] == [0, 1]
        assert [len(r.data) for r in recs] == [60, 74]
        assert recs[0].ts_sec == 1600000000 and recs[0].ts_frac == 42
        assert meta.snaplen == 65535 and meta.link_type == 1

    def test_magic_variants(self, tmp_path):
        cases = [
            (0xA1B2C3D4, ">", "micro"),
            (0xD4C3B2A1, "<", "micro"),
            (0xA1B23C4D, ">", "nano"),
            (0x4D3CB2A1, "<", "nano"),
        ]
        for magic, order, resolution in cases:
            p = tmp_path / f"m{magic:x}.pcap"
            p.write_bytes(global_header(magic, order=order)
                          + record(b"\x00" * 20, order=order))
            with read_pcap(p) as r:
                assert r.meta.byte_order == order
                assert r.meta.ts_resolution == resolution
                assert [rec.cap_len for rec in r] == [20]

    def test_empty_capture(self, tmp_path):
        p = tmp_path / "empty.pcap"
        p.write_bytes(global_header())
        meta, recs = read_pcap_records(p)
        assert recs == []

    def test_bad_magic_names_value(self, tmp_path):
        p = tmp_path / "bad.pcap"
        p.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)
        with pytest.raises(PcapFormatError, match="0x0A0D0D0A"):
            read_pcap_records(p)

    def test_truncated_record_header(self, tmp_path):
        p = tmp_path / "t1.pcap"
        p.write_bytes(global_header() + record(b"\x00" * 30) + b"\x00\x01\x02")
        with pytest.raises(TruncatedCaptureError) as ei:
            read_pcap_records(p)
        assert ei.value.last_good_index == 0

    def test_truncated_record_body(self, tmp_path):
        p = tmp_path / "t2.pcap"
        hdr = struct.pack("<IIII", 0, 0, 100, 100)
        p.write_bytes(global_header() + record(b"\x00" * 30)
                      + record(b"\x01" * 10) + hdr + b"\xff" * 40)
        with pytest.raises(TruncatedCaptureError) as ei:
            read_pcap_records(p)
        assert ei.value.last_good_index == 1

    @pytest.mark.parametrize("tail", [
        b"\x00\x01\x02", struct.pack("<IIII", 0, 0, 100, 100) + b"\xff" * 40],
        ids=["header", "body"])
    def test_unreadable_first_record(self, tmp_path, tail):
        p = tmp_path / "first.pcap"
        p.write_bytes(global_header() + tail)
        with pytest.raises(TruncatedCaptureError, match="no record was read") as ei:
            read_pcap_records(p)
        assert ei.value.last_good_index == -1
        assert "record -1" not in str(ei.value)

    def test_non_ethernet_capture_refused_on_open(self, tmp_path):
        p = tmp_path / "raw.pcap"
        p.write_bytes(global_header(linktype=101) + record(ipv4_frame()))
        for read in (read_pcap, Capture.read):
            with pytest.raises(PcapFormatError, match="link type 101") as ei:
                read(p)
            assert str(p) in str(ei.value)

    def test_iteration_makes_one_pass(self, tmp_path):
        p = tmp_path / "two.pcap"
        p.write_bytes(global_header() + record(b"\x01" * 20) + record(b"\x02" * 20))
        with read_pcap(p) as r:
            assert [rec.index for rec in r] == [0, 1]
            assert list(r) == []
        r = read_pcap(p)
        r.close()
        assert list(r) == []

    def test_corrupt_length_fields(self, tmp_path):
        p = tmp_path / "c.pcap"
        # incl_len exceeding orig_len is nonsense
        hdr = struct.pack("<IIII", 0, 0, 50, 10)
        p.write_bytes(global_header() + hdr + b"\x00" * 50)
        with pytest.raises(PcapFormatError):
            read_pcap_records(p)

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_huge_claimed_record_not_allocated(self, tmp_path, through_pipe):
        # snaplen 0 turns off the snaplen bound, so a 1 GiB claim that
        # orig_len agrees with reaches the body read
        blob = (global_header(snaplen=0) + record(b"\x00" * 30)
                + struct.pack("<IIII", 0, 0, 1 << 30, 1 << 30) + b"\xff" * 40)
        p = tmp_path / "claim.pcap"
        p.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedCaptureError) as ei:
                if through_pipe:
                    read_through_pipe(read_pcap_records, blob)
                else:
                    read_pcap_records(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.last_good_index == 0
        assert peak < 1 << 20

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_roundtrip_both_orders(self, tmp_path, order):
        rng = random.Random(99)
        recs = [
            PacketRecord(index=i, ts_sec=rng.randrange(2**31),
                         ts_frac=rng.randrange(10**6),
                         cap_len=n, orig_len=n + rng.randrange(3),
                         data=bytes(rng.randrange(256) for _ in range(n)))
            for i, n in enumerate(rng.randrange(1, 200) for _ in range(25))
        ]
        p = tmp_path / "rt.pcap"
        write_pcap(p, recs, byte_order=order)
        _, back = read_pcap_records(p)
        assert back == recs


class TestWritePcap:
    @pytest.mark.parametrize("records,match", [
        ([(0, 0, b"\0" * 70000)], "record 0 holds 70000 bytes"),
        ([(0, 0, b"\1" * 8), PacketRecord(1, 0, 0, 10, 9, b"\2" * 10)],
         "record 1 has orig_len 9, below its 10"),
    ], ids=["past-snaplen", "orig-below-data"])
    def test_refuses_what_the_reader_refuses(self, tmp_path, records, match):
        p = tmp_path / "refused.pcap"
        with pytest.raises(ValueError, match=match):
            write_pcap(p, iter(records))
        assert not p.exists()

    def test_longest_record_reads_back(self, tmp_path):
        p = tmp_path / "snaplen.pcap"
        write_pcap(p, [(0, 0, b"\3" * 65535)])
        meta, [rec] = read_pcap_records(p)
        assert meta.snaplen == 65535 and rec.data == b"\3" * 65535



def laid_out(frames, layout, rng):
    """(buffer, start) holding `frames` in order: back to back, each padded
    to an even length as synthesis lays them, or 0 to 40 bytes apart."""
    gaps = {"contiguous": [0] * len(frames), "even-pads": [len(f) & 1 for f in frames],
            "wide-gaps": [rng.randrange(41) for _ in frames]}[layout]
    buf, start = bytearray(rng.randbytes(rng.randrange(5))), []
    for frame, gap in zip(frames, gaps):
        start.append(len(buf))
        buf += frame + rng.randbytes(gap)
    return bytes(buf), start


class TestWriteFrames:
    """write_frames, the columnar writer write_pcap adapts record lists to."""

    @pytest.mark.parametrize("chunk", [None, 1, 700], ids=["chunk", "chunk1", "chunk700"])
    @pytest.mark.parametrize("layout", ["contiguous", "even-pads", "wide-gaps"])
    @pytest.mark.parametrize("order,resolution", [
        ("<", "micro"), (">", "micro"), ("<", "nano"), (">", "nano")])
    def test_roundtrip(self, tmp_path, monkeypatch, order, resolution, layout, chunk):
        if chunk:
            monkeypatch.setattr(pcap, "_CHUNK", chunk)
        rng = random.Random(f"{order}{resolution}{layout}{chunk}")
        frames = [rng.randbytes(rng.choice([0, 1, 13, 60, 61, 1500])) for _ in range(40)]
        frames[7] = rng.randbytes(65535)
        want = [PacketRecord(i, rng.randrange(2**32), rng.randrange(2**32), len(f),
                             len(f) + rng.choice([0, 0, 1, 9000, 2**32 - 1 - len(f)]), f)
                for i, f in enumerate(frames)]
        buf, start = laid_out(frames, layout, rng)
        p = tmp_path / "cols.pcap"
        write_frames(p, np.frombuffer(buf, dtype=np.uint8), start,
                     *zip(*[(r.cap_len, r.ts_sec, r.ts_frac, r.orig_len) for r in want]),
                     byte_order=order, ts_resolution=resolution)
        meta, back = read_pcap_records(p)
        assert (meta.byte_order, meta.ts_resolution, meta.snaplen) == (order, resolution, 65535)
        assert back == want
        with read_pcap(p) as r:
            got, got_start, got_len = r.read_frames()
        assert got_len.tolist() == [len(f) for f in frames]
        assert [got[a:a + n].tobytes() for a, n in zip(got_start.tolist(), got_len.tolist())] \
            == frames

    def test_no_records(self, tmp_path):
        p = tmp_path / "empty.pcap"
        write_frames(p, b"", [], [], [], [], [])
        assert read_pcap_records(p)[1] == [] and p.stat().st_size == 24

    @pytest.mark.parametrize("bad,match", [
        ({"cap_len": 65536, "orig_len": 65536}, "record 2 holds 65536 bytes, more than "
         "the file's snaplen 65535"),
        ({"orig_len": 9}, "record 2 has orig_len 9, below its 10 captured bytes"),
    ], ids=["past-snaplen", "orig-below-data"])
    @pytest.mark.parametrize("entry", ["write_frames", "write_pcap"])
    def test_refuses_what_the_reader_refuses(self, tmp_path, entry, bad, match):
        # record 2 is the first bad one; record 4 is bad both ways
        rows = [dict(cap_len=10, orig_len=10) for _ in range(6)]
        rows[2].update(bad)
        rows[4] = dict(cap_len=70000, orig_len=3)
        data = [b"\5" * row["cap_len"] for row in rows]
        p = tmp_path / "refused.pcap"
        with pytest.raises(ValueError, match=f"^{match}$"):
            if entry == "write_pcap":
                write_pcap(p, [PacketRecord(i, 0, 0, len(d), row["orig_len"], d)
                               for i, (d, row) in enumerate(zip(data, rows))])
            else:
                lengths = [len(d) for d in data]
                write_frames(p, b"".join(data), np.cumsum([0] + lengths[:-1]), lengths,
                             [0] * 6, [0] * 6, [row["orig_len"] for row in rows])
        assert not p.exists()

    @pytest.mark.parametrize("form", [("=", "micro"), ("little", "micro"), ("<", "milli"),
                                      (">", None)], ids=["native", "word", "milli", "none"])
    @pytest.mark.parametrize("entry", ["write_frames", "write_pcap"])
    def test_refuses_a_form_no_magic_states(self, tmp_path, entry, form):
        order, resolution = form
        p = tmp_path / "unstated.pcap"
        with pytest.raises(ValueError, match=re.escape(
                f"byte_order must be '<' or '>' and ts_resolution 'micro' or 'nano', "
                f"got {order!r} and {resolution!r}")):
            if entry == "write_pcap":
                write_pcap(p, [(0, 0, b"abcd")], byte_order=order, ts_resolution=resolution)
            else:
                write_frames(p, b"abcd", [0], [4], [0], [0], [4], byte_order=order,
                             ts_resolution=resolution)
        assert not p.exists()

    @pytest.mark.parametrize("records,match", [
        ([(0, 0, b"a"), (-1, 0, b"b")], r"record 1 has \(ts_sec, ts_frac, incl_len, "
         r"orig_len\) \(-1, 0, 1, 1\), not all in 0 to 2\*\*32 - 1"),
        ([(0, 2**32, b"")], r"record 0 has .* \(0, 4294967296, 0, 0\)"),
    ], ids=["negative-ts_sec", "ts_frac-past-32-bits"])
    def test_refuses_a_field_a_header_cannot_hold(self, tmp_path, records, match):
        p = tmp_path / "unfit.pcap"
        with pytest.raises(ValueError, match=match):
            write_pcap(p, records)
        assert not p.exists()

    @pytest.mark.parametrize("start,match", [
        ([0, 3], "record 1's frame at 3 starts before the frame before it ends"),
        ([0, 5], "record 1's frame at 5 .* runs past the 8 bytes given"),
        ([-1, 4], "record 0's frame at -1"),
    ], ids=["overlap", "past-end", "before-buffer"])
    def test_refuses_a_frame_outside_its_place(self, tmp_path, start, match):
        p = tmp_path / "misplaced.pcap"
        with pytest.raises(ValueError, match=match):
            write_frames(p, bytes(range(8)), start, [4, 4], [0, 0], [0, 0], [4, 4])
        assert not p.exists()

def outcome(read, blob, path, through_pipe):
    """read(path) of `blob` from a file or a pipe: its result, or the error's
    class, message (the path it was given written as <capture>) and
    last_good_index."""
    given = []

    def call(p):
        given.append(str(p))
        return read(p)

    try:
        if through_pipe:
            return read_through_pipe(call, blob)
        path.write_bytes(blob)
        return call(path)
    except (PcapFormatError, TruncatedCaptureError) as e:
        return (type(e), str(e).replace(given[0], "<capture>"),
                getattr(e, "last_good_index", None))


def assert_readers_agree(blob, path, through_pipe):
    """Capture.read and read_pcap_records raise the same error for `blob`,
    or both read it and Capture.frames holds each record's data at its
    start, zero padding of at least the longest frame after the last."""
    cap = outcome(Capture.read, blob, path, through_pipe)
    records = outcome(read_pcap_records, blob, path, through_pipe)
    if isinstance(records, tuple) and isinstance(records[0], type):
        assert cap == records
        return
    _, recs = records
    buf = cap.frames.tobytes()
    assert cap.start.dtype == cap.cap_len.dtype == np.int64
    assert cap.cap_len.tolist() == [r.cap_len for r in recs]
    assert [buf[s:s + n] for s, n in zip(cap.start.tolist(), cap.cap_len.tolist())] == \
        [r.data for r in recs]
    end = int(cap.start[-1] + cap.cap_len[-1]) if recs else 0
    assert len(buf) - end >= max([r.cap_len for r in recs], default=0)
    assert not any(buf[end:])


class TestReadersAgree:
    """Capture.read and PcapReader share one record walk: every capture,
    whole, cut or corrupt, reads the same through both."""

    FRAMES = [ipv4_frame(payload=b"\x11" * 9), b"", b"\x01" * 5, arp_frame()]

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    @pytest.mark.parametrize("order,resolution", [
        ("<", "micro"), (">", "micro"), ("<", "nano"), (">", "nano")])
    def test_every_cut(self, tmp_path, order, resolution, through_pipe):
        p = tmp_path / "whole.pcap"
        write_pcap(p, [(i, i * 3, f) for i, f in enumerate(self.FRAMES)],
                   byte_order=order, ts_resolution=resolution)
        blob = p.read_bytes()
        for cut in range(len(blob) + 1):
            assert_readers_agree(blob[:cut], tmp_path / "cut.pcap", through_pipe)

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    @pytest.mark.parametrize("incl,orig,snaplen", [
        (50, 10, 65535), (70, 70, 64), (1 << 30, 1 << 30, 0)],
        ids=["incl-above-orig", "incl-above-snaplen", "claim-past-end"])
    def test_bad_third_record(self, tmp_path, incl, orig, snaplen, through_pipe):
        blob = (global_header(snaplen=snaplen) + record(b"\x01" * 30) + record(b"")
                + struct.pack("<IIII", 0, 0, incl, orig) + b"\xff" * 40)
        assert_readers_agree(blob, tmp_path / "bad.pcap", through_pipe)

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_huge_claim_not_allocated(self, tmp_path, through_pipe):
        blob = (global_header(snaplen=0) + record(b"\x00" * 30)
                + struct.pack("<IIII", 0, 0, 1 << 30, 1 << 30) + b"\xff" * 40)
        p = tmp_path / "claim.pcap"
        p.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedCaptureError) as ei:
                if through_pipe:
                    read_through_pipe(Capture.read, blob)
                else:
                    Capture.read(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.last_good_index == 0
        assert peak < 1 << 20

    def test_records_before_a_cut_are_yielded(self, tmp_path):
        p = tmp_path / "cut.pcap"
        p.write_bytes(global_header() + record(b"\x01" * 20) + record(b"\x02" * 3)
                      + struct.pack("<IIII", 0, 0, 100, 100) + b"\xff" * 40)
        seen = []
        with pytest.raises(TruncatedCaptureError, match="body after record 1"):
            for rec in read_pcap(p):
                seen.append(rec.data)
        assert seen == [b"\x01" * 20, b"\x02" * 3]


class TestWalkPrecedence:
    """The walk's verdict on one record: a corrupt header before a body
    that runs past the end, the first bad record before any later one, and
    a header cut at the end, each with its exact message and
    last_good_index, read by both readers from a file and from a pipe."""

    GOOD = record(b"\x01" * 30) + record(b"") + record(ipv4_frame())
    CASES = {
        # incl_len above orig_len, and the body it claims runs past the end
        "corrupt-and-past-end": (
            record(b"\x01" * 30) + struct.pack("<IIII", 0, 0, 100, 50) + b"\xff" * 40,
            (PcapFormatError, "<capture>: record 1 header is corrupt "
             "(incl_len=100, orig_len=50, snaplen=65535)", None)),
        # the corrupt third record's body fits and good records follow it
        "corrupt-after-two": (
            record(b"\x01" * 30) + record(b"\x02" * 4)
            + struct.pack("<IIII", 0, 0, 8, 7) + b"\xff" * 8 + GOOD,
            (PcapFormatError, "<capture>: record 2 header is corrupt "
             "(incl_len=8, orig_len=7, snaplen=65535)", None)),
        "header-cut-after-three": (
            GOOD + struct.pack("<IIII", 0, 0, 9, 9)[:7],
            (TruncatedCaptureError, "<capture>: truncated record header after record 2", 2)),
        "body-cut-after-three": (
            GOOD + struct.pack("<IIII", 0, 0, 9, 9) + b"\xff" * 8,
            (TruncatedCaptureError, "<capture>: truncated record body after record 2", 2)),
    }

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bad_record(self, tmp_path, case, through_pipe):
        tail, want = self.CASES[case]
        blob = global_header() + tail
        for read in (read_pcap_records, Capture.read):
            assert outcome(read, blob, tmp_path / "bad.pcap", through_pipe) == want

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_last_body_ending_at_the_end_reads_clean(self, tmp_path, through_pipe):
        blob = global_header() + self.GOOD
        _, recs = outcome(read_pcap_records, blob, tmp_path / "whole.pcap", through_pipe)
        assert [r.data for r in recs] == [b"\x01" * 30, b"", ipv4_frame()]
        cap = outcome(Capture.read, blob, tmp_path / "whole.pcap", through_pipe)
        assert cap.cap_len.tolist() == [30, 0, len(ipv4_frame())]
        assert int(cap.start[-1] + cap.cap_len[-1]) == len(blob) - 24


def rec_of(data):
    return PacketRecord(index=0, ts_sec=0, ts_frac=0, cap_len=len(data),
                        orig_len=len(data), data=data)


class TestDissect:
    def test_minimal_ipv4_tcp(self):
        d = dissect(rec_of(ipv4_frame()))
        assert (d.eth_end, d.ip_start, d.ip_end) == (14, 14, 34)
        assert (d.transport_start, d.payload_start) == (34, 54)
        assert d.l3_kind is L3Kind.IPV4 and d.proto == 6
        assert d.five_tuple.src_port == 5000 and d.five_tuple.dst_port == 80

    def test_udp_payload_offset(self):
        d = dissect(rec_of(ipv4_frame(proto=17)))
        assert d.payload_start == 14 + 20 + 8 == 42

    def test_one_vlan_tag_shifts_offsets(self):
        d = dissect(rec_of(ipv4_frame(vlan_tags=1)))
        assert d.eth_end == 18
        assert (d.ip_end, d.transport_start, d.payload_start) == (38, 38, 58)

    def test_non_ethernet_link_type(self, tmp_path):
        with pytest.raises(PcapFormatError, match="link type 101"):
            dissect(rec_of(ipv4_frame()), 101)
        p = tmp_path / "raw.pcap"
        p.write_bytes(global_header(linktype=101) + record(ipv4_frame()))
        with pytest.raises(PcapFormatError, match="link type 101"):
            Capture.read(p)

    def test_arp_is_non_ip(self):
        d = dissect(rec_of(arp_frame()))
        assert d.l3_kind is L3Kind.NON_IP
        assert d.ip_start is None and d.five_tuple is None

    def test_ipv6_fixed_header(self):
        d = dissect(rec_of(ipv6_frame(payload=b"hi")))
        assert d.ip_end == 14 + 40
        assert d.payload_start == 14 + 40 + 20
        assert d.l3_kind is L3Kind.IPV6

    def test_ipv6_extension_header_is_payload(self):
        # hop-by-hop (0) is not TCP/UDP, so no transport layer is claimed
        d = dissect(rec_of(ipv6_frame(next_header=0)))
        assert d.transport_start is None
        assert d.five_tuple.src_port == 0 and d.five_tuple.dst_port == 0

    def test_fragment_has_zero_ports_but_keys(self):
        d = dissect(rec_of(ipv4_frame(frag_offset=5)))
        assert d.transport_start is None
        assert d.five_tuple.src_port == 0 and d.five_tuple.dst_port == 0
        flow, session = keys(d)
        assert session.proto == 6

    def test_ihl_options(self):
        d = dissect(rec_of(ipv4_frame(ihl=8)))
        assert d.ip_end == 14 + 32

    def test_tcp_data_offset(self):
        d = dissect(rec_of(ipv4_frame(tcp_doff=8)))
        assert d.payload_start == 34 + 32

    def test_truncated_ip_degrades(self):
        frame = ipv4_frame()[:20]  # cuts into the IP header
        d = dissect(rec_of(frame))
        assert d.ip_start is None and d.l3_kind is L3Kind.NON_IP

    def test_truncated_transport_degrades(self):
        frame = ipv4_frame()[:40]  # IP complete, TCP header cut short
        d = dissect(rec_of(frame))
        assert d.ip_end == 34
        assert d.transport_start is None and d.payload_start is None

    def test_runt_frame(self):
        d = dissect(rec_of(b"\x01\x02\x03"))
        assert 0 < d.eth_end <= 3
        assert d.l3_kind is L3Kind.NON_IP

    def test_fuzz_offsets_bounded_and_monotonic(self):
        # Random mutations of well-formed frames must never violate the
        # offset ordering, exceed cap_len, or raise.
        rng = random.Random(7)
        base_frames = [ipv4_frame(payload=b"x" * 30), ipv4_frame(proto=17),
                       ipv6_frame(), arp_frame(), ipv4_frame(vlan_tags=2)]
        for trial in range(2000):
            frame = bytearray(rng.choice(base_frames))
            for _ in range(rng.randrange(1, 8)):
                frame[rng.randrange(len(frame))] = rng.randrange(256)
            if rng.random() < 0.5:
                frame = frame[:rng.randrange(1, len(frame) + 1)]
            d = dissect(rec_of(bytes(frame)))
            n = len(frame)
            assert 0 < d.eth_end <= n
            offsets = [d.eth_end, d.ip_start, d.ip_end, d.transport_start,
                       d.payload_start]
            present = [o for o in offsets if o is not None]
            assert all(a <= b for a, b in zip(present, present[1:]))
            assert all(0 <= o <= n for o in present)
            if d.ip_start is not None:
                assert d.ip_start == d.eth_end
            if d.transport_start is None and d.five_tuple is not None:
                assert d.five_tuple.src_port == 0 and d.five_tuple.dst_port == 0


# ---------------------------------------------------------------------------
# The dissector as it stood with one function per IP version, kept as the
# oracle that the single-body dissect is held to: verbatim, except that its
# names carry an oracle prefix and the module constants are written as
# their values, so that it shares no code with what it checks.

_ORACLE_VLAN_ETHERTYPES = (0x8100, 0x88A8, 0x9100)


def _oracle_u16(data: bytes, off: int) -> int:
    return (data[off] << 8) | data[off + 1]


def oracle_dissect(record: PacketRecord, link_type: int = 1) -> Dissection:
    if link_type != 1:
        raise PcapFormatError(f"unsupported link type {link_type}, expected Ethernet (1)")
    data = record.data
    n = len(data)

    def absent(eth_end):
        return Dissection(
            eth_end=eth_end, ip_start=None, ip_end=None, transport_start=None,
            payload_start=None, l3_kind=L3Kind.NON_IP, proto=None,
            five_tuple=None,
        )

    # Ethernet header, hopping over stacked VLAN tags.
    type_off = 12
    if type_off + 2 > n:
        return absent(max(n, 1))
    ethertype = _oracle_u16(data, type_off)
    while ethertype in _ORACLE_VLAN_ETHERTYPES:
        type_off += 4
        if type_off + 2 > n:
            return absent(n)  # tag stack runs off the capture
        ethertype = _oracle_u16(data, type_off)
    eth_end = type_off + 2

    if ethertype == 0x0800:
        return _oracle_dissect_ipv4(data, n, eth_end, absent)
    if ethertype == 0x86DD:
        return _oracle_dissect_ipv6(data, n, eth_end, absent)
    return absent(eth_end)


def _oracle_dissect_ipv4(data, n, eth_end, absent):
    if eth_end + 20 > n:
        return absent(eth_end)
    ihl = data[eth_end] & 0x0F
    hdr_len = ihl * 4
    if ihl < 5 or eth_end + hdr_len > n:
        return absent(eth_end)
    ip_end = eth_end + hdr_len
    proto = data[eth_end + 9]
    frag_offset = _oracle_u16(data, eth_end + 6) & 0x1FFF
    src = data[eth_end + 12:eth_end + 16]
    dst = data[eth_end + 16:eth_end + 20]
    ts, ps, sport, dport = _oracle_dissect_transport(data, n, ip_end, proto, frag_offset)
    return Dissection(
        eth_end=eth_end, ip_start=eth_end, ip_end=ip_end,
        transport_start=ts, payload_start=ps, l3_kind=L3Kind.IPV4, proto=proto,
        five_tuple=FiveTuple(src, dst, sport, dport, proto),
    )


def _oracle_dissect_ipv6(data, n, eth_end, absent):
    # Extension headers count as payload; only a direct TCP/UDP next-header
    # yields a transport layer.
    if eth_end + 40 > n:
        return absent(eth_end)
    proto = data[eth_end + 6]
    ip_end = eth_end + 40
    src = data[eth_end + 8:eth_end + 24]
    dst = data[eth_end + 24:eth_end + 40]
    ts, ps, sport, dport = _oracle_dissect_transport(data, n, ip_end, proto, 0)
    return Dissection(
        eth_end=eth_end, ip_start=eth_end, ip_end=ip_end,
        transport_start=ts, payload_start=ps, l3_kind=L3Kind.IPV6, proto=proto,
        five_tuple=FiveTuple(src, dst, sport, dport, proto),
    )


def _oracle_dissect_transport(data, n, ip_end, proto, frag_offset):
    """Returns (transport_start, payload_start, src_port, dst_port)."""
    if frag_offset != 0:
        return None, None, 0, 0  # non-first fragment carries no transport header
    if proto == 6:
        if ip_end + 20 > n:
            return None, None, 0, 0
        doff = (data[ip_end + 12] >> 4) * 4
        if doff < 20 or ip_end + doff > n:
            return None, None, 0, 0
        return ip_end, ip_end + doff, _oracle_u16(data, ip_end), _oracle_u16(data, ip_end + 2)
    if proto == 17:
        if ip_end + 8 > n:
            return None, None, 0, 0
        return ip_end, ip_end + 8, _oracle_u16(data, ip_end), _oracle_u16(data, ip_end + 2)
    return None, None, 0, 0


def _exactly(draw, size):
    return bytearray(draw(st.binary(min_size=size, max_size=size)))


def _often(draw, values, bits):
    """One of `values` (repeats weight it), or else any `bits`-bit value."""
    value = draw(st.sampled_from(values + [None]))
    return draw(st.integers(0, (1 << bits) - 1)) if value is None else value


@st.composite
def hostile_frames(draw):
    """Frames built layer by layer with the fields dissect branches on drawn
    near their edges: VLAN stacks (a last tag type may start one more tag
    that runs off the frame), IPv4 IHL 0-15 with options, fragment fields,
    IPv6 next headers (TCP, UDP, extension headers), TCP data offsets 0-15,
    then maybe cut, at any byte or beside the end of a header. One in eight
    is plain random bytes, runts and empty frames included."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=80))
    frame = _exactly(draw, 12)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        frame += struct.pack(">HH", draw(st.sampled_from(_ORACLE_VLAN_ETHERTYPES)),
                             draw(st.integers(0, 0xFFFF)))
    ethertype = _often(draw, [0x0800] * 3 + [0x86DD] * 2 + [0x0806, 0x8100], 16)
    frame += struct.pack(">H", ethertype)
    ends = [len(frame)]  # where each layer ends, for cuts at and beside them
    proto = _often(draw, [6] * 3 + [17] * 2 + [0, 43, 44, 58, 1], 8)
    if ethertype == 0x0800:
        ihl = _often(draw, [5] * 3 + [6, 8, 15, 0, 4], 4)
        ip = _exactly(draw, 20)
        ip[0] = 0x40 | ihl
        ip[6:8] = struct.pack(">H", _often(draw, [0] * 3 + [0x4000, 0x2000, 1, 0x1FFF], 16))
        ip[9] = proto
        frame += ip
        ends.append(len(frame))
        frame += _exactly(draw, max(ihl * 4 - 20, 0))
        ends.append(len(frame))
    elif ethertype == 0x86DD:
        ip = _exactly(draw, 40)
        ip[6] = proto
        frame += ip
        ends.append(len(frame))
    if proto == 6:
        doff = _often(draw, [5] * 3 + [6, 8, 15, 0, 4], 4)
        tcp = _exactly(draw, 20)
        tcp[12] = doff << 4
        frame += tcp
        ends.append(len(frame))
        frame += _exactly(draw, max(doff * 4 - 20, 0))
    elif proto == 17:
        frame += _exactly(draw, 8)
    ends.append(len(frame))
    frame += draw(st.binary(max_size=16))
    if draw(st.integers(0, 2)) == 0:
        near_end = st.sampled_from([max(e + d, 0) for e in ends for d in (-1, 0, 1)])
        frame = frame[:draw(near_end | st.integers(0, len(frame)))]
    return bytes(frame)


def hand_built_cuts():
    """Every cut of frames built to sit on each rule's edge, the empty frame
    and runts included."""
    more_fragments = bytearray(ipv4_frame())
    more_fragments[20] |= 0x20  # MF flag set on a first fragment
    frames = [ipv4_frame(payload=b"x"), bytes(more_fragments), ipv4_frame(proto=17),
              ipv4_frame(proto=1), ipv4_frame(ihl=4), ipv4_frame(ihl=8),
              ipv4_frame(frag_offset=5), ipv4_frame(frag_offset=0x1000),
              ipv4_frame(vlan_tags=3),
              ipv4_frame(tcp_doff=4), ipv4_frame(tcp_doff=15),
              ipv6_frame(payload=b"x"), ipv6_frame(next_header=17),
              ipv6_frame(next_header=0), arp_frame()]
    return [frame[:cut] for frame in frames for cut in range(len(frame) + 1)]


class TestDissectMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hostile_frames())
    def test_hostile_frames(self, frame):
        assert dissect(rec_of(frame)) == oracle_dissect(rec_of(frame))

    def test_hand_built_frames(self):
        for frame in hand_built_cuts():
            assert dissect(rec_of(frame)) == oracle_dissect(rec_of(frame))


def column_row(cols, i) -> tuple:
    """Row i of dissect_frames' columns as the fields of dissect's Dissection
    they hold, (eth_end, ip_end, l3_kind, five_tuple), the FiveTuple read
    from the key row after checking its padding and the all-zero row of a
    non-IP frame."""
    eth_end, ip_end, key = int(cols.eth_end[i]), int(cols.ip_end[i]), bytes(cols.key[i])
    if ip_end < 0:
        assert key == bytes(40)
        return eth_end, None, L3Kind.NON_IP, None
    version = key[0]
    assert version in (4, 6)
    width = 4 if version == 4 else 16
    src, dst = key[1:17], key[19:35]
    assert src[width:] == dst[width:] == bytes(16 - width) and key[38:] == bytes(2)
    return eth_end, ip_end, L3Kind.IPV4 if version == 4 else L3Kind.IPV6, FiveTuple(
        src[:width], dst[:width], int.from_bytes(key[17:19], "big"),
        int.from_bytes(key[35:37], "big"), key[37])


def held_fields(d: Dissection) -> tuple:
    """The fields of a Dissection that dissect_frames' columns hold."""
    return d.eth_end, d.ip_end, d.l3_kind, d.five_tuple


def assert_columns_match(frames, gaps=None):
    """dissect_frames over `frames` laid out in one buffer, each followed by
    its gap of bytes that belong to no frame, equals dissect row by row."""
    gaps = gaps if gaps is not None else [b""] * len(frames)
    cap_len = np.array([len(f) for f in frames], dtype=np.int64)
    stride = cap_len + np.array([len(g) for g in gaps], dtype=np.int64)
    buffer = b"".join(f + g for f, g in zip(frames, gaps))
    cols = dissect_frames(np.frombuffer(buffer, dtype=np.uint8),
                          np.cumsum(stride) - stride, cap_len)
    assert all(len(column) == len(frames) for column in vars(cols).values())
    assert cols.key.shape == (len(frames), 40) and cols.key.dtype == np.uint8
    for i, frame in enumerate(frames):
        want = dissect(rec_of(frame))
        assert want == oracle_dissect(rec_of(frame)), i
        assert column_row(cols, i) == held_fields(want), i


class TestDissectFramesMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(hostile_frames(), st.binary(max_size=3)), max_size=12))
    def test_hostile_buffers(self, pieces):
        assert_columns_match([f for f, _ in pieces], [g for _, g in pieces])

    def test_every_cut_of_the_hand_built_frames(self):
        assert_columns_match(hand_built_cuts())

    def test_no_frames(self):
        assert_columns_match([])


def packed_session_key(frame: bytes) -> bytes:
    """keys(dissect(frame))[1] in the layout of FrameColumns.key, the
    version told by the address length; 40 zero bytes for a non-IP frame."""
    d = dissect(rec_of(frame))
    if d.five_tuple is None:
        return bytes(40)
    session = keys(d)[1]
    (a, a_port), (b, b_port) = session.endpoint_a, session.endpoint_b
    return b"".join([bytes([4 if len(a) == 4 else 6]),
                     a.ljust(16, b"\0"), a_port.to_bytes(2, "big"),
                     b.ljust(16, b"\0"), b_port.to_bytes(2, "big"),
                     bytes([session.proto, 0, 0])])


def session_edge_frames() -> list[bytes]:
    """Sessions whose endpoint order is decided late or not at all: equal
    endpoints, endpoints that differ only in the port, IPv6 addresses that
    differ only in the last byte, each in both directions."""
    host, v6 = (10, 0, 0, 9), bytes(range(15))
    return [ipv4_frame(src=host, dst=host, sport=5000, dport=5000),
            ipv4_frame(src=host, dst=host, sport=80, dport=5000),
            ipv4_frame(src=host, dst=host, sport=5000, dport=80),
            ipv4_frame(proto=17, src=host, dst=host, sport=1, dport=0),
            ipv6_frame(src=v6 + b"\x02", dst=v6 + b"\x01"),
            ipv6_frame(src=v6 + b"\x01", dst=v6 + b"\x02", sport=80, dport=5000),
            ipv6_frame(src=v6 + b"\x01", dst=v6 + b"\x01", sport=80, dport=80),
            ipv6_frame(next_header=17, src=v6 + b"\x01", dst=v6 + b"\x01",
                       sport=81, dport=80)]


class TestSessionRows:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(hostile_frames(), max_size=12), st.randoms(use_true_random=False))
    def test_rows_pack_the_session_key(self, drawn, rng):
        frames = drawn + session_edge_frames()
        rng.shuffle(frames)
        buffer = b"".join(frames)
        cap_len = np.array([len(f) for f in frames], dtype=np.int64)
        cols = dissect_frames(np.frombuffer(buffer, dtype=np.uint8),
                              np.cumsum(cap_len) - cap_len, cap_len)
        key = cols.key.copy()
        rows = session_rows(cols.key)
        assert np.array_equal(cols.key, key)  # the flow keys are left as they were
        assert rows.shape == (len(frames), 40) and rows.dtype == np.uint8
        assert [bytes(row) for row in rows] == [packed_session_key(f) for f in frames]


class TestKeys:
    def test_session_key_direction_invariant(self):
        fwd = dissect(rec_of(ipv4_frame(src=(10, 0, 0, 1), dst=(10, 0, 0, 2),
                                        sport=5000, dport=80)))
        rev = dissect(rec_of(ipv4_frame(src=(10, 0, 0, 2), dst=(10, 0, 0, 1),
                                        sport=80, dport=5000)))
        f1, s1 = keys(fwd)
        f2, s2 = keys(rev)
        assert s1 == s2
        assert f1 != f2

    def test_identical_packets_identical_flow_keys(self):
        a = keys(dissect(rec_of(ipv4_frame())))[0]
        b = keys(dissect(rec_of(ipv4_frame())))[0]
        assert a == b

    def test_non_ip_raises(self):
        with pytest.raises(NonIpPacketError):
            keys(dissect(rec_of(arp_frame())))

    def test_session_key_invariance_random_tuples(self):
        rng = random.Random(3)
        for _ in range(300):
            src = tuple(rng.randrange(256) for _ in range(4))
            dst = tuple(rng.randrange(256) for _ in range(4))
            sport, dport = rng.randrange(65536), rng.randrange(65536)
            proto = rng.choice([6, 17])
            fwd = dissect(rec_of(ipv4_frame(src=src, dst=dst, sport=sport,
                                            dport=dport, proto=proto)))
            rev = dissect(rec_of(ipv4_frame(src=dst, dst=src, sport=dport,
                                            dport=sport, proto=proto)))
            assert keys(fwd)[1] == keys(rev)[1]
