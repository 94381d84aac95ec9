"""Deterministic synthetic pcap corpora for desk-scale experiments.

Each class gets payload bytes drawn from its own range, so classes are
separable from raw bytes alone. Frames carry well-formed Ethernet, IPv4
and TCP/UDP headers (with real checksums) and varied 5-tuples; everything
is a pure function of the seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pcap import PROTO_TCP, PROTO_UDP, PacketRecord, write_pcap
from .views import BOTNET_CLASSES


@dataclass
class SynthClass:
    """Byte-distribution parameters for one traffic class."""

    name: str
    byte_low: int  # payload bytes drawn uniformly from [byte_low, byte_high]
    byte_high: int
    sessions: int

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError(f"class {self.name!r}: sessions must be >= 1, "
                             f"got {self.sessions}")


def binary_synth_classes(sessions_per_class: int) -> list[SynthClass]:
    return [
        SynthClass("benign", 0x00, 0x7F, sessions_per_class),
        SynthClass("malicious", 0x80, 0xFF, sessions_per_class),
    ]


def multi_synth_classes(sessions_per_class: int) -> list[SynthClass]:
    """12 classes with disjoint payload byte bands across 0..255."""
    out = []
    width = 256 // len(BOTNET_CLASSES)
    for i, name in enumerate(BOTNET_CLASSES):
        lo = i * width
        hi = lo + width - 1 if i < len(BOTNET_CLASSES) - 1 else 255
        out.append(SynthClass(name, lo, hi, sessions_per_class))
    return out


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


def synth_corpus(out_dir, classes: list[SynthClass], seed: int = 0, *,
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


def write_labels_file(path, entries: list[tuple[Path, str]]):
    """Label map consumed by dataset building: one "pcap-path,class" line each."""
    with open(path, "w", encoding="utf-8") as fp:
        for p, name in entries:
            fp.write(f"{p},{name}\n")


def read_utf8_text(path) -> str:
    """A text file's contents, every line ending read as a line feed, or a
    ValueError naming the file and the first line that is not UTF-8."""
    # bytes that are not UTF-8 decode to lone surrogates, which do not
    # encode back, so the line that holds them can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fp:
        text = fp.read()
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        line_no = text.count("\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line_no}: line is not UTF-8") from None
    return text


def read_labels_file(path) -> list[tuple[str, str]]:
    entries = []
    for line_no, line in enumerate(read_utf8_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise ValueError(f"{path}:{line_no}: expected 'pcap-path,class-name'")
        p, name = line.rsplit(",", 1)
        entries.append((p.strip(), name.strip()))
    return entries
