"""Deterministic synthetic pcap corpora for desk-scale experiments.

Each class gets payload bytes drawn from its own range, so classes are
separable from raw bytes alone. Frames carry well-formed Ethernet, IPv4
and TCP/UDP headers (with real checksums) and varied 5-tuples; everything
is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pcap import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP, SNAPLEN, write_pcap
from .views import class_catalog


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


def synth_classes(task: str, sessions: int) -> list[SynthClass]:
    """One class per name of `class_catalog(task)`, in label order, of
    `sessions` sessions each. Payload bands split 0..255 into equal widths
    of 256 // classes, the last running on to 255: binary's are 0x00-0x7F
    and 0x80-0xFF, multi's 21 values each and 25 in the last."""
    names = class_catalog(task)
    width = 256 // len(names)
    return [SynthClass(name, i * width, 255 if i == len(names) - 1 else (i + 1) * width - 1,
                       sessions) for i, name in enumerate(names)]


def binary_synth_classes(sessions_per_class: int) -> list[SynthClass]:
    return synth_classes("binary", sessions_per_class)


# One frame's Ethernet + IPv4 header, then its transport header; every
# multi-byte field big-endian, as on the wire. A TCP frame's headers are
# 54 bytes, a UDP frame's 42.
_ETH_IPV4 = [
    ("dst_mac", "u1", (6,)), ("src_mac", "u1", (6,)), ("ethertype", ">u2"),
    ("version_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ident", ">u2"),
    ("flags_frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("ip_sum", ">u2"),
    ("src_ip", "u1", (4,)), ("dst_ip", "u1", (4,)), ("sport", ">u2"), ("dport", ">u2"),
]
_TCP_FRAME = np.dtype(_ETH_IPV4 + [
    ("seq", ">u4"), ("ack", ">u4"), ("data_off", "u1"), ("flags", "u1"),
    ("window", ">u2"), ("l4_sum", ">u2"), ("urgent", ">u2")])
_UDP_FRAME = np.dtype(_ETH_IPV4 + [("length", ">u2"), ("l4_sum", ">u2")])
_IP_AT, _L4_AT = _TCP_FRAME.fields["version_ihl"][1], _TCP_FRAME.fields["sport"][1]
MAX_PAYLOAD = SNAPLEN - _TCP_FRAME.itemsize  # the longest payload a frame can carry

_DPORTS = [80, 443, 8080, 1883, 23]
_BASE_TS = 1_600_000_000


def _slug(name: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in name)


def _check_recipe(classes, packets_per_session, payload_len):
    """Refuse, naming the class or argument, a recipe the generator cannot
    write as asked."""
    if len(classes) < 2:
        raise ValueError("a corpus needs at least 2 classes")
    for cls in classes:
        if not 0 <= cls.byte_low <= cls.byte_high <= 255:
            raise ValueError(f"class {cls.name!r}: payload bytes must satisfy "
                             f"0 <= byte_low <= byte_high <= 255, "
                             f"got {cls.byte_low} and {cls.byte_high}")
    lo, hi = packets_per_session
    if not 1 <= lo <= hi:
        raise ValueError(f"packets_per_session must satisfy 1 <= lo <= hi, "
                         f"got {packets_per_session}")
    lo, hi = payload_len
    if not 0 <= lo <= hi <= MAX_PAYLOAD:
        raise ValueError(f"payload_len must satisfy 0 <= lo <= hi <= {MAX_PAYLOAD}, "
                         f"got {payload_len}")


def synth_corpus(out_dir, classes: list[SynthClass], seed: int = 0, *,
                 packets_per_session: tuple[int, int] = (4, 10),
                 payload_len: tuple[int, int] = (60, 180)) -> list[tuple[Path, str]]:
    """Write one pcap per class; returns [(path, class name), ...].

    Sessions are bidirectional exchanges between random endpoints with
    monotonically increasing timestamps; a quarter of them, drawn per
    session, run over UDP and the rest over TCP. Fixing the seed fixes
    every output byte.

    One generator serves the classes in order, and its draws are the only
    sequential part (`_draw`): per session, the packet count, UDP flag,
    two addresses, source port, destination port, two MACs and two
    starting sequence numbers; then per packet of that session, the
    payload length, payload bytes and timestamp step. Everything else is
    derived from the draws as numpy columns over the class (`_frames`):
    directions, sequence and ack numbers, idents, lengths, timestamps,
    header bytes and checksums. The bytes are the same for every seed as
    when each frame was packed on its own.

    A class byte band outside 0 <= byte_low <= byte_high <= 255, a
    `packets_per_session` outside 1 <= lo <= hi, or a `payload_len`
    outside 0 <= lo <= hi <= MAX_PAYLOAD is refused with a ValueError
    before `out_dir` is created.
    """
    _check_recipe(classes, packets_per_session, payload_len)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    results = []
    for cls in classes:
        path = out_dir / f"{_slug(cls.name)}.pcap"
        write_pcap(path, _frames(*_draw(rng, cls, packets_per_session, payload_len)))
        results.append((path, cls.name))
    return results


def _draw(rng, cls: SynthClass, packets_per_session, payload_len):
    """One class's draws, in the order that fixes every byte: a list of
    per-session tuples, then per packet its payload length, its payload
    bytes (all payloads in one array) and its timestamp step."""
    integers = rng.integers
    plen_low, plen_high = payload_len[0], payload_len[1] + 1
    byte_low, byte_high = cls.byte_low, cls.byte_high + 1
    sessions, plens, payloads, steps = [], [], [], []
    for _ in range(cls.sessions):
        n_pkts = integers(packets_per_session[0], packets_per_session[1] + 1)
        sessions.append((
            n_pkts,
            rng.random() < 0.25,  # over UDP
            integers(0, 256, 3, dtype=np.uint8),  # source 10.x.y.z
            integers(0, 256, 3, dtype=np.uint8),  # destination
            integers(1024, 65536),  # source port
            rng.choice(_DPORTS),
            integers(0, 256, 4, dtype=np.uint8),  # source MAC 02:00:...
            integers(0, 256, 4, dtype=np.uint8),  # destination MAC 02:01:...
            integers(0, 2**31),  # forward starting sequence number
            integers(0, 2**31),  # reverse
        ))
        for _ in range(n_pkts):
            plen = integers(plen_low, plen_high)
            plens.append(plen)
            payloads.append(integers(byte_low, byte_high, size=plen, dtype=np.uint8))
            steps.append(integers(200, 5000))
    return (sessions, np.array(plens, dtype=np.int64), np.concatenate(payloads),
            np.array(steps, dtype=np.int64))


def _prefixed(prefix, tails) -> np.ndarray:
    """(S, len(prefix) + k) uint8 rows: `prefix` followed by each drawn tail."""
    tails = np.asarray(tails, dtype=np.uint8)
    return np.hstack([np.tile(np.array(prefix, dtype=np.uint8), (len(tails), 1)), tails])


def _word(field, dtype=_TCP_FRAME) -> int:
    """The index of `field` among a frame's 16-bit words."""
    return dtype.fields[field][1] // 2


def _fold(total: np.ndarray) -> np.ndarray:
    """The Internet checksum (RFC 1071) of words whose plain sum is `total`."""
    while (total > 0xFFFF).any():
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _part_mask(lengths, part) -> np.ndarray:
    """A mask over frames laid out as runs of `lengths`, (headers, payload,
    pad) per frame, that is True on each frame's `part`."""
    return np.repeat(np.arange(len(lengths)) % 3 == part, lengths)


def _frames(sessions, plen, payload, steps) -> list[tuple[int, int, memoryview]]:
    """The (ts_sec, ts_usec, frame) records one class's draws make.

    Packets alternate direction within a session, its initiator first.
    TCP sequence and ack numbers run on per direction from the drawn
    starts; the IPv4 ident is session * 251 + packet index; the clock runs
    on across the class's sessions, one drawn step of microseconds per
    packet. Checksums are summed
    over the frames as laid out, each frame padded to an even length.
    """
    (n_pkts, udp, src_ip, dst_ip, sport, dport, src_mac, dst_mac,
     seq_fwd, seq_rev) = zip(*sessions)
    n_pkts = np.array(n_pkts, dtype=np.int64)
    first = np.cumsum(n_pkts) - n_pkts
    sess = np.repeat(np.arange(len(n_pkts)), n_pkts)
    rows = np.arange(len(sess))
    index = rows - first[sess]  # the packet's place in its session
    side = index & 1  # 0: the initiator sends; strict alternation keeps both flows populated
    udp = np.array(udp)[sess]

    # each packet's source is its sender's end of the session, its
    # destination the other end
    ips = np.stack([_prefixed([10], src_ip), _prefixed([10], dst_ip)])
    macs = np.stack([_prefixed([2, 0], src_mac), _prefixed([2, 1], dst_mac)])
    ports = np.array([sport, dport], dtype=np.int64)
    src, dst = (side, sess), (1 - side, sess)

    # bytes each end sent earlier in the session move its sequence number
    sent = np.zeros((2, len(rows)), dtype=np.int64)
    sent[side, rows] = plen
    before = np.cumsum(sent, axis=1) - sent
    before -= before[:, first][:, sess]
    next_seq = (np.array([seq_fwd, seq_rev], dtype=np.int64)[:, sess] + before) & 0xFFFFFFFF

    usec = np.cumsum(steps)
    ts_sec, ts_usec = _BASE_TS + usec // 1_000_000, usec % 1_000_000

    head_len = np.where(udp, _UDP_FRAME.itemsize, _TCP_FRAME.itemsize)
    l4_len = head_len - _L4_AT + plen
    proto = np.where(udp, PROTO_UDP, PROTO_TCP)
    columns = {  # header fields per packet; tos, urgent and checksums are 0
        "dst_mac": macs[dst], "src_mac": macs[src], "ethertype": ETHERTYPE_IPV4,
        "version_ihl": 0x45, "total_len": head_len - _IP_AT + plen,
        "ident": (sess * 251 + index) & 0xFFFF, "flags_frag": 0x4000, "ttl": 64,
        "proto": proto, "src_ip": ips[src], "dst_ip": ips[dst],
        "sport": ports[src], "dport": ports[dst],
        "seq": next_seq[side, rows], "ack": next_seq[1 - side, rows],
        "data_off": 5 << 4, "flags": 0x18, "window": 65535, "length": l4_len,
    }
    heads = np.zeros((len(rows), _TCP_FRAME.itemsize), dtype=np.uint8)
    for dtype, sel in ((_TCP_FRAME, ~udp), (_UDP_FRAME, udp)):
        h = np.zeros(np.count_nonzero(sel), dtype=dtype)
        for name in dtype.names:
            if name in columns:
                h[name] = columns[name][sel] if np.ndim(columns[name]) else columns[name]
        heads[sel, :dtype.itemsize] = h.view(np.uint8).reshape(-1, dtype.itemsize)

    # lay out each frame as headers, payload and a zero pad to an even
    # length; the checksum fields are 0 until summed
    frame_len = head_len + plen
    pad = frame_len & 1
    parts = np.column_stack([head_len, plen, pad]).ravel()
    start = np.cumsum(frame_len + pad) - frame_len - pad
    buf = np.zeros(start[-1] + frame_len[-1] + pad[-1], dtype=np.uint8)
    buf[_part_mask(parts, 0)] = heads[np.arange(heads.shape[1]) < head_len[:, None]]
    buf[_part_mask(parts, 1)] = payload

    # sum the words of each frame's Ethernet header, IPv4 header, and
    # transport header with payload; the pseudo-header is added from columns
    words, at = buf.view(">u2"), start // 2
    runs = at[:, None] + np.array([0, _IP_AT // 2, _L4_AT // 2])
    # a run sums below 2**32: it holds at most 32,768 words (SNAPLEN)
    sums = np.add.reduceat(words, runs.ravel(), dtype=np.uint32).reshape(-1, 3)
    ip_words = ips.view(">u2").astype(np.int64).sum(axis=2)
    pseudo = ip_words[src] + ip_words[dst] + proto + l4_len
    l4_sum = _fold(sums[:, 2] + pseudo)
    l4_sum[udp & (l4_sum == 0)] = 0xFFFF  # 0 means "no checksum" in UDP
    words[at + _word("ip_sum")] = _fold(sums[:, 1])
    words[at + np.where(udp, _word("l4_sum", _UDP_FRAME), _word("l4_sum"))] = l4_sum

    frames = memoryview(buf)
    return [(s, u, frames[a:a + n]) for s, u, a, n in
            zip(ts_sec.tolist(), ts_usec.tolist(), start.tolist(), frame_len.tolist())]


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
