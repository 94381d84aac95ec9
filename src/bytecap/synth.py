"""Deterministic synthetic pcap corpora for desk-scale experiments.

Each class gets payload bytes drawn from its own range, so classes are
separable from raw bytes alone. Frames carry well-formed Ethernet, IPv4
and TCP/UDP headers (with real checksums) and varied 5-tuples; everything
is a pure function of the seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pcap import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP, SNAPLEN, write_frames
from .views import class_catalog


@dataclass(frozen=True)
class SynthClass:
    """Byte-distribution parameters for one traffic class; a class that
    breaks a rule below is refused, naming it, with a ValueError when made."""

    name: str  # not empty, and kept by a labels line (`_keeps_name`)
    byte_low: int  # payload bytes drawn uniformly from [byte_low, byte_high]
    byte_high: int  # 0 <= byte_low <= byte_high <= 255
    sessions: int  # >= 1

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError(f"class {self.name!r}: sessions must be >= 1, "
                             f"got {self.sessions}")
        if not _keeps_name(self.name):
            raise ValueError(f"class {self.name!r}: a class name cannot hold ',', a line "
                             "feed or a carriage return, nor start or end with white space")
        if not self.name:
            raise ValueError("class '': a class needs a name")
        if not 0 <= self.byte_low <= self.byte_high <= 255:
            raise ValueError(f"class {self.name!r}: payload bytes must satisfy "
                             f"0 <= byte_low <= byte_high <= 255, "
                             f"got {self.byte_low} and {self.byte_high}")


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
_STEP_LOW, _STEP_R = 200, 4800  # a packet's timestamp step: 200 to 4999 microseconds
# raw generator outputs a pass of `_walk` works on, carried words included;
# a block's arrays (32 to 64 KiB) stay below glibc's 128 KiB mmap
# threshold, since larger transients that come and go raise the process's
# peak RSS
_BLOCK = 1 << 12


def _slug(name: str) -> str:
    return "".join(c.lower() if c.isalnum() else "_" for c in name)


def _check_recipe(classes, packets_per_session, payload_len):
    """Refuse, naming the classes or argument, a recipe the generator cannot
    write as asked, by the rules no one class states."""
    if len(classes) < 2:
        raise ValueError("a corpus needs at least 2 classes")
    named = {}  # file name -> class name
    for cls in classes:
        slug = _slug(cls.name)
        if slug in named:
            raise ValueError(f"classes {named[slug]!r} and {cls.name!r} would both "
                             f"be written to {slug}.pcap")
        named[slug] = cls.name
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

    One raw word stream serves the classes in order: the 32-bit words of
    `default_rng(seed)`'s PCG64 outputs, read only through `random_raw`.
    Each class's draws (`_walk`) start at the word after the last the class
    before it took, by the rules of the `Generator` calls they stand for,
    which `_walk` states and tests/test_synth.py pins; they are the only
    sequential part. Everything else is derived from the draws as numpy
    columns over the class (`_frames`). The bytes are the same for every
    seed as when each frame was packed on its own.

    Each class has checked its own band, name and sessions when it was
    made. Before `out_dir` is created, a ValueError naming the classes or
    argument refuses fewer than two classes, two names that give one file
    name, a `packets_per_session` outside 1 <= lo <= hi and a `payload_len`
    outside 0 <= lo <= hi <= MAX_PAYLOAD.
    """
    _check_recipe(classes, packets_per_session, payload_len)
    bitgen = np.random.default_rng(seed).bit_generator
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    left = np.zeros(0, dtype="<u4"), 0
    results = []
    for cls in classes:
        path = out_dir / f"{_slug(cls.name)}.pcap"
        draws, left = _walk(bitgen, left, cls, packets_per_session, payload_len)
        write_frames(path, *_frames(*draws))
        results.append((path, cls.name))
    return results


def _walk(bitgen, left, cls: SynthClass, packets_per_session, payload_len):
    """One class's draws and the words it left. The draws, in the order that
    fixes every byte, are a (10, sessions) array of session columns (packet
    count, UDP flag, the words the source and destination address bytes
    are read from, source port, destination port's index in `_DPORTS`, the
    two MACs' words, and the two starting sequence numbers), then per
    packet its payload length, its payload bytes (all payloads in one
    array) and its timestamp step. They are those of these Generator calls:

        for _ in range(cls.sessions):
            n_pkts = rng.integers(packets_per_session[0], packets_per_session[1] + 1)
            rng.random() < 0.25                                # over UDP
            rng.integers(0, 256, 3, dtype=np.uint8)            # source 10.x.y.z
            rng.integers(0, 256, 3, dtype=np.uint8)            # destination
            rng.integers(1024, 65536)                          # source port
            _DPORTS[rng.integers(0, len(_DPORTS))]             # destination port
            rng.integers(0, 256, 4, dtype=np.uint8)            # source MAC 02:00:...
            rng.integers(0, 256, 4, dtype=np.uint8)            # destination MAC 02:01:...
            rng.integers(0, 2**31), rng.integers(0, 2**31)     # starting sequence numbers
            for _ in range(n_pkts):
                plen = rng.integers(payload_len[0], payload_len[1] + 1)
                rng.integers(cls.byte_low, cls.byte_high + 1, size=plen, dtype=np.uint8)
                rng.integers(200, 5000)                        # timestamp step

    They are read from one stream of 32-bit words, by the rules those
    calls follow (tests/test_synth.py pins them against numpy):
    - the words are each raw PCG64 output's low half, then its high half;
    - a scalar draw over r values (Lemire's bounded draw) takes a word w,
      takes the next one while (w * r) mod 2**32 < (2**32 - r) mod r, and
      returns low + (w * r) >> 32;
    - a sized uint8 draw starts a word of its own and reads its bytes, low
      byte first, by the same rule at 8 bits (every byte is kept when r is
      256), dropping the bytes left in its last word;
    - a draw over one value, or of size 0, takes no word;
    - `random()` takes the next whole output x, and a high half it passes
      over is the next word drawn; it is below 0.25 exactly when x < 2**62.

    `left` is (words, pos): the words from an even word of the stream on,
    the low half of an output, and the index of the next word to draw, so
    `pos & 1` tells whether `random()` passes over a high half. The class
    starts there and returns the next class's `left`, a copy that frees
    its last pass. More words are read from `bitgen` (`random_raw`) a pass
    at a time, about `_BLOCK` outputs with the words carried over; a
    session cut by a pass's end is drawn again in the next, which doubles
    the carried words when they outgrow a block.
    """
    words, pos = left
    count_range = packets_per_session[0], packets_per_session[1] + 1
    plen_low, plen_r = payload_len[0], payload_len[1] + 1 - payload_len[0]
    plen_floor, step_floor = _floor(plen_r), _floor(_STEP_R)
    byte_low, byte_r = cls.byte_low, cls.byte_high + 1 - cls.byte_low
    byte_floor = (256 - byte_r) % byte_r
    draw = _scalar_draw
    sessions, passes, payloads = [], [], []
    while len(sessions) < cls.sessions:
        words, pos = words[pos & ~1:], pos & 1
        carried = len(words) // 2  # whole outputs
        more = bitgen.random_raw(_BLOCK - carried if carried < _BLOCK else carried)
        words = np.concatenate([words, more.astype("<u8").view("<u4")])
        # the kept payload bytes, and how many are kept before each word
        # (four 0/1 bytes sum in the top byte of their product with 0x01010101)
        m = words.view(np.uint8).astype(np.uint16) * byte_r
        kept = (m & 0xFF) >= byte_floor
        kept_bytes = (m[kept] >> 8).astype(np.uint8) + np.uint8(byte_low)
        before = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum((kept.view("<u4") * np.uint32(0x01010101)) >> np.uint32(24),
                  out=before[1:])
        table, before = memoryview(words), memoryview(before)
        packets = []  # per packet of this pass: payload length, first kept byte, step
        try:
            while len(sessions) < cls.sessions:
                cut, mark = pos, len(packets)
                n_pkts, pos = draw(table, pos, *count_range)
                # random() takes the next whole output, passing over a high
                # half (which the source address then takes); the output is
                # below 2**62 when its high half is below 2**30
                half = pos & 1
                udp = table[pos + 1 + half] < 2**30
                src_ip, dst_ip = table[pos + 2 - 2 * half], table[pos + 3]
                sport, pos = draw(table, pos + 4, 1024, 65536)
                dport, pos = draw(table, pos, 0, len(_DPORTS))
                src_mac, dst_mac = table[pos], table[pos + 1]
                seq_fwd, pos = draw(table, pos + 2, 0, 2**31)
                seq_rev, pos = draw(table, pos, 0, 2**31)
                # the payload length and timestamp step take the word at pos
                # when it is accepted, as _scalar_draw would, and otherwise
                # leave the draw to it
                for _ in range(n_pkts):
                    m = table[pos] * plen_r
                    if m & 0xFFFFFFFF >= plen_floor:
                        plen, pos = plen_low + (m >> 32), pos + 1
                    else:
                        plen, pos = draw(table, pos, plen_low, plen_low + plen_r)
                    first = 0
                    if plen and byte_r > 1:  # on to the word after the last kept byte's
                        first = before[pos]
                        pos = bisect_right(before, first + plen - 1, pos)
                    m = table[pos] * _STEP_R
                    if m & 0xFFFFFFFF >= step_floor:
                        step, pos = _STEP_LOW + (m >> 32), pos + 1
                    else:
                        step, pos = draw(table, pos, _STEP_LOW, _STEP_LOW + _STEP_R)
                    packets += plen, first, step
                sessions.append((n_pkts, udp, src_ip, dst_ip, sport, dport, src_mac,
                                 dst_mac, seq_fwd, seq_rev))
        except IndexError:  # the words ran out inside this session
            pos = cut
            del packets[mark:]
        passes.append(np.array(packets, dtype=np.int64).reshape(-1, 3).T)
        plens, firsts, _ = passes[-1]
        ranks = np.repeat(firsts - (np.cumsum(plens) - plens), plens) + np.arange(plens.sum())
        payloads.append(kept_bytes[ranks] if byte_r > 1  # a one-value band takes no word
                        else np.full(len(ranks), byte_low, dtype=np.uint8))

    columns = np.array(sessions, dtype=np.int64).reshape(-1, 10).T
    plens, _, steps = np.concatenate(passes, axis=1)
    return ((columns, plens, np.concatenate(payloads), steps),
            (words[pos & ~1:].copy(), pos & 1))


def _floor(r: int) -> int:
    """Lemire's rejection floor: a scalar draw over r values rejects a word
    w while (w * r) mod 2**32 is below it. For r = 1, whose draw takes no
    word, it is above every such value, so a loop that tries a word first
    leaves a one-value draw to _scalar_draw."""
    return (2**32 - r) % r if r > 1 else 2**32


def _scalar_draw(words, pos: int, low: int, high: int) -> tuple[int, int]:
    """`integers(low, high)` from the 32-bit words at `pos`: its value, and
    the word after the last it takes."""
    r = high - low
    if r == 1:
        return low, pos
    floor = _floor(r)
    m = words[pos] * r
    while m & 0xFFFFFFFF < floor:
        pos += 1
        m = words[pos] * r
    return low + (m >> 32), pos + 1


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


def _frames(sessions, plen, payload, steps) -> tuple[np.ndarray, ...]:
    """The records one class's draws make, as `write_frames` takes them
    after the path: (frames, start, frame_len, ts_sec, ts_usec, frame_len),
    frame i being frames[start[i]:start[i] + frame_len[i]], captured whole.

    Packets alternate direction within a session, its initiator first.
    TCP sequence and ack numbers run on per direction from the drawn
    starts; the IPv4 ident is session * 251 + packet index; the clock runs
    on across the class's sessions, one drawn step of microseconds per
    packet. Checksums are summed over the frames as laid out, each frame
    padded to an even length.
    """
    (n_pkts, udp, src_ip, dst_ip, sport, dport, src_mac, dst_mac,
     seq_fwd, seq_rev) = sessions
    first = np.cumsum(n_pkts) - n_pkts
    sess = np.repeat(np.arange(len(n_pkts)), n_pkts)
    rows = np.arange(len(sess))
    index = rows - first[sess]  # the packet's place in its session
    side = index & 1  # 0: the initiator sends; strict alternation keeps both flows populated
    udp = udp.astype(bool)[sess]

    # each packet's source is its sender's end of the session, its
    # destination the other end: 10 and a drawn word's low three bytes,
    # 02:00 or 02:01 and its four bytes, low byte first
    ips = (np.stack([src_ip, dst_ip]) << 8 | 10).astype("<u4").view(np.uint8).reshape(2, -1, 4)
    macs = (np.stack([src_mac << 16 | 0x0002, dst_mac << 16 | 0x0102])
            .astype("<u8").view(np.uint8).reshape(2, -1, 8)[:, :, :6])
    ports = np.stack([sport, np.array(_DPORTS)[dport]])
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

    return buf, start, frame_len, ts_sec, ts_usec, frame_len


def _keeps_name(name: str) -> bool:
    # a labels line is "pcap-path,class-name", split at its last comma and stripped
    return not any(c in name for c in ",\n\r") and name == name.strip()


def write_labels_file(path, entries: list[tuple[Path, str]]):
    """Label map consumed by dataset building: one "pcap-path,class" line
    each, which `read_labels_file` reads back as the same class name and a
    path to the same file; a relative path that starts with white space or
    '#' is written after "./". Before the file is created, an entry the
    reader could not return is refused with a ValueError naming it."""
    lines = []
    for p, name in entries:
        p = str(p)
        if any(c in p for c in "\n\r") or p != p.rstrip() or not _keeps_name(name):
            raise ValueError(f"labels entry ({p!r}, {name!r}) would not read back: neither "
                             "part can hold a line feed or a carriage return or end with "
                             "white space, nor the class name hold ',' or start with one")
        lines.append(f"{'./' if p[:1].isspace() or p[:1] == '#' else ''}{p},{name}\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))


def read_utf8_text(path) -> str:
    """A text file's contents less a leading BOM, every line ending read as a
    line feed, or a ValueError naming the file and the first line not UTF-8."""
    # bytes that are not UTF-8 decode to lone surrogates, which do not
    # encode back, so the line that holds them can be named
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fp:
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
