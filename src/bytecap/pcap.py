"""Classic libpcap file reading/writing and packet dissection.

Only the classic format with the Ethernet link type is handled (magic
0xA1B2C3D4 family, both byte orders, micro- and nanosecond timestamps).
Dissection covers Ethernet/802.1Q + IPv4/IPv6 + TCP/UDP; anything
malformed degrades to absent offsets instead of raising, because real
capture files contain garbage frames. After its fixed 24-byte global
header, a capture's records are read in one read sized by the file
(`_bounded.read_rest`), never by a length a record claims, and their
headers walked once (`_walk`): its loop only follows each incl_len, and
every claim is checked against the bytes read on the header columns it
collected, after the loop; `PcapReader` yields records from that walk and
`PcapReader.read_frames` returns its columns. `dissect` states the rules
for one packet; `dissect_frames` applies the same rules to every frame
of a buffer at once, as numpy columns.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from ._bounded import read_rest

LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
SNAPLEN = 65535  # the snaplen write_pcap declares

# (byte order prefix, timestamp resolution) keyed by the magic read big-endian.
_MAGIC_TABLE = {
    0xA1B2C3D4: (">", "micro"),
    0xD4C3B2A1: ("<", "micro"),
    0xA1B23C4D: (">", "nano"),
    0x4D3CB2A1: ("<", "nano"),
}

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
_VLAN_ETHERTYPES = (0x8100, 0x88A8, 0x9100)

PROTO_TCP = 6
PROTO_UDP = 17


class PcapFormatError(ValueError):
    """File is not a readable classic-pcap capture."""


class TruncatedCaptureError(ValueError):
    """Capture ends mid-record. Carries the index of the last good record."""

    def __init__(self, message: str, last_good_index: int):
        super().__init__(message)
        self.last_good_index = last_good_index


class NonIpPacketError(ValueError):
    """Keying was requested for a packet with no usable IP layer."""


class L3Kind(Enum):
    IPV4 = "ipv4"
    IPV6 = "ipv6"
    NON_IP = "non-ip"


@dataclass(frozen=True)
class FiveTuple:
    """Directed transport endpoints; doubles as the flow key."""

    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    proto: int


@dataclass(frozen=True)
class SessionKey:
    """Direction-free key: endpoint pairs stored in sorted order."""

    endpoint_a: tuple[bytes, int]
    endpoint_b: tuple[bytes, int]
    proto: int


@dataclass
class PacketRecord:
    index: int
    ts_sec: int
    ts_frac: int
    cap_len: int
    orig_len: int
    data: bytes

    def timestamp(self, scale: float = 1e-6) -> float:
        """Seconds since epoch; pass the capture's ts_scale for nano files."""
        return self.ts_sec + self.ts_frac * scale


@dataclass
class CaptureMeta:
    byte_order: str  # struct prefix, "<" or ">"
    ts_resolution: str  # "micro" or "nano"
    snaplen: int
    link_type: int

    @property
    def ts_scale(self) -> float:
        return 1e-9 if self.ts_resolution == "nano" else 1e-6


@dataclass
class Dissection:
    """Byte offsets of protocol layer boundaries within one frame.

    Offsets are None whenever the enclosing layer is absent or truncated;
    eth_end always exists (clamped to cap_len for runt frames).
    """

    eth_end: int
    ip_start: Optional[int]
    ip_end: Optional[int]
    transport_start: Optional[int]
    payload_start: Optional[int]
    l3_kind: L3Kind
    proto: Optional[int]
    five_tuple: Optional[FiveTuple]


class PcapReader:
    """Reader over one classic-pcap file.

    `meta` is parsed eagerly on open, and a link type other than Ethernet
    is refused there. The records after the global header are read in one
    read, sized by the file (a pipe to its end), and walked once by
    `_walk`. Iterating yields PacketRecord in file order;
    when the walk stops at a bad record, the records before it are yielded
    before its error is raised. `read_frames` returns the same records as
    one buffer with offset columns. Either makes the one pass a reader
    has: the file closes after its read, so a second pass sees no records.
    Usable as a context manager.
    """

    def __init__(self, path):
        self._path = str(path)
        self._fp = open(path, "rb")
        try:
            self.meta = self._read_global_header()
        except Exception:
            self._fp.close()
            raise

    def _read_global_header(self) -> CaptureMeta:
        head = self._fp.read(GLOBAL_HEADER_LEN)
        if len(head) < 4:
            raise PcapFormatError(f"{self._path}: file too short for a pcap global header")
        magic_be = struct.unpack(">I", head[:4])[0]
        if magic_be not in _MAGIC_TABLE:
            raise PcapFormatError(
                f"{self._path}: unsupported capture magic 0x{magic_be:08X} (not classic pcap)"
            )
        if len(head) < GLOBAL_HEADER_LEN:
            raise PcapFormatError(f"{self._path}: truncated global header")
        order, resolution = _MAGIC_TABLE[magic_be]
        _, _, _, _, snaplen, linktype = struct.unpack(order + "HHiIII", head[4:])
        if linktype != LINKTYPE_ETHERNET:
            raise PcapFormatError(
                f"{self._path}: unsupported link type {linktype}, expected Ethernet (1)"
            )
        return CaptureMeta(order, resolution, snaplen, linktype)

    def _records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[Exception]]:
        """Read the records left (`read_rest`) and walk them: the buffer
        read, each good record's body offset in it and its
        (ts_sec, ts_frac, incl_len, orig_len) as an (n, 4) int64 array, and
        the error that stopped the walk early, if any."""
        buf, size = np.zeros(0, dtype=np.uint8), 0
        if not self._fp.closed:
            with self._fp as fp:
                # padding for the longest frame the file can hold: snaplen,
                # or the bytes read if fewer or if snaplen is 0
                buf, size = read_rest(fp, self.meta.snaplen or sys.maxsize)
        return (buf, *_walk(buf, size, self.meta.byte_order, self.meta.snaplen,
                            self._path))

    def __iter__(self) -> Iterator[PacketRecord]:
        buf, start, fields, error = self._records()
        raw = memoryview(buf)
        for index, (at, (ts_sec, ts_frac, incl_len, orig_len)) in enumerate(
                zip(start.tolist(), fields.tolist())):
            yield PacketRecord(index, ts_sec, ts_frac, incl_len, orig_len,
                               raw[at:at + incl_len].tobytes())
        if error is not None:
            raise error

    def read_frames(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every record at once: (frames, start, cap_len).

        frames is the uint8 buffer as read, record headers in place, so
        frame i is frames[start[i]:start[i] + cap_len[i]]; after the last
        record it holds at least as many zero bytes as the longest frame,
        so a window of up to that width may start anywhere up to the end
        of any frame. start and cap_len are int64. A bad record raises its
        error.
        """
        frames, start, fields, error = self._records()
        if error is not None:
            raise error
        return frames, start, fields[:, 2].copy()

    def close(self):
        if not self._fp.closed:
            self._fp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _walk(buf: np.ndarray, size: int, order: str, snaplen: int,
          path: str) -> tuple[np.ndarray, np.ndarray, Optional[Exception]]:
    """Walk the records that fill buf[:size], the bytes after a global header.

    The loop only follows each record's incl_len to the next header; the
    record rules are checked after it, on the header columns it found.
    Returns each good record's int64 body offset, its (ts_sec, ts_frac,
    incl_len, orig_len) as an (n, 4) int64 array and, when a record is
    bad, the error for the first one (None when the walk reaches the end):
    an incl_len above its orig_len or a nonzero snaplen, a body that runs
    past the end, or a header cut short, in that order of precedence on one
    record. The records before it are the ones returned.
    """
    incl_len = struct.Struct(order + "8xI").unpack_from
    raw, at, heads = memoryview(buf), 0, []
    append, last = heads.append, size - RECORD_HEADER_LEN
    while at <= last:
        append(at)
        at += incl_len(raw, at)[0] + RECORD_HEADER_LEN
    heads = np.array(heads, dtype=np.int64)
    start = heads + RECORD_HEADER_LEN
    fields = _windows(buf, heads, RECORD_HEADER_LEN)
    fields = fields.view(order + "u4").astype(np.int64)
    corrupt = fields[:, 2] > fields[:, 3]
    if snaplen:
        corrupt |= fields[:, 2] > snaplen
    index, error = len(start), None
    if corrupt.any():
        index = int(corrupt.argmax())
        _, _, incl, orig = fields[index].tolist()
        error = PcapFormatError(f"{path}: record {index} header is corrupt "
                                f"(incl_len={incl}, orig_len={orig}, snaplen={snaplen})")
    elif at > size:
        index -= 1
        error = _truncated(path, "body", index)
    elif at < size:
        error = _truncated(path, "header", index)
    return start[:index], fields[:index], error


def _truncated(path: str, part: str, index: int) -> TruncatedCaptureError:
    """Record `index`'s header or body ends early; the records before it were read."""
    message = (f"{path}: truncated record {part} after record {index - 1}" if index
               else f"{path}: truncated first record {part}, no record was read")
    return TruncatedCaptureError(message, last_good_index=index - 1)


def read_pcap(path) -> PcapReader:
    """Open a capture; metadata is on `.meta`, records come from iterating it."""
    return PcapReader(path)


def read_pcap_records(path) -> tuple[CaptureMeta, list[PacketRecord]]:
    """Convenience: fully read a capture into memory."""
    with PcapReader(path) as r:
        return r.meta, list(r)


_RECORD_HEADER = {order: struct.Struct(order + "IIII") for order in "<>"}


def write_pcap(path, records, *, byte_order="<", ts_resolution="micro"):
    """Write records as a classic-pcap Ethernet capture (fixture/corpus writer).

    `records` is an iterable of PacketRecord or (ts_sec, ts_frac, data)
    tuples; orig_len defaults to len(data). A record that the reader would
    refuse, one longer than SNAPLEN or with orig_len below len(data),
    raises ValueError naming its index before the file is created.
    """
    [magic] = [m for m, form in _MAGIC_TABLE.items() if form == (byte_order, ts_resolution)]
    fields = [_record_fields(rec) for rec in records]
    for index, (_, _, data, orig) in enumerate(fields):
        if len(data) > SNAPLEN:
            raise ValueError(f"record {index} holds {len(data)} bytes, "
                             f"more than the file's snaplen {SNAPLEN}")
        if orig < len(data):
            raise ValueError(f"record {index} has orig_len {orig}, "
                             f"below its {len(data)} captured bytes")
    pack = _RECORD_HEADER[byte_order].pack
    body = b"".join([part for ts_sec, ts_frac, data, orig in fields
                     for part in (pack(ts_sec, ts_frac, len(data), orig), data)])
    with open(path, "wb") as fp:
        fp.write(struct.pack(">I", magic))
        fp.write(struct.pack(byte_order + "HHiIII", 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET))
        fp.write(body)


def _record_fields(rec) -> tuple[int, int, bytes, int]:
    """(ts_sec, ts_frac, data, orig_len) of a write_pcap record."""
    if isinstance(rec, PacketRecord):
        return rec.ts_sec, rec.ts_frac, rec.data, rec.orig_len
    ts_sec, ts_frac, data = rec
    return ts_sec, ts_frac, data, len(data)


def _u16(data: bytes, off: int) -> int:
    return (data[off] << 8) | data[off + 1]


def _absent(eth_end: int) -> Dissection:
    """A frame with no usable IP layer: only its Ethernet end is known."""
    return Dissection(
        eth_end=eth_end, ip_start=None, ip_end=None, transport_start=None,
        payload_start=None, l3_kind=L3Kind.NON_IP, proto=None, five_tuple=None,
    )


def dissect(record: PacketRecord, link_type: int = LINKTYPE_ETHERNET) -> Dissection:
    """Compute layer boundaries and the 5-tuple for one Ethernet frame.

    Never raises on malformed content: a layer whose header would run past
    cap_len is reported absent, along with everything beneath it.
    """
    if link_type != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported link type {link_type}, expected Ethernet (1)")
    data = record.data
    n = len(data)

    # Ethernet header, hopping over stacked VLAN tags.
    type_off = 12
    if type_off + 2 > n:
        return _absent(max(n, 1))
    ethertype = _u16(data, type_off)
    while ethertype in _VLAN_ETHERTYPES:
        type_off += 4
        if type_off + 2 > n:
            return _absent(n)  # tag stack runs off the capture
        ethertype = _u16(data, type_off)
    eth_end = type_off + 2

    if ethertype == ETHERTYPE_IPV4 and eth_end + 20 <= n:
        ip_end = eth_end + (data[eth_end] & 0x0F) * 4
        if ip_end < eth_end + 20 or ip_end > n:  # IHL below 5, or options cut off
            return _absent(eth_end)
        kind, proto = L3Kind.IPV4, data[eth_end + 9]
        frag_offset = _u16(data, eth_end + 6) & 0x1FFF
        src, dst = data[eth_end + 12:eth_end + 16], data[eth_end + 16:eth_end + 20]
    elif ethertype == ETHERTYPE_IPV6 and eth_end + 40 <= n:
        # Extension headers count as payload; only a direct TCP/UDP next-header
        # yields a transport layer.
        ip_end = eth_end + 40
        kind, proto, frag_offset = L3Kind.IPV6, data[eth_end + 6], 0
        src, dst = data[eth_end + 8:eth_end + 24], data[eth_end + 24:ip_end]
    else:
        return _absent(eth_end)
    ts, ps, sport, dport = _dissect_transport(data, n, ip_end, proto, frag_offset)
    return Dissection(
        eth_end=eth_end, ip_start=eth_end, ip_end=ip_end,
        transport_start=ts, payload_start=ps, l3_kind=kind, proto=proto,
        five_tuple=FiveTuple(src, dst, sport, dport, proto),
    )


def _dissect_transport(data, n, ip_end, proto, frag_offset):
    """Returns (transport_start, payload_start, src_port, dst_port)."""
    if frag_offset != 0:
        return None, None, 0, 0  # non-first fragment carries no transport header
    if proto == PROTO_TCP:
        if ip_end + 20 > n:
            return None, None, 0, 0
        doff = (data[ip_end + 12] >> 4) * 4
        if doff < 20 or ip_end + doff > n:
            return None, None, 0, 0
        return ip_end, ip_end + doff, _u16(data, ip_end), _u16(data, ip_end + 2)
    if proto == PROTO_UDP:
        if ip_end + 8 > n:
            return None, None, 0, 0
        return ip_end, ip_end + 8, _u16(data, ip_end), _u16(data, ip_end + 2)
    return None, None, 0, 0


def keys(d: Dissection) -> tuple[FiveTuple, SessionKey]:
    """Directed flow key and direction-canonicalized session key."""
    t = d.five_tuple
    if d.l3_kind is L3Kind.NON_IP or t is None:
        raise NonIpPacketError("packet has no IP layer, cannot form flow/session keys")
    a = (t.src_ip, t.src_port)
    b = (t.dst_ip, t.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return t, SessionKey(lo, hi, t.proto)


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """dissect's fields for every frame of one buffer, one array per field.

    Row i describes frames[start[i]:start[i] + cap_len[i]]. An offset that
    dissect reports as None is -1 here, as is a non-IP frame's proto, and
    ip_version is 4, 6 or 0 (non-IP). A frame with no transport header has
    ports 0. src and dst hold an IP frame's addresses left-aligned in 16
    bytes, an IPv4 address zero-padded; a non-IP frame's are all zero.
    """

    eth_end: np.ndarray
    ip_end: np.ndarray
    ip_version: np.ndarray
    proto: np.ndarray
    transport_start: np.ndarray
    payload_start: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    src: np.ndarray
    dst: np.ndarray


def _u8s(frames: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return frames[pos].astype(np.int64)  # int64 before any shift


def _u16s(frames: np.ndarray, pos: np.ndarray) -> np.ndarray:
    return _u8s(frames, pos) << 8 | _u8s(frames, pos + 1)


def _windows(frames: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """frames[p:p + width] for each p of pos, one row each."""
    if not pos.size:  # the buffer may then be shorter than one window
        return np.zeros((0, width), dtype=np.uint8)
    return np.lib.stride_tricks.sliding_window_view(frames, width)[pos]


def dissect_frames(frames, start, cap_len) -> FrameColumns:
    """dissect for every frame of one buffer at once.

    Each rule reads only the rows that passed its bounds check, so no read
    leaves its frame; VLAN stacks are hopped by a loop over tag depth that
    carries only the rows still tagged.
    """
    frames = np.asarray(frames, dtype=np.uint8)
    start = np.asarray(start, dtype=np.int64)
    n = np.asarray(cap_len, dtype=np.int64)
    count = len(n)

    # Ethernet header. A tagged row's type is replaced only while the next
    # type field fits, so a stack that runs off the frame keeps a VLAN type.
    type_off = np.full(count, 12, dtype=np.int64)
    ethertype = np.full(count, -1, dtype=np.int64)
    rows = np.flatnonzero(n >= 14)
    ethertype[rows] = _u16s(frames, start[rows] + 12)
    rows = rows[np.isin(ethertype[rows], _VLAN_ETHERTYPES)]
    while rows.size:
        type_off[rows] += 4
        rows = rows[type_off[rows] + 2 <= n[rows]]
        ethertype[rows] = _u16s(frames, start[rows] + type_off[rows])
        rows = rows[np.isin(ethertype[rows], _VLAN_ETHERTYPES)]
    ran_off = np.isin(ethertype, _VLAN_ETHERTYPES)
    eth_end = np.where(n < 14, np.maximum(n, 1), np.where(ran_off, n, type_off + 2))
    ip = start + eth_end  # where each frame's IP header would start

    v4 = np.flatnonzero((ethertype == ETHERTYPE_IPV4) & (eth_end + 20 <= n))
    v4_end = eth_end[v4] + (_u8s(frames, ip[v4]) & 0x0F) * 4
    whole = (v4_end >= eth_end[v4] + 20) & (v4_end <= n[v4])  # IHL >= 5, options inside
    v4, v4_end = v4[whole], v4_end[whole]
    v6 = np.flatnonzero((ethertype == ETHERTYPE_IPV6) & (eth_end + 40 <= n))
    ip_end = np.full(count, -1, dtype=np.int64)
    ip_end[v4], ip_end[v6] = v4_end, eth_end[v6] + 40
    ip_version = np.zeros(count, dtype=np.int8)
    ip_version[v4], ip_version[v6] = 4, 6
    proto = np.full(count, -1, dtype=np.int64)
    proto[v4], proto[v6] = _u8s(frames, ip[v4] + 9), _u8s(frames, ip[v6] + 6)
    src = np.zeros((count, 16), dtype=np.uint8)
    dst = np.zeros((count, 16), dtype=np.uint8)
    src[v4, :4], dst[v4, :4] = _windows(frames, ip[v4] + 12, 4), _windows(frames, ip[v4] + 16, 4)
    src[v6], dst[v6] = _windows(frames, ip[v6] + 8, 16), _windows(frames, ip[v6] + 24, 16)

    # Transport header: a non-first fragment carries none; IPv6 extension
    # headers count as payload.
    first_fragment = (_u16s(frames, ip[v4] + 6) & 0x1FFF) == 0
    rows = np.concatenate([v4[first_fragment], v6])
    room = n[rows] - ip_end[rows]
    tcp = rows[(proto[rows] == PROTO_TCP) & (room >= 20)]
    doff = (_u8s(frames, start[tcp] + ip_end[tcp] + 12) >> 4) * 4
    whole = (doff >= 20) & (ip_end[tcp] + doff <= n[tcp])
    tcp, doff = tcp[whole], doff[whole]
    udp = rows[(proto[rows] == PROTO_UDP) & (room >= 8)]
    l4 = np.concatenate([tcp, udp])
    transport_start = np.full(count, -1, dtype=np.int64)
    payload_start = np.full(count, -1, dtype=np.int64)
    transport_start[l4] = ip_end[l4]
    payload_start[l4] = ip_end[l4] + np.concatenate([doff, np.full(len(udp), 8)])
    src_port = np.zeros(count, dtype=np.int64)
    dst_port = np.zeros(count, dtype=np.int64)
    src_port[l4] = _u16s(frames, start[l4] + ip_end[l4])
    dst_port[l4] = _u16s(frames, start[l4] + ip_end[l4] + 2)
    return FrameColumns(eth_end, ip_end, ip_version, proto, transport_start,
                        payload_start, src_port, dst_port, src, dst)
