"""Classic libpcap file reading/writing and packet dissection.

Only the classic format is handled (magic 0xA1B2C3D4 family, both byte
orders, micro- and nanosecond timestamps). Dissection covers
Ethernet/802.1Q + IPv4/IPv6 + TCP/UDP; anything malformed degrades to
absent offsets instead of raising, because real capture files contain
garbage frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from ._bounded import CHUNK, read_exact

LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

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


FlowKey = FiveTuple


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
    magic: int
    byte_order: str  # struct prefix, "<" or ">"
    ts_resolution: str  # "micro" or "nano"
    version: tuple[int, int]
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
    """Streaming reader over one classic-pcap file.

    Iterating yields PacketRecord in file order with bounded memory.
    Usable as a context manager; `meta` is parsed eagerly on open.
    """

    def __init__(self, path):
        self._path = str(path)
        self._fp = open(path, "rb")
        try:
            self.meta = self._read_global_header()
        except Exception:
            self._fp.close()
            raise
        self._index = 0
        self._exhausted = False

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
        vmaj, vmin, _zone, _sigfigs, snaplen, linktype = struct.unpack(
            order + "HHiIII", head[4:]
        )
        return CaptureMeta(
            magic=magic_be,
            byte_order=order,
            ts_resolution=resolution,
            version=(vmaj, vmin),
            snaplen=snaplen,
            link_type=linktype,
        )

    def __iter__(self) -> Iterator[PacketRecord]:
        return self

    def __next__(self) -> PacketRecord:
        if self._exhausted:
            raise StopIteration
        head = self._fp.read(RECORD_HEADER_LEN)
        if len(head) == 0:
            self._exhausted = True
            self.close()
            raise StopIteration
        if len(head) < RECORD_HEADER_LEN:
            raise TruncatedCaptureError(
                f"{self._path}: truncated record header after record {self._index - 1}",
                last_good_index=self._index - 1,
            )
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(
            self.meta.byte_order + "IIII", head
        )
        if incl_len > orig_len or (self.meta.snaplen and incl_len > self.meta.snaplen):
            raise PcapFormatError(
                f"{self._path}: record {self._index} header is corrupt "
                f"(incl_len={incl_len}, orig_len={orig_len}, snaplen={self.meta.snaplen})"
            )
        # the common short record is one plain read; a longer claim goes
        # through the bounded read, which refuses it before allocating
        data = (self._fp.read(incl_len) if incl_len <= CHUNK
                else read_exact(self._fp, incl_len, self._truncated_body))
        if len(data) < incl_len:
            raise self._truncated_body(len(data))
        rec = PacketRecord(
            index=self._index,
            ts_sec=ts_sec,
            ts_frac=ts_frac,
            cap_len=incl_len,
            orig_len=orig_len,
            data=data,
        )
        self._index += 1
        return rec

    def _truncated_body(self, have: int) -> TruncatedCaptureError:
        return TruncatedCaptureError(
            f"{self._path}: truncated record body after record {self._index - 1}",
            last_good_index=self._index - 1,
        )

    def close(self):
        if not self._fp.closed:
            self._fp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_pcap(path) -> PcapReader:
    """Open a capture for streaming iteration; metadata is on `.meta`."""
    return PcapReader(path)


def read_pcap_records(path) -> tuple[CaptureMeta, list[PacketRecord]]:
    """Convenience: fully read a capture into memory."""
    with PcapReader(path) as r:
        return r.meta, list(r)


def write_pcap(path, records, *, snaplen=65535, link_type=LINKTYPE_ETHERNET,
               byte_order="<", ts_resolution="micro"):
    """Write records as a classic-pcap file (fixture/corpus writer).

    `records` is an iterable of PacketRecord or (ts_sec, ts_frac, data)
    tuples; orig_len defaults to len(data).
    """
    magic = {
        ("<", "micro"): 0xD4C3B2A1,
        (">", "micro"): 0xA1B2C3D4,
        ("<", "nano"): 0x4D3CB2A1,
        (">", "nano"): 0xA1B23C4D,
    }[(byte_order, ts_resolution)]
    with open(path, "wb") as fp:
        fp.write(struct.pack(">I", magic))
        fp.write(struct.pack(byte_order + "HHiIII", 2, 4, 0, 0, snaplen, link_type))
        for rec in records:
            if isinstance(rec, PacketRecord):
                ts_sec, ts_frac, data, orig = rec.ts_sec, rec.ts_frac, rec.data, rec.orig_len
            else:
                ts_sec, ts_frac, data = rec
                orig = len(data)
            fp.write(struct.pack(byte_order + "IIII", ts_sec, ts_frac, len(data), orig))
            fp.write(data)


def _u16(data: bytes, off: int) -> int:
    return (data[off] << 8) | data[off + 1]


def dissect(record: PacketRecord, link_type: int = LINKTYPE_ETHERNET) -> Dissection:
    """Compute layer boundaries and the 5-tuple for one Ethernet frame.

    Never raises on malformed content: a layer whose header would run past
    cap_len is reported absent, along with everything beneath it.
    """
    if link_type != LINKTYPE_ETHERNET:
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
    ethertype = _u16(data, type_off)
    while ethertype in _VLAN_ETHERTYPES:
        type_off += 4
        if type_off + 2 > n:
            return absent(n)  # tag stack runs off the capture
        ethertype = _u16(data, type_off)
    eth_end = type_off + 2

    if ethertype == ETHERTYPE_IPV4:
        return _dissect_ipv4(data, n, eth_end, absent)
    if ethertype == ETHERTYPE_IPV6:
        return _dissect_ipv6(data, n, eth_end, absent)
    return absent(eth_end)


def _dissect_ipv4(data, n, eth_end, absent):
    if eth_end + 20 > n:
        return absent(eth_end)
    ihl = data[eth_end] & 0x0F
    hdr_len = ihl * 4
    if ihl < 5 or eth_end + hdr_len > n:
        return absent(eth_end)
    ip_end = eth_end + hdr_len
    proto = data[eth_end + 9]
    frag_offset = _u16(data, eth_end + 6) & 0x1FFF
    src = data[eth_end + 12:eth_end + 16]
    dst = data[eth_end + 16:eth_end + 20]
    ts, ps, sport, dport = _dissect_transport(data, n, ip_end, proto, frag_offset)
    return Dissection(
        eth_end=eth_end, ip_start=eth_end, ip_end=ip_end,
        transport_start=ts, payload_start=ps, l3_kind=L3Kind.IPV4, proto=proto,
        five_tuple=FiveTuple(src, dst, sport, dport, proto),
    )


def _dissect_ipv6(data, n, eth_end, absent):
    # Extension headers count as payload; only a direct TCP/UDP next-header
    # yields a transport layer.
    if eth_end + 40 > n:
        return absent(eth_end)
    proto = data[eth_end + 6]
    ip_end = eth_end + 40
    src = data[eth_end + 8:eth_end + 24]
    dst = data[eth_end + 24:eth_end + 40]
    ts, ps, sport, dport = _dissect_transport(data, n, ip_end, proto, 0)
    return Dissection(
        eth_end=eth_end, ip_start=eth_end, ip_end=ip_end,
        transport_start=ts, payload_start=ps, l3_kind=L3Kind.IPV6, proto=proto,
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


def keys(d: Dissection) -> tuple[FlowKey, SessionKey]:
    """Directed flow key and direction-canonicalized session key."""
    t = d.five_tuple
    if d.l3_kind is L3Kind.NON_IP or t is None:
        raise NonIpPacketError("packet has no IP layer, cannot form flow/session keys")
    a = (t.src_ip, t.src_port)
    b = (t.dst_ip, t.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return t, SessionKey(lo, hi, t.proto)
