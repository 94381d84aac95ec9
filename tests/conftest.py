"""Shared fixtures: hand-built frames and session-scoped synthetic corpora."""

import os
import struct
import threading

import pytest

from bytecap.synth import binary_synth_classes, synth_corpus


def ipv4_frame(payload=b"", proto=6, src=(10, 0, 0, 1), dst=(10, 0, 0, 2),
               sport=5000, dport=80, vlan_tags=0, ihl=5, tcp_doff=5,
               frag_offset=0, ttl=64):
    """Assemble an Ethernet/IPv4 frame byte by byte (test-side oracle)."""
    eth = b"\xaa" * 6 + b"\xbb" * 6
    for i in range(vlan_tags):
        eth += struct.pack(">HH", 0x8100, i)
    eth += struct.pack(">H", 0x0800)
    if proto == 6:
        l4 = struct.pack(">HHIIBBHHH", sport, dport, 1, 2, tcp_doff << 4,
                         0x18, 65535, 0, 0)
        l4 += b"\x00" * (tcp_doff * 4 - 20)
    elif proto == 17:
        l4 = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0)
    else:
        l4 = b""
    ip_len = ihl * 4
    total = ip_len + len(l4) + len(payload)
    ip = struct.pack(">BBHHHBBH4B4B", (4 << 4) | ihl, 0, total, 1,
                     frag_offset & 0x1FFF, ttl, proto, 0, *src, *dst)
    ip += b"\x00" * (ip_len - 20)
    return eth + ip + l4 + payload


def arp_frame():
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0806)
    return eth + b"\x00" * 28


def ipv6_frame(payload=b"", next_header=6, sport=5000, dport=80, tcp_doff=5,
               src=bytes(range(16)), dst=bytes(range(16, 32))):
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x86DD)
    if next_header == 6:
        l4 = struct.pack(">HHIIBBHHH", sport, dport, 1, 2, tcp_doff << 4,
                         0x18, 65535, 0, 0) + b"\x00" * (tcp_doff * 4 - 20)
    elif next_header == 17:
        l4 = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0)
    else:
        l4 = b""
    ip = struct.pack(">IHBB", 6 << 28, len(l4) + len(payload), next_header, 64)
    ip += src + dst
    return eth + ip + l4 + payload


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


def read_through_pipe(read, blob: bytes):
    """read(path) where the path is a pipe that a thread fills with `blob`."""
    r, w = os.pipe()

    def feed():
        try:
            left = memoryview(blob)
            while left:
                left = left[os.write(w, left):]
        except BrokenPipeError:  # the reader stopped before the end
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.fixture(scope="session")
def corpus_small(tmp_path_factory):
    """Two-class corpus, 12 sessions per class."""
    d = tmp_path_factory.mktemp("corpus_small")
    return synth_corpus(d, binary_synth_classes(12), seed=5)


@pytest.fixture(scope="session")
def corpus_acceptance(tmp_path_factory):
    """Two-class corpus with >= 400 total sessions (acceptance scale)."""
    d = tmp_path_factory.mktemp("corpus_accept")
    return synth_corpus(d, binary_synth_classes(210), seed=42)


@pytest.fixture(scope="session")
def corpus_bench(tmp_path_factory):
    """Timing corpus: >= 400 sessions with realistically long exchanges."""
    d = tmp_path_factory.mktemp("corpus_bench")
    return synth_corpus(d, binary_synth_classes(210), seed=43,
                        packets_per_session=(50, 120))
