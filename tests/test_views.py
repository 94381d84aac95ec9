"""View splitting, header categories, sample assembly and dataset IO."""

import dataclasses
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap import views
from bytecap.pcap import PacketRecord, dissect, keys, read_pcap_records, write_pcap
from bytecap.synth import binary_synth_classes, synth_corpus
from bytecap.views import (
    BOTNET_CLASSES,
    Capture,
    DatasetFile,
    DatasetFormatError,
    DatasetHeader,
    HeaderCategory,
    Provenance,
    Sample,
    ViewKind,
    assemble_sample,
    build_dataset,
    byte_distribution,
    filter_packets,
    label_index,
    read_capture,
    read_dataset,
    read_dataset_header,
    split_indices,
    split_view,
    strip_headers,
    train_val_split,
    write_dataset,
)
from conftest import arp_frame, ipv4_frame, ipv6_frame, needs_dev_fd, read_through_pipe

ALL = HeaderCategory.ALL_HEADERS
ONLY_ETH = HeaderCategory.ONLY_ETHERNET
NO_ETH = HeaderCategory.WITHOUT_ETHERNET
NONE = HeaderCategory.NO_HEADERS


def pair(data, index=0, ts=0):
    rec = PacketRecord(index=index, ts_sec=ts, ts_frac=0, cap_len=len(data),
                       orig_len=len(data), data=data)
    return rec, dissect(rec)


def four_packet_fixture():
    """A->B, B->A, A->B, C->D with shared ports/proto for the A,B pair."""
    a_to_b = ipv4_frame(src=(10, 0, 0, 1), dst=(10, 0, 0, 2), sport=5000, dport=80)
    b_to_a = ipv4_frame(src=(10, 0, 0, 2), dst=(10, 0, 0, 1), sport=80, dport=5000)
    c_to_d = ipv4_frame(src=(10, 0, 0, 3), dst=(10, 0, 0, 4), sport=1234, dport=443)
    return [pair(a_to_b, 0, 0), pair(b_to_a, 1, 1), pair(a_to_b, 2, 2),
            pair(c_to_d, 3, 3)]


class TestSplitView:
    def test_session_groups_both_directions(self):
        units = split_view(four_packet_fixture(), ViewKind.SESSION)
        assert sorted(len(u) for u in units.values()) == [1, 3]

    def test_flow_splits_directions(self):
        units = split_view(four_packet_fixture(), ViewKind.FLOW)
        assert sorted(len(u) for u in units.values()) == [1, 1, 2]

    def test_packet_view_singletons(self):
        units = split_view(four_packet_fixture(), ViewKind.PACKET)
        assert len(units) == 4
        assert all(len(u) == 1 for u in units.values())

    def test_capture_order_kept_within_units(self):
        units = split_view(four_packet_fixture(), ViewKind.SESSION)
        big = max(units.values(), key=len)
        assert [rec.index for rec, _ in big] == [0, 1, 2]

    def test_partition_against_bruteforce_oracle(self):
        # Compare with a pairwise 5-tuple comparison grouping (no hashing).
        rng = random.Random(11)
        pairs = []
        for i in range(120):
            src = (10, 0, 0, rng.randrange(4))
            dst = (10, 0, 0, rng.randrange(4))
            sport = rng.choice([1000, 2000])
            dport = rng.choice([80, 443])
            proto = rng.choice([6, 17])
            pairs.append(pair(ipv4_frame(src=src, dst=dst, sport=sport,
                                         dport=dport, proto=proto), i, i))
        for view in (ViewKind.SESSION, ViewKind.FLOW):
            units = split_view(pairs, view)
            groups = brute_force_groups(pairs, view)
            got = sorted(sorted(r.index for r, _ in u) for u in units.values())
            assert got == sorted(groups)
            # partition: every packet in exactly one unit
            flat = [i for g in got for i in g]
            assert sorted(flat) == list(range(120))


def brute_force_groups(pairs, view):
    """O(n^2) grouping oracle comparing 5-tuples pairwise."""
    def same(d1, d2):
        t1, t2 = d1.five_tuple, d2.five_tuple
        if view is ViewKind.FLOW:
            return t1 == t2
        fwd = (t1.src_ip, t1.src_port, t1.dst_ip, t1.dst_port, t1.proto) == \
              (t2.src_ip, t2.src_port, t2.dst_ip, t2.dst_port, t2.proto)
        rev = (t1.src_ip, t1.src_port, t1.dst_ip, t1.dst_port, t1.proto) == \
              (t2.dst_ip, t2.dst_port, t2.src_ip, t2.src_port, t2.proto)
        return fwd or rev

    groups = []
    reps = []
    for rec, dis in pairs:
        for gi, rep in enumerate(reps):
            if same(rep, dis):
                groups[gi].append(rec.index)
                break
        else:
            reps.append(dis)
            groups.append([rec.index])
    return [sorted(g) for g in groups]


class TestStripHeaders:
    def setup_method(self):
        self.frame = ipv4_frame()
        assert len(self.frame) == 54
        self.d = dissect(pair(self.frame)[0])

    def test_all_headers_identity(self):
        assert strip_headers(self.frame, self.d, ALL) == self.frame

    def test_without_ethernet(self):
        out = strip_headers(self.frame, self.d, NO_ETH)
        assert out == self.frame[14:54] and len(out) == 40

    def test_only_ethernet_excises_ip(self):
        out = strip_headers(self.frame, self.d, ONLY_ETH)
        assert out == self.frame[0:14] + self.frame[34:54] and len(out) == 34

    def test_no_headers(self):
        out = strip_headers(self.frame, self.d, NONE)
        assert out == self.frame[34:54] and len(out) == 20

    def test_non_ip_fallbacks(self):
        frame = arp_frame()
        d = dissect(pair(frame)[0])
        assert strip_headers(frame, d, ONLY_ETH) == frame
        assert strip_headers(frame, d, NO_ETH) == frame[d.eth_end:]
        assert strip_headers(frame, d, NONE) == frame[d.eth_end:]

    def test_monotonic_lengths_random_frames(self):
        rng = random.Random(23)
        for _ in range(500):
            frame = ipv4_frame(payload=bytes(rng.randrange(256)
                                             for _ in range(rng.randrange(0, 80))),
                               proto=rng.choice([6, 17]),
                               vlan_tags=rng.randrange(3))
            d = dissect(pair(frame)[0])
            lens = {cat: len(strip_headers(frame, d, cat)) for cat in HeaderCategory}
            assert lens[NONE] <= lens[ONLY_ETH] <= lens[ALL]
            assert lens[NONE] <= lens[NO_ETH] <= lens[ALL]
            assert strip_headers(frame, d, ALL) == frame


class TestAssemble:
    def test_pad_rule(self):
        # craft a unit whose stripped bytes are exactly {0x00, 0xff}
        frame = ipv4_frame(payload=b"\x00\xff")
        unit = [pair(frame)]
        d = unit[0][1]
        data, total = assemble_sample(unit, NONE, 24)
        # no_headers keeps the 20-byte TCP header too
        assert data[:20] == frame[34:54]
        assert total == 22
        payload_only = data[20:22]
        assert payload_only == b"\x00\xff"
        assert data[22:] == b"\x00\x00"

    def test_truncate_rule(self):
        # payload 80 + TCP header 20 = exactly 100 stripped bytes per packet
        p1 = ipv4_frame(payload=b"\x01" * 80)
        p2 = ipv4_frame(payload=b"\x02" * 80)
        unit = [pair(p1, 0, 0), pair(p2, 1, 1)]
        s1, s2 = p1[34:], p2[34:]
        assert len(s1) == len(s2) == 100
        data, total = assemble_sample(unit, NONE, 115)
        assert total == 200
        assert data == s1 + s2[:15]

    def test_degenerate_n1(self):
        frame = ipv4_frame()
        data, _ = assemble_sample([pair(frame)], ALL, 1)
        assert data == frame[:1]
        empty_unit_data, total = assemble_sample([], ALL, 1)
        assert empty_unit_data == b"\x00" and total == 0

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            assemble_sample([], ALL, 0)


@pytest.mark.parametrize("task, name, index", [
    ("binary", "benign", 0), ("binary", "malicious", 1),
    *[("binary", name, 1) for name in BOTNET_CLASSES],
    ("multi", "benign", None),
    *[("multi", name, i) for i, name in enumerate(BOTNET_CLASSES)]])
def test_label_index(task, name, index):
    assert label_index(name, task) == index


@pytest.mark.parametrize("task, name, match", [
    ("binary", "nonsense", "unknown class label 'nonsense' for binary task"),
    ("multi", "malicious", "unknown class label 'malicious' for multi task"),
    ("multi", "mirai", "unknown class label 'mirai' for multi task"),
    ("ternary", "benign", "unknown task 'ternary', expected 'binary' or 'multi'")])
def test_label_index_refuses(task, name, match):
    with pytest.raises(ValueError, match=match):
        label_index(name, task)


def test_a_task_added_to_tasks_brings_its_own_rules(monkeypatch, tmp_path):
    """label_index and build_dataset read a task's label rules from its
    TASKS entry alone: a third task that folds every botnet into "attack"
    and skips nothing labels as that entry says."""
    monkeypatch.setitem(views.TASKS, "attack", views.Task(
        ("benign", "attack"), dict.fromkeys(BOTNET_CLASSES, "attack"), frozenset()))
    assert [label_index(name, "attack") for name in ["benign", "attack", *BOTNET_CLASSES]] \
        == [0, 1] + [1] * len(BOTNET_CLASSES)
    with pytest.raises(ValueError, match="unknown class label 'malicious' for attack task"):
        label_index("malicious", "attack")
    entries = synth_corpus(tmp_path, binary_synth_classes(2), seed=1)
    entries = [(entries[0][0], "benign"), (entries[1][0], "Torii")]
    ds = build_dataset(entries, ViewKind.SESSION, ALL, 64, "attack")
    assert ds.class_names == ["benign", "attack"]
    assert ds.class_counts() == {"benign": 2, "attack": 2}


class TestBuildDataset:
    def test_binary_task_merges_botnets(self, tmp_path):
        classes = binary_synth_classes(2)
        entries = synth_corpus(tmp_path / "bin", classes, seed=1)
        # relabel the malicious file with a botnet scenario name
        entries = [(entries[0][0], "benign"), (entries[1][0], "Mirai")]
        ds = build_dataset(entries, ViewKind.SESSION, ALL, 64, "binary")
        assert ds.class_names == ["benign", "malicious"]
        counts = ds.class_counts()
        assert counts["benign"] == 2 and counts["malicious"] == 2

    def test_multi_excludes_benign(self, tmp_path):
        classes = binary_synth_classes(2)
        entries = synth_corpus(tmp_path / "multi", classes, seed=2)
        entries = [(entries[0][0], "benign"), (entries[1][0], "Okiru")]
        ds = build_dataset(entries, ViewKind.SESSION, ALL, 64, "multi")
        assert ds.class_names == BOTNET_CLASSES
        assert all(ds.class_names[s.label] == "Okiru" for s in ds.samples)

    def test_unknown_label_rejected(self, tmp_path):
        entries = synth_corpus(tmp_path / "u", binary_synth_classes(1), seed=3)
        with pytest.raises(ValueError, match="unknown class label"):
            build_dataset([(entries[0][0], "nonsense")], ViewKind.SESSION,
                          ALL, 64, "binary")

    def test_flow_view_sample_count_matches_split(self, tmp_path):
        # one pcap holding the 4-packet fixture: flow view gives 3 samples
        from bytecap.pcap import write_pcap
        p = tmp_path / "four.pcap"
        write_pcap(p, [(i, 0, f[0].data) for i, f in
                       enumerate(four_packet_fixture())])
        ds = build_dataset([(p, "benign")], ViewKind.FLOW, ALL, 32, "binary")
        assert len(ds.samples) == 3

    def test_drop_empty_flag(self, tmp_path):
        from bytecap.pcap import write_pcap
        # a frame with no payload strips to nothing under no_headers minus
        # the transport header? it keeps the TCP header, so use a bare
        # IP/ICMP frame whose no_headers slice is empty
        frame = ipv4_frame(proto=1)  # ICMP, no transport header bytes appended
        p = tmp_path / "empty.pcap"
        write_pcap(p, [(0, 0, frame)])
        kept = build_dataset([(p, "benign")], ViewKind.PACKET, NONE, 16,
                             "binary", drop_empty=False)
        assert len(kept.samples) == 1
        assert kept.samples[0].data == b"\x00" * 16
        dropped = build_dataset([(p, "benign")], ViewKind.PACKET, NONE, 16,
                                "binary", drop_empty=True)
        assert len(dropped.samples) == 0


def hostile_frames():
    """Interleaved sessions plus every frame shape the dissector degrades."""
    a, b, c = (10, 0, 0, 1), (10, 0, 0, 2), (192, 168, 1, 9)
    tcp = ipv4_frame(payload=b"\x11" * 90, src=a, dst=b)
    return [
        tcp,
        ipv4_frame(payload=b"\x22" * 30, src=b, dst=a, sport=80, dport=5000),
        ipv4_frame(payload=b"\x33" * 7, proto=17, src=a, dst=c, vlan_tags=1),
        ipv4_frame(payload=b"\x44" * 12, src=a, dst=b, vlan_tags=2),
        ipv6_frame(payload=b"\x55" * 50),
        ipv6_frame(payload=b"\x66" * 9, next_header=17, sport=80, dport=5000),
        ipv6_frame(payload=b"\x77" * 20, next_header=0),  # extension header
        arp_frame(),
        tcp[:24],  # truncated inside the IP header
        tcp[:44],  # truncated inside the TCP header
        ipv4_frame(payload=b"\x88" * 40, src=a, dst=b, frag_offset=185),
        ipv4_frame(proto=1, src=c, dst=a),  # ICMP: empty under no_headers
        tcp[:9],  # runt frame with no ethertype
        b"",  # empty record
        tcp[:12] + struct.pack(">HH", 0x8100, 1),  # VLAN stack runs off
        ipv4_frame(payload=b"\x99" * 200, src=b, dst=a, sport=80, dport=5000),
        tcp,
    ]


def reference_samples(path, view, cat, n, include_non_ip, drop_empty):
    """The per-packet path: filter_packets -> split_view -> assemble_sample."""
    _, pairs = read_capture(path)
    units = split_view(filter_packets(pairs, view, include_non_ip), view)
    out = []
    for unit in units.values():
        data, total = assemble_sample(unit, cat, n)
        if not (drop_empty and total == 0):
            out.append((data, str(path), unit[0][0].index, total))
    return out


def colliding_frames():
    """Frames whose flow and session keys collide unless every part of a key
    is kept apart, interleaved in a fixed shuffled order."""
    a, b, same = (10, 0, 0, 1), (10, 0, 0, 2), (10, 0, 0, 7)
    frames = [
        # an IPv4 and an IPv6 endpoint pair whose leading address bytes are equal
        ipv4_frame(src=(0, 1, 2, 3), dst=(0, 1, 2, 4)),
        ipv6_frame(src=bytes([0, 1, 2, 3]) + bytes(12), dst=bytes([0, 1, 2, 4]) + bytes(12)),
        ipv6_frame(next_header=17, src=bytes([0, 1, 2, 4]) + bytes(12),
                   dst=bytes([0, 1, 2, 3]) + bytes(12), sport=80, dport=5000),
        # one 5-tuple behind 0, 1 and 2 VLAN tags
        ipv4_frame(payload=b"\x01", src=a, dst=b, sport=7, vlan_tags=0),
        ipv4_frame(payload=b"\x02", src=a, dst=b, sport=7, vlan_tags=1),
        ipv4_frame(payload=b"\x03", src=a, dst=b, sport=7, vlan_tags=2),
        # both directions of a session whose two addresses are equal
        ipv4_frame(src=same, dst=same, sport=5000, dport=80),
        ipv4_frame(src=same, dst=same, sport=80, dport=5000),
        # the lower address has the higher port
        ipv4_frame(proto=17, src=a, dst=b, sport=65535, dport=1),
        ipv4_frame(proto=17, src=b, dst=a, sport=1, dport=65535),
        # non-first fragments, whose headers-to-be read as ports 5000 and 80,
        # beside a real port-0 flow between the same hosts
        ipv4_frame(payload=b"\x04" * 8, src=a, dst=b, frag_offset=185),
        ipv4_frame(payload=b"\x05" * 8, src=b, dst=a, frag_offset=0x1000),
        ipv4_frame(src=a, dst=b, sport=0, dport=0),
        ipv4_frame(src=b, dst=a, sport=0, dport=0),
        # a TCP header that is too short or cut off leaves ports 0 too, as
        # does a cut UDP header; an IHL below 5 or IP options or an IPv6
        # header that are cut off make a frame non-IP
        ipv4_frame(src=a, dst=b, tcp_doff=4),
        ipv4_frame(src=a, dst=b, tcp_doff=15)[:74],
        ipv4_frame(proto=17, src=a, dst=b, sport=65535, dport=1)[:40],
        ipv4_frame(src=a, dst=b, ihl=4),
        ipv4_frame(src=a, dst=b, ihl=8)[:44],
        ipv6_frame()[:52],
        arp_frame(),
        ipv4_frame()[:12] + struct.pack(">HH", 0x8100, 1),  # VLAN stack runs off
        b"\x01" * 5,
        b"",
    ]
    frames = frames * 2
    random.Random(11).shuffle(frames)
    return frames


def unit_numbering(pairs, view: ViewKind) -> tuple[list[int], list[int]]:
    """Each packet's unit number under split_view (-1 for a packet it leaves
    out) and each unit's first record index, in split_view's order."""
    units = split_view(filter_packets(pairs, view), view)
    ids = [-1] * len(pairs)
    for number, unit in enumerate(units.values()):
        for rec, _ in unit:
            ids[rec.index] = number
    return ids, [unit[0][0].index for unit in units.values()]


def unit_ids(cap: Capture, view: ViewKind) -> np.ndarray:
    """Each packet's unit row in cap.units(view), -1 for a packet it leaves out."""
    order, rows, _ = cap.units(view)
    ids = np.full(len(cap), -1, dtype=np.int64)
    ids[order] = rows
    return ids


class TestCaptureKeys:
    @pytest.mark.parametrize("byte_order,resolution", [
        ("<", "micro"), (">", "micro"), ("<", "nano"), (">", "nano")])
    def test_ids_and_keys_match_split_view(self, tmp_path, byte_order, resolution):
        path = tmp_path / "collide.pcap"
        write_pcap(path, [(i, i * 3, f) for i, f in enumerate(colliding_frames())],
                   byte_order=byte_order, ts_resolution=resolution)
        cap = Capture.read(path)
        _, pairs = read_capture(path)
        for view in (ViewKind.FLOW, ViewKind.SESSION):
            units = split_view(filter_packets(pairs, view), view)
            ids, first = unit_ids(cap, view), cap.units(view)[2]
            assert first.dtype == np.int64, view
            assert (ids.tolist(), first.tolist()) == unit_numbering(pairs, view), view
            # a unit's key is the key of its first packet
            which = 1 if view is ViewKind.SESSION else 0
            assert [keys(pairs[i][1])[which] for i in first.tolist()] == list(units), view
        assert cap.eth_end.tolist() == [d.eth_end for _, d in pairs]
        assert cap.ip_end.tolist() == [-1 if d.ip_end is None else d.ip_end for _, d in pairs]
        # the fixture's collisions hold: 11 flows and 8 sessions among 34 IP packets
        assert len(cap.units(ViewKind.FLOW)[0]) == 34
        assert (len(cap.units(ViewKind.FLOW)[2]), len(cap.units(ViewKind.SESSION)[2])) == (11, 8)

    def test_numbering_matches_split_view_on_drawn_captures(self, tmp_path):
        """Flows are grouped once and sessions numbered from the flow table;
        both equal the per-packet numbering on drawn mixes of shared
        endpoints. Derandomized and bounded, like the other properties."""
        path = tmp_path / "drawn.pcap"

        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @given(keyed_captures())
        def check(frames):
            write_pcap(path, [(i, 0, f) for i, f in enumerate(frames)])
            cap = Capture.read(path)
            _, pairs = read_capture(path)
            for view in (ViewKind.FLOW, ViewKind.SESSION):
                units = cap.units(view)
                assert all(a.dtype == np.int64 for a in units), view
                assert ((unit_ids(cap, view).tolist(), units[2].tolist())
                        == unit_numbering(pairs, view)), view
                # read's grouping, the same arrays on every call
                assert all(a is b for a, b in zip(cap.units(view), units)), view
            for view in ViewKind:
                assert not any(a.flags.writeable for a in cap.units(view)), view

        check()


@st.composite
def keyed_captures(draw):
    """0-24 frames between a few shared hosts and ports: IPv4 with 0-2 VLAN
    tags, IPv6 holding the same four leading address bytes, and ARP. Any
    two endpoints may meet, so endpoints recur across flows, a packet may
    go from an endpoint to itself, and a session may open from its higher
    endpoint."""
    hosts = [(10, 0, 0, 1), (10, 0, 0, 2), (192, 168, 0, 1)]
    ports = [0, 80, 5000, 65535]
    frames = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["ipv4", "ipv6", "arp"]))
        if kind == "arp":
            frames.append(arp_frame())
            continue
        src, dst = draw(st.sampled_from(hosts)), draw(st.sampled_from(hosts))
        sport, dport = draw(st.sampled_from(ports)), draw(st.sampled_from(ports))
        proto = draw(st.sampled_from([6, 17]))
        if kind == "ipv4":
            frames.append(ipv4_frame(proto=proto, src=src, dst=dst, sport=sport, dport=dport,
                                     vlan_tags=draw(st.integers(0, 2))))
        else:
            frames.append(ipv6_frame(next_header=proto, sport=sport, dport=dport,
                                     src=bytes(src) + bytes(12), dst=bytes(dst) + bytes(12)))
    return frames


class TestCapture:
    @pytest.mark.parametrize("byte_order,resolution",
                             [("<", "micro"), (">", "micro"), ("<", "nano")])
    def test_cells_match_per_packet_path(self, tmp_path, byte_order, resolution):
        path = tmp_path / "hostile.pcap"
        write_pcap(path, [(i, i * 7, f) for i, f in enumerate(hostile_frames())],
                   byte_order=byte_order, ts_resolution=resolution)
        cap = Capture.read(path)
        for view in ViewKind:
            for cat in HeaderCategory:
                for n in (1, 30, 115, 400):
                    for include_non_ip in (False, True):
                        for drop_empty in (False, True):
                            ds = build_dataset([(cap, "benign")], view, cat, n,
                                               "binary", include_non_ip=include_non_ip,
                                               drop_empty=drop_empty)
                            prov = ds.provenance
                            assert prov.first.dtype == np.int64
                            got = list(zip(map(bytes, ds.data),
                                           [prov.sources[i] for i in prov.source],
                                           prov.first.tolist(),
                                           prov.stripped_len.tolist()))
                            assert got == reference_samples(
                                path, view, cat, n, include_non_ip, drop_empty), \
                                (view, cat, n, include_non_ip, drop_empty)

    def test_counts_and_ts_scale(self, tmp_path):
        frames = hostile_frames()
        path = tmp_path / "nano.pcap"
        write_pcap(path, [(0, 0, f) for f in frames], ts_resolution="nano")
        cap = Capture.read(path)
        _, pairs = read_capture(path)
        assert cap.ts_scale == 1e-9
        assert len(cap) == len(frames)
        # every frame at its start, record headers between, zero padding after
        buf = cap.frames.tobytes()
        assert [buf[s:s + n] for s, n in zip(cap.start.tolist(), cap.cap_len.tolist())] == frames
        end = int(cap.start[-1] + cap.cap_len[-1])
        assert len(buf) - end >= max(map(len, frames)) and not any(buf[end:])
        assert int(cap.non_ip.sum()) == sum(d.five_tuple is None for _, d in pairs)
        for view in ViewKind:
            for include_non_ip in (False, True):
                assert len(cap.units(view, include_non_ip)[2]) == len(
                    split_view(filter_packets(pairs, view, include_non_ip), view))

    @pytest.mark.parametrize("n", [0, 2 ** 32])
    def test_assemble_refuses_what_the_sample_length_rule_refuses(self, tmp_path, n):
        path = tmp_path / "one.pcap"
        write_pcap(path, [(0, 0, ipv4_frame())])
        with pytest.raises(ValueError, match=rf"^sample length {n} must lie in \[1, 2\^32 - 1\]"):
            Capture.read(path).assemble(ViewKind.PACKET, ALL, n)

    @pytest.mark.parametrize("repeat", [1, 100])  # 100: past a pipe's 64 KiB buffer
    @needs_dev_fd
    def test_read_through_pipe_matches_file(self, tmp_path, repeat):
        path = tmp_path / "hostile.pcap"
        write_pcap(path, [(i, i * 7, f) for i, f in enumerate(hostile_frames() * repeat)],
                   byte_order=">")
        assert repeat == 1 or path.stat().st_size > 1 << 16
        from_file = Capture.read(path)
        piped = read_through_pipe(Capture.read, path.read_bytes())
        assert piped.source.startswith("/dev/fd/")
        for field in dataclasses.fields(Capture):
            want, got = getattr(from_file, field.name), getattr(piped, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            elif isinstance(want, tuple):  # a grouping's three arrays
                assert all(g.dtype == w.dtype and np.array_equal(g, w)
                           for w, g in zip(want, got, strict=True)), field.name
            elif field.name != "source":
                assert got == want, field.name

    def test_path_and_capture_inputs_agree(self, corpus_small):
        captures = [(Capture.read(p), name) for p, name in corpus_small]
        for view in ViewKind:
            from_paths = build_dataset(corpus_small, view, ONLY_ETH, 115, "binary")
            shared = build_dataset(captures, view, ONLY_ETH, 115, "binary")
            assert from_paths == shared

    def test_read_memory_per_packet_is_bounded(self, corpus_bench):
        """Capture.read's traced peak on the 17,840-packet benign capture of
        the timing corpus: about 178 bytes a packet, dissect_frames' own
        peak, since flows are numbered over the key matrix in place (194
        with a copy of its IP rows, 227 before dissect_frames wrote packed
        key rows, 354 before flows were grouped once and sessions numbered
        from the flow table). The frame buffer is a mapping tracemalloc
        does not see."""
        path = dict((name, p) for p, name in corpus_bench)["benign"]
        Capture.read(path)  # imports and first-call caches out of the count
        tracemalloc.start()
        try:
            cap = Capture.read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cap) == 17_840
        assert peak / len(cap) < 195, f"{peak / len(cap):.0f} B/packet"

    def test_masks_grow_with_units_times_width(self, tmp_path):
        """A 40,000-byte frame makes 40,000-column masks; the cells stay
        within a small multiple of units x width bytes, where one mask table
        over every width would take width squared (1.6 GB here)."""
        big = ipv4_frame(payload=b"\x5a" * 39_946)
        frames = [big, ipv4_frame(payload=b"\x01" * 9, src=(10, 0, 0, 2), dst=(10, 0, 0, 1),
                                  sport=80, dport=5000), ipv4_frame(payload=b"\x02" * 3)]
        assert len(big) == 40_000
        path = tmp_path / "big.pcap"
        write_pcap(path, [(i, 0, f) for i, f in enumerate(frames)])
        cap = Capture.read(path)
        n = 50_000
        tracemalloc.start()
        try:
            for view in ViewKind:
                for cat in HeaderCategory:
                    cap.assemble(view, cat, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(frames) * n
        _, pairs = read_capture(path)
        for view in ViewKind:
            units = list(split_view(pairs, view).values())
            for cat in HeaderCategory:
                data, _, _ = cap.assemble(view, cat, n)
                assert [bytes(row) for row in data] == [
                    assemble_sample(unit, cat, n)[0] for unit in units], (view, cat)

    @pytest.mark.parametrize("frames", [[], [arp_frame()] * 3], ids=["empty", "all-arp"])
    def test_captures_without_ip_name_units_by_first_record(self, tmp_path, frames):
        path = tmp_path / "no-ip.pcap"
        write_pcap(path, [(i, 0, f) for i, f in enumerate(frames)])
        cap = Capture.read(path)
        for view in (ViewKind.FLOW, ViewKind.SESSION):
            first = cap.units(view)[2]
            assert first.dtype == np.int64 and first.size == 0
        for view in ViewKind:
            for cat in HeaderCategory:
                for include_non_ip in (False, True):
                    ds = build_dataset([(cap, "benign")], view, cat, 8, "binary",
                                       include_non_ip=include_non_ip)
                    first = ds.provenance.first
                    # only the packet view keeps non-IP packets, one unit each
                    want = (list(range(len(frames)))
                            if include_non_ip and view is ViewKind.PACKET else [])
                    assert first.dtype == np.int64 and first.tolist() == want
                    assert ds.data.shape == (len(want), 8)
                    assert ds.provenance.source.tolist() == [0] * len(want)


@st.composite
def small_captures(draw):
    """The frames of 1-4 interleaved IPv4 or IPv6 TCP/UDP sessions and ARP
    frames, each maybe cut short, down to runts and empty frames."""
    sessions = draw(st.lists(st.tuples(st.sampled_from([4, 6]), st.sampled_from([6, 17]),
                                       st.integers(0, 2)), min_size=1, max_size=4))
    frames = []
    for i in range(draw(st.integers(1, 12))):
        which = draw(st.integers(0, len(sessions)))
        if which == len(sessions):
            frame = arp_frame()
        else:
            version, proto, tags = sessions[which]
            ends = [((10, 0, 0, which), 5000 + which), ((10, 0, 1, which), 80)]
            if draw(st.booleans()):
                ends.reverse()
            (src, sport), (dst, dport) = ends
            payload = bytes([i + 1]) * draw(st.integers(0, 40))
            if version == 4:
                frame = ipv4_frame(payload=payload, proto=proto, src=src, dst=dst,
                                   sport=sport, dport=dport, vlan_tags=tags)
            else:
                frame = ipv6_frame(payload=payload, next_header=proto, sport=sport,
                                   dport=dport, src=bytes(src) + bytes(12),
                                   dst=bytes(dst) + bytes(12))
        if draw(st.booleans()):
            frame = frame[:draw(st.integers(0, len(frame)))]
        frames.append(frame)
    return frames


def test_assemble_matches_per_packet_oracle(tmp_path):
    """Capture.assemble equals split_view + assemble_sample for every view,
    category and n of 1, a drawn length and one longer than any unit.
    Derandomized and bounded, like the hostile-input properties."""
    path = tmp_path / "drawn.pcap"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(small_captures(), st.integers(2, 120))
    def check(frames, drawn):
        write_pcap(path, [(i, 0, f) for i, f in enumerate(frames)])
        cap = Capture.read(path)
        _, pairs = read_capture(path)
        for view in ViewKind:
            for include_non_ip in (False, True):
                units = list(split_view(filter_packets(pairs, view, include_non_ip),
                                        view).values())
                for cat in HeaderCategory:
                    for n in (1, drawn, sum(map(len, frames)) + 1):
                        data, totals, first = cap.assemble(view, cat, n, include_non_ip)
                        want = [assemble_sample(unit, cat, n) for unit in units]
                        where = (view, include_non_ip, cat, n)
                        assert [bytes(row) for row in data] == [w for w, _ in want], where
                        assert totals.tolist() == [t for _, t in want], where
                        assert first.tolist() == [unit[0][0].index for unit in units], where

    check()


def one_built_row(data: bytes, stripped_len: int) -> DatasetFile:
    """A one-row benign dataset with the provenance build_dataset gives it."""
    return DatasetFile(ViewKind.PACKET, ALL, len(data), ["benign", "malicious"],
                       data=np.frombuffer(data, dtype=np.uint8).reshape(1, -1),
                       labels=np.zeros(1, dtype=np.int64),
                       provenance=Provenance(["a.pcap"], np.zeros(1, dtype=np.int64),
                                             np.zeros(1, dtype=np.int64),
                                             np.array([stripped_len])))


class TestByteDistribution:
    def test_single_sample(self):
        ds = one_built_row(b"\xaa\xbb\x00\x00", stripped_len=2)
        assert byte_distribution(ds) == {"benign": 2, "malicious": 0}

    def test_empty(self):
        ds = DatasetFile(ViewKind.PACKET, ALL, 4, ["benign", "malicious"])
        assert byte_distribution(ds) == {}

    def test_against_per_packet_tally(self, corpus_small):
        cat = NO_ETH
        ds = build_dataset(corpus_small, ViewKind.SESSION, cat, 115, "binary")
        got = byte_distribution(ds)
        # independent tally walks packets directly
        expected = {"benign": 0, "malicious": 0}
        for path, name in corpus_small:
            _, recs = read_pcap_records(path)
            for rec in recs:
                d = dissect(rec)
                expected[name] += len(strip_headers(rec.data, d, cat))
        assert got == expected

    def test_loaded_dataset_rejected(self, tmp_path):
        ds = one_built_row(b"xy", stripped_len=2)
        p = tmp_path / "d.ftld"
        write_dataset(p, ds)
        back = read_dataset(p)
        with pytest.raises(ValueError, match="in-memory"):
            byte_distribution(back)


class TestDatasetIO:
    def test_roundtrip_field_by_field(self, corpus_small, tmp_path):
        ds = build_dataset(corpus_small, ViewKind.FLOW, ONLY_ETH, 48, "binary")
        p = tmp_path / "rt.ftld"
        write_dataset(p, ds)
        back = read_dataset(p)
        assert back.view == ds.view and back.category == ds.category
        assert back.sample_len == ds.sample_len
        assert back.class_names == ds.class_names
        assert [(s.label, s.data) for s in back.samples] == \
               [(s.label, s.data) for s in ds.samples]
        # byte-exact: writing the loaded copy reproduces the file
        p2 = tmp_path / "rt2.ftld"
        write_dataset(p2, back)
        assert p2.read_bytes() == p.read_bytes()

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.ftld"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_dataset(p)

    def test_truncation_detected(self, tmp_path):
        ds = DatasetFile(ViewKind.PACKET, ALL, 8, ["benign", "malicious"],
                         [Sample(0, b"\x01" * 8), Sample(1, b"\x02" * 8)])
        p = tmp_path / "t.ftld"
        write_dataset(p, ds)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_dataset(p)

    def test_file_size_formula(self, tmp_path):
        # header 14 + name table + count 8 + records n*(2+N)
        ds = DatasetFile(ViewKind.PACKET, ALL, 115, ["benign", "malicious"],
                         [Sample(1, bytes(115))])
        p = tmp_path / "s.ftld"
        write_dataset(p, ds)
        name_table = sum(2 + len(n.encode()) for n in ds.class_names)
        assert p.stat().st_size == 14 + name_table + 8 + 1 * (2 + 115)

    def header_only(self, tmp_path, sample_len, names=(b"benign", b"malicious")):
        """An FTLD header claiming one sample of `sample_len` bytes,
        followed by 16 bytes."""
        blob = b"FTLD" + struct.pack("<HBBIH", 1, 0, 0, sample_len, len(names))
        for raw in names:
            blob += struct.pack("<H", len(raw)) + raw
        p = tmp_path / "claim.ftld"
        p.write_bytes(blob + struct.pack("<Q", 1) + b"\x00" * 16)
        return p

    @pytest.mark.parametrize("read", [read_dataset, read_dataset_header])
    def test_sample_length_zero_refused(self, tmp_path, read):
        p = self.header_only(tmp_path, 0)
        with pytest.raises(DatasetFormatError,
                           match=rf"^{p}: sample length 0 must lie in \[1, 2\^32 - 1\]"):
            read(p)

    def test_claimed_size_checked_before_reading(self, tmp_path):
        p = self.header_only(tmp_path, 1 << 24)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError, match="truncated"):
                read_dataset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @needs_dev_fd
    def test_read_from_pipe(self, tmp_path):
        ds = DatasetFile(ViewKind.PACKET, ALL, 8, ["benign", "malicious"],
                         [Sample(0, b"\x01" * 8), Sample(1, b"\x02" * 8)])
        p = tmp_path / "p.ftld"
        write_dataset(p, ds)
        back = read_through_pipe(read_dataset, p.read_bytes())
        assert [(s.label, s.data) for s in back.samples] == \
               [(s.label, s.data) for s in ds.samples]

    @needs_dev_fd
    def test_huge_claim_through_pipe(self, tmp_path):
        # a pipe has no size to check, so the 2^40 claimed samples must be
        # refused without allocating them
        blob = self.header_only(tmp_path, 115).read_bytes()
        blob = blob[:-24] + struct.pack("<Q", 1 << 40) + b"\x00" * 500
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError, match="truncated at sample 4"):
                read_through_pipe(read_dataset, blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_sample_len(self, tmp_path):
        # a u32 sample_len past numpy's C-int subarray limit: refused as
        # truncated when a sample is claimed, round-tripped when none is
        p = self.header_only(tmp_path, 0xFFFFFFFF)
        with pytest.raises(DatasetFormatError, match="truncated at sample 0"):
            read_dataset(p)
        p.write_bytes(p.read_bytes()[:-24] + struct.pack("<Q", 0))
        back = read_dataset(p)
        assert back.data.shape == (0, 0xFFFFFFFF)
        write_dataset(tmp_path / "again.ftld", back)
        assert (tmp_path / "again.ftld").read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("through_pipe", [False, pytest.param(True, marks=needs_dev_fd)])
    def test_bad_stored_label_names_sample(self, tmp_path, through_pipe):
        ds = DatasetFile(ViewKind.PACKET, ALL, 3, ["benign", "malicious"],
                         [Sample(i % 2, bytes([i] * 3)) for i in range(6)])
        p = tmp_path / "l.ftld"
        write_dataset(p, ds)
        blob = bytearray(p.read_bytes())
        records = len(blob) - 6 * 5
        for k, label in ((0, 2), (4, 0xFFFF)):
            bad = bytearray(blob)
            struct.pack_into("<H", bad, records + 5 * k, label)
            struct.pack_into("<H", bad, records + 5 * 5, 9)  # a later bad label
            p.write_bytes(bytes(bad))
            match = f"sample {k} label {label} out of range"
            with pytest.raises(DatasetFormatError, match=match):
                if through_pipe:
                    read_through_pipe(read_dataset, bytes(bad))
                else:
                    read_dataset(p)

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_bytes_after_last_sample_refused(self, tmp_path, through_pipe):
        ds = DatasetFile(ViewKind.PACKET, ALL, 2, ["benign", "malicious"],
                         [Sample(1, b"ab")])
        p = tmp_path / "j.ftld"
        write_dataset(p, ds)
        assert read_dataset(p) == ds
        blob = p.read_bytes() + b"JUNK"
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match="bytes after the last of 1 samples"):
            if through_pipe:
                read_through_pipe(read_dataset, blob)
            else:
                read_dataset(p)

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_every_header_cut_names_the_file(self, tmp_path, through_pipe):
        ds = DatasetFile(ViewKind.FLOW, ALL, 4, ["benign", "malicious"],
                         [Sample(1, b"abcd")])
        whole = tmp_path / "whole.ftld"
        write_dataset(whole, ds)
        blob = whole.read_bytes()
        cut = tmp_path / "cut.ftld"
        messages = set()

        def refused(path):
            with pytest.raises(DatasetFormatError) as err:
                read_dataset(path)
            assert str(err.value).startswith(f"{path}: ")
            messages.add(str(err.value)[len(f"{path}: "):])

        # every cut from byte 0 up to the first record (one of 2 + 4 bytes)
        for end in range(len(blob) - 6 + 1):
            if through_pipe:
                read_through_pipe(refused, blob[:end])
            else:
                cut.write_bytes(blob[:end])
                refused(cut)
        assert {m for m in messages if not m.startswith("bad dataset magic")} == {
            "truncated dataset header", "truncated class table",
            "truncated class name", "truncated sample count",
            "truncated at sample 0"}

    @pytest.mark.parametrize("through_pipe", [
        False, pytest.param(True, marks=needs_dev_fd)], ids=["file", "pipe"])
    def test_every_record_cut_names_the_sample(self, tmp_path, through_pipe):
        ds = DatasetFile(ViewKind.SESSION, ALL, 3, ["benign", "malicious"],
                         data=np.arange(9, dtype=np.uint8).reshape(3, 3),
                         labels=np.array([1, 0, 1]))
        p = tmp_path / "three.ftld"
        write_dataset(p, ds)
        blob = p.read_bytes()
        records = len(blob) - 3 * (2 + 3)

        def message(cut):
            p.write_bytes(cut)
            with pytest.raises(DatasetFormatError) as err:
                if through_pipe:
                    read_through_pipe(read_dataset, cut)
                else:
                    read_dataset(p)
            return str(err.value).split(": ", 1)[1]

        for end in range(records, len(blob)):
            assert message(blob[:end]) == f"truncated at sample {(end - records) // 5}"
        assert message(blob + b"\x00") == "bytes after the last of 3 samples"

    def test_header_fields_of_a_written_file(self, tmp_path):
        ds = DatasetFile(ViewKind.SESSION, NO_ETH, 5, list(BOTNET_CLASSES),
                         [Sample(3, bytes(5)), Sample(11, b"12345")])
        p = tmp_path / "h.ftld"
        write_dataset(p, ds)
        head = read_dataset_header(p)
        assert head == DatasetHeader(ViewKind.SESSION, NO_ETH, 5, BOTNET_CLASSES, 2)
        assert (head.sample_len, head.count) == (5, 2)

    def test_non_utf8_class_name(self, tmp_path):
        p = self.header_only(tmp_path, 8, names=(b"benign", b"\xff\xfe"))
        with pytest.raises(DatasetFormatError, match="UTF-8"):
            read_dataset(p)

    def test_label_out_of_range_refused(self, tmp_path):
        ds = DatasetFile(ViewKind.PACKET, ALL, 2, ["benign", "malicious"],
                         [Sample(7, b"ab")])
        with pytest.raises(ValueError, match="range"):
            write_dataset(tmp_path / "bad.ftld", ds)


def split_oracle(labels, val_fraction, seed):
    """split_indices as one Python list per class, the rules restated."""
    rng = np.random.default_rng(seed)
    by_class = {}
    for i, label in enumerate(labels):
        by_class.setdefault(int(label), []).append(i)
    train, val = [], []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        rng.shuffle(idx)
        n_val = int(round(len(idx) * val_fraction))
        n_val = min(max(n_val, 1), len(idx) - 1) if len(idx) >= 2 else 0
        val += idx[:n_val].tolist()
        train += idx[n_val:].tolist()
    return sorted(train), sorted(val)


class TestDatasetArrays:
    def test_build_fills_arrays_and_provenance(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.FLOW, NO_ETH, 40, "binary")
        rows = len(ds.labels)
        assert ds.data.shape == (rows, 40) and ds.data.dtype == np.uint8
        assert ds.labels.dtype == np.int64
        prov = ds.provenance
        assert prov.sources == [str(p) for p, _ in corpus_small]
        assert len(prov.source) == len(prov.first) == len(prov.stripped_len) == rows
        for i in (0, rows // 2, rows - 1):
            s = ds.samples[i]
            assert (s.label, s.data) == (ds.labels[i], ds.data[i].tobytes())
            assert prov.sources[prov.source[i]] == str(corpus_small[ds.labels[i]][0])
        # a Sample is a (label, data) row; provenance lives in ds.provenance only
        assert [f.name for f in dataclasses.fields(Sample)] == ["label", "data"]

    def test_samples_view_is_read_only(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.SESSION, ALL, 16, "binary")
        view = ds.samples
        assert len(view) == len(ds.labels) == 24
        assert view[-1] == view[23] and view[0] != view[1]
        assert [s.data for s in view[::5]] == [ds.data[i].tobytes() for i in range(0, 24, 5)]
        assert [s.label for s in view] == ds.labels.tolist()
        with pytest.raises(IndexError):
            view[24]
        with pytest.raises(TypeError):
            view[0] = Sample(0, bytes(16))
        assert not hasattr(view, "append")
        view[0].label = 1  # a copy: the dataset is unchanged
        assert ds.labels[0] == 0

    def test_sample_list_converts_to_equal_arrays(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.PACKET, ONLY_ETH, 30, "binary",
                           drop_empty=True)
        again = DatasetFile(ds.view, ds.category, ds.sample_len, ds.class_names,
                            list(ds.samples))
        assert np.array_equal(again.data, ds.data)
        assert np.array_equal(again.labels, ds.labels)
        assert again == DatasetFile(ds.view, ds.category, ds.sample_len, ds.class_names,
                                    data=ds.data, labels=ds.labels)
        # equality compares provenance too: a copy without it differs
        assert again.provenance is None and again != ds
        same = ds._take(np.arange(len(ds.labels)))
        assert same == ds
        same.provenance.stripped_len[0] += 1
        assert same != ds
        same = ds._take(np.arange(len(ds.labels)))
        same.provenance.first[0] += 1
        assert same != ds

    def test_sample_of_wrong_length_refused(self):
        with pytest.raises(ValueError, match="sample_len"):
            DatasetFile(ViewKind.PACKET, ALL, 4, ["benign", "malicious"],
                        [Sample(0, b"abc")])

    def test_tensors_scale_bytes(self, corpus_small, tmp_path):
        ds = build_dataset(corpus_small, ViewKind.PACKET, ALL, 20, "binary")
        write_dataset(tmp_path / "t.ftld", ds)
        for side in (ds, read_dataset(tmp_path / "t.ftld")):
            x, y = side.tensors()
            assert x.shape == (len(ds.labels), 20, 1) and x.dtype == np.float32
            assert np.array_equal(x[..., 0], ds.data.astype(np.float32) / 255.0)
            assert np.array_equal(y, ds.labels)
            assert side.class_counts() == {"benign": int((y == 0).sum()),
                                           "malicious": int((y == 1).sum())}

    def test_split_indices_match_oracle(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            labels = rng.integers(0, 4, size=int(rng.integers(0, 60))).tolist()
            labels += [7]  # a singleton class stays on the training side
            for fraction in (0.2, 0.5):
                assert split_indices(labels, fraction, seed) == \
                    split_oracle(labels, fraction, seed)

    def test_split_carries_provenance(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.SESSION, ALL, 16, "binary")
        train, val = train_val_split(ds, 0.25, seed=1)
        for side, idx in zip((train, val), split_indices(ds.labels, 0.25, 1)):
            assert list(side.samples) == [ds.samples[i] for i in idx]
            want, got = ds.provenance.take(np.array(idx)), side.provenance
            assert got.sources == want.sources
            assert np.array_equal(got.source, want.source)
            assert np.array_equal(got.first, want.first)
            assert np.array_equal(got.stripped_len, want.stripped_len)

    def test_write_validates_before_creating_the_file(self, tmp_path):
        ds = DatasetFile(ViewKind.PACKET, ALL, 2, ["benign", "malicious"],
                         [Sample(0, b"ab"), Sample(5, b"cd")])
        with pytest.raises(ValueError, match="label 5 out of range"):
            write_dataset(tmp_path / "bad.ftld", ds)
        assert not (tmp_path / "bad.ftld").exists()

    @pytest.mark.parametrize("class_names, sample_len, message", [
        ([], 2, "0 class names, FTLD holds 1 to 65535"),
        ([str(i) for i in range(65_536)], 2, "65536 class names, FTLD holds 1 to 65535"),
        (["benign", "\u00e9" * 32_768], 2,
         "class name 1 is 65536 UTF-8 bytes, FTLD holds at most 65535"),
        (["benign"], 2 ** 32, r"sample length 4294967296 must lie in \[1, 2\^32 - 1\]"),
        (["benign"], 0, r"sample length 0 must lie in \[1, 2\^32 - 1\]"),
    ], ids=["no-class", "too-many-classes", "long-class-name", "sample-len-past-u32",
            "sample-len-zero"])
    def test_write_refuses_headers_ftld_cannot_hold(self, tmp_path, class_names, sample_len,
                                                     message):
        """What read_dataset would refuse, or FTLD's u16 and u32 fields
        cannot hold, is a ValueError before the file is created."""
        ds = DatasetFile(ViewKind.PACKET, ALL, sample_len, class_names,
                         data=np.zeros((0, sample_len), dtype=np.uint8),
                         labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            write_dataset(tmp_path / "bad.ftld", ds)
        assert not (tmp_path / "bad.ftld").exists()


class TestSplitAndSynth:
    def test_stratified_split(self, corpus_small):
        ds = build_dataset(corpus_small, ViewKind.SESSION, ALL, 64, "binary")
        train, val = train_val_split(ds, 0.2, seed=3)
        assert len(train.samples) + len(val.samples) == len(ds.samples)
        for side in (train, val):
            labels = {s.label for s in side.samples}
            assert labels == {0, 1}
        # deterministic
        t2, v2 = train_val_split(ds, 0.2, seed=3)
        assert [s.data for s in v2.samples] == [s.data for s in val.samples]

    def test_synth_deterministic(self, tmp_path):
        a = synth_corpus(tmp_path / "a", binary_synth_classes(3), seed=9)
        b = synth_corpus(tmp_path / "b", binary_synth_classes(3), seed=9)
        for (pa, _), (pb, _) in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
        c = synth_corpus(tmp_path / "c", binary_synth_classes(3), seed=10)
        assert a[0][0].read_bytes() != c[0][0].read_bytes()

    def test_synth_frames_fully_dissect(self, corpus_small):
        for path, _ in corpus_small:
            _, recs = read_pcap_records(path)
            assert recs
            for rec in recs:
                d = dissect(rec)
                assert d.payload_start is not None  # no absent layers
