"""`synth_corpus` against the per-frame generator it replaced, kept here
verbatim as the oracle: every recipe writes the same files and returns the
same list. Also the raw-word rules of a class's draws against the
`Generator` calls themselves, and the refusals of recipes the generator
cannot write."""

import dataclasses
import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap import synth
from bytecap.pcap import PROTO_TCP, PROTO_UDP, SNAPLEN, PacketRecord, read_pcap_records, write_pcap
from bytecap.synth import (
    SynthClass,
    _scalar_draw,
    _walk,
    binary_synth_classes,
    read_labels_file,
    synth_classes,
    synth_corpus,
    write_labels_file,
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

ORACLE_CASES = [
    (binary_synth_classes(4), 0, {}),
    (synth_classes("multi", 2), 3, {}),
    (binary_synth_classes(3), 1, PERFBENCH_RECIPES["ingest-grid"]),
    (binary_synth_classes(15), 2, PERFBENCH_RECIPES["short-sessions"]),
    (binary_synth_classes(5), 4, dict(payload_len=(0, 3), packets_per_session=(1, 1))),
    ([SynthClass("one", 7, 7, 3), SynthClass("top", 255, 255, 3)], 5, {}),
    *[(binary_synth_classes(3), seed, {}) for seed in (6, 7, 2**32 - 1, 12345678901)],
    # 21- and 25-value bands reject bytes in the 8-bit rule across many words
    (synth_classes("multi", 2), 11, PERFBENCH_RECIPES["ingest-grid"]),
    (binary_synth_classes(3), 12, dict(payload_len=(40, 40))),  # no length word
    # a full 0..255 band keeps every raw byte
    ([SynthClass("full", 0, 255, 3), SynthClass("top", 128, 255, 2)], 13,
     dict(payload_len=(1000, 1500))),
    # packet draws of one word a session leave a half pending before the
    # next session's rng.random()
    (binary_synth_classes(6), 14, dict(payload_len=(0, 0), packets_per_session=(1, 1))),
]
ORACLE_IDS = ["binary", "multi", "ingest-grid", "short-sessions", "tiny", "one-value-band",
              "seed6", "seed7", "seed2^32-1", "seed-big", "multi-ingest-grid", "fixed-length",
              "full-band-long", "empty-single-packet"]
# cases again with blocks of 1 to 3 raw outputs, which cut nearly every
# session, so that it is drawn again once the next block is appended
TINY_BLOCKS = {"short-sessions": 1, "multi-ingest-grid": 3, "empty-single-packet": 2}


@pytest.mark.parametrize(
    "classes, seed, recipe, block",
    [(*case, None) for case in ORACLE_CASES]
    + [(*ORACLE_CASES[ORACLE_IDS.index(name)], block) for name, block in TINY_BLOCKS.items()],
    ids=ORACLE_IDS + [f"{name}-block{block}" for name, block in TINY_BLOCKS.items()])
def test_matches_oracle(tmp_path, monkeypatch, classes, seed, recipe, block):
    if block:
        monkeypatch.setattr(synth, "_BLOCK", block)
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


def twin_draws(rng, cls, packets_per_session, payload_len):
    """The Generator calls `_walk` stands for, made one by one as
    oracle_synth_corpus makes them."""
    sessions, plens, payloads, steps = [], [], [np.zeros(0, dtype=np.uint8)], []
    for _ in range(cls.sessions):
        n_pkts = int(rng.integers(packets_per_session[0], packets_per_session[1] + 1))
        sessions.append((
            n_pkts, rng.random() < 0.25,
            rng.integers(0, 256, 3, dtype=np.uint8).tolist(),
            rng.integers(0, 256, 3, dtype=np.uint8).tolist(),
            int(rng.integers(1024, 65536)), int(rng.choice([80, 443, 8080, 1883, 23])),
            rng.integers(0, 256, 4, dtype=np.uint8).tolist(),
            rng.integers(0, 256, 4, dtype=np.uint8).tolist(),
            int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31))))
        for _ in range(n_pkts):
            plens.append(int(rng.integers(payload_len[0], payload_len[1] + 1)))
            payloads.append(rng.integers(cls.byte_low, cls.byte_high + 1, size=plens[-1],
                                         dtype=np.uint8))
            steps.append(int(rng.integers(200, 5000)))
    return sessions, plens, np.concatenate(payloads), steps


def as_twin_draws(columns):
    """`_walk`'s session columns as twin_draws gives them: the address and
    MAC bytes read from their words, low byte first, and the port itself."""
    return [(n_pkts, udp == 1, list(src_ip.to_bytes(4, "little")[:3]),
             list(dst_ip.to_bytes(4, "little")[:3]), sport, synth._DPORTS[dport],
             list(src_mac.to_bytes(4, "little")), list(dst_mac.to_bytes(4, "little")),
             seq_fwd, seq_rev)
            for n_pkts, udp, src_ip, dst_ip, sport, dport, src_mac, dst_mac, seq_fwd, seq_rev
            in columns.T.tolist()]


@pytest.mark.parametrize("block", [None, 1, 2, 3], ids=["block", "block1", "block2", "block3"])
@pytest.mark.parametrize("pending", [False, True], ids=["whole", "pending-half"])
@pytest.mark.parametrize("band", [(7, 7), (0, 127), (0, 255), (0, 20), (21, 45), (3, 123),
                                  (0, 128)],
                         ids=["one", "128", "256", "21", "25", "121", "129"])
@pytest.mark.parametrize("packets, payload", [((1, 1), (0, 0)), ((1, 1), (40, 40)),
                                              ((1, 4), (0, 64)), ((2, 5), (60, 180))],
                         ids=["1-packet-size0", "1-packet-fixed", "0-64", "60-180"])
def test_walk_follows_generator_calls(monkeypatch, block, pending, band, packets, payload):
    # blocks of 1 to 3 outputs make sessions straddle refills
    if block:
        monkeypatch.setattr(synth, "_BLOCK", block)
    # one stream through three classes: a lead class whose one-packet
    # sessions each take 11 words (when no draw is rejected), so that the
    # parametrized band starts on an output's high half after one session
    # and on a low half after two; then a class of another band
    walks = [(SynthClass("lead", 7, 7, 1 if pending else 2), (1, 1), (0, 0)),
             (SynthClass("band", *band, 5), packets, payload),
             (SynthClass("next", 200, 222, 3), packets, payload)]
    for seed in [3_871_264_509, 42, 2**63 + 5]:
        bitgen, twin = np.random.default_rng(seed).bit_generator, np.random.default_rng(seed)
        left = np.zeros(0, dtype="<u4"), 0
        for cls, packets_per_session, payload_len in walks:
            (columns, plens, payload_bytes, steps), left = _walk(
                bitgen, left, cls, packets_per_session, payload_len)
            want_sessions, want_plens, want_payload, want_steps = twin_draws(
                twin, cls, packets_per_session, payload_len)
            assert as_twin_draws(columns) == want_sessions
            assert plens.tolist() == want_plens and steps.tolist() == want_steps
            assert payload_bytes.dtype == np.uint8
            assert payload_bytes.tobytes() == want_payload.tobytes()
            words, pos = left
            assert pos in (0, 1) and len(words) % 2 == 0
            if cls.name == "lead":
                assert pos == pending
        # the words left, then the stream's next outputs, are the twin's
        # next 32-bit draws
        stream = np.concatenate([words[pos:], bitgen.random_raw(3).astype("<u8").view("<u4")])
        assert stream.tolist() == [twin.integers(0, 2**32, dtype=np.uint64) for _ in stream]


def pcg64_with_output(k, output):
    """A PCG64 bit generator whose raw output k (from 0) is `output`. PCG64
    steps its 128-bit state s to s * MULT + inc, then outputs its high half
    xor its low half rotated right by the state's top six bits; so pick the
    high half, solve for the low half, and step back k + 1 times."""
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, 0xDA3E39CB94B95BDB
    high = 0x5DEECE66D1234567
    rot = high >> 58
    state = high << 64 | high ^ ((output << rot | output >> (64 - rot)) & (2**64 - 1))
    for _ in range(k + 1):
        state = (state - inc) * pow(mult, -1, 2**128) % 2**128
    check, bitgen = np.random.PCG64(), np.random.PCG64()
    check.state = bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                  "state": {"state": state, "inc": inc}}
    assert check.random_raw(k + 1)[k] == output
    return bitgen


@pytest.mark.parametrize("half, drawn", [(0, (0, 3)), (1, (200, 5000))],
                         ids=["payload-length", "timestamp-step"])
def test_walk_draws_past_a_rejected_word(monkeypatch, half, drawn):
    # Lemire's rule rejects a word of 0 for any range whose size is not a
    # power of two. The first session of one packet and a one-value band
    # takes words 0-9; then the payload length draw (3 values) starts at
    # word 10, the low half of output 5, and the step draw at the word after
    # the length's. Output 5 has its low or its high half 0.
    rejected = []

    def spy(words, pos, low, high):
        if high - low > 1 and words[pos] == 0:
            rejected.append((low, high))
        return _scalar_draw(words, pos, low, high)

    monkeypatch.setattr(synth, "_scalar_draw", spy)
    cls, recipe = SynthClass("zero", 7, 7, 3), ((1, 1), (0, 2))
    output = 0x9E3779B9 << 32 * (1 - half)
    (columns, plens, _, steps), _ = _walk(pcg64_with_output(5, output),
                                          (np.zeros(0, dtype="<u4"), 0), cls, *recipe)
    want_sessions, want_plens, _, want_steps = twin_draws(
        np.random.Generator(pcg64_with_output(5, output)), cls, *recipe)
    assert rejected == [drawn]
    assert as_twin_draws(columns) == want_sessions
    assert plens.tolist() == want_plens and steps.tolist() == want_steps

@pytest.mark.parametrize("low, high", [(0, 2**31 + 1), (5, 3 * 2**30 + 5), (0, 2**32 - 1),
                                       (200, 5000), (9, 10)])
def test_scalar_draw_follows_generator_integers(low, high):
    # ranges past 2**31 reject up to about half of the words
    rng = np.random.default_rng(2024)
    words = rng.bit_generator.random_raw(200).astype("<u8").view("<u4").tolist()
    twin = np.random.default_rng(2024)
    pos, got = 0, []
    for _ in range(150):
        value, pos = _scalar_draw(words, pos, low, high)
        got.append(value)
    assert got == [twin.integers(low, high) for _ in got]
    # the twin's next word is the one after those taken
    assert twin.integers(0, 2**32, dtype=np.uint64) == words[pos]


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
    """A class refuses its own band, name and sessions when made; a recipe
    the generator cannot write is refused before `out_dir` is created. Each
    refusal is a ValueError naming the class or the argument."""

    def refused(self, tmp_path, match, classes=None, seed=0, **recipe):
        # `classes` makes the classes, inside the check: a class refuses its
        # own band and name when made, the recipe's other rules synth_corpus
        out = tmp_path / "corpus"
        with pytest.raises(ValueError, match=match):
            synth_corpus(out, classes() if classes else binary_synth_classes(2), seed,
                         **recipe)
        assert not out.exists()

    def test_negative_seed(self, tmp_path):
        self.refused(tmp_path, "expected non-negative integer", seed=-1)

    @pytest.mark.parametrize("low, high", [(9, 8), (-1, 8), (0, 256)])
    def test_byte_band_of_a_later_class(self, tmp_path, low, high):
        self.refused(tmp_path, "class 'bad': payload bytes must satisfy "
                               f"0 <= byte_low <= byte_high <= 255, got {low} and {high}",
                     lambda: [SynthClass("fine", 0, 255, 1), SynthClass("bad", low, high, 1)])

    @pytest.mark.parametrize("names, match", [
        (["a b", "a_b"], "classes 'a b' and 'a_b' would both be written to a_b.pcap"),
        (["x", "Mirai", "mirai"], "classes 'Mirai' and 'mirai' would both be written to "
                                  "mirai.pcap"),
        (["web,cam", "b"], "class 'web,cam': a class name cannot hold ','"),
        (["a", "line\nfeed"], "class 'line\\nfeed': a class name cannot hold ','"),
        (["a", "carriage\rreturn"], "class 'carriage\\rreturn': a class name cannot hold ','"),
        (["a", " web"], "class ' web': a class name cannot hold ','"),
        (["cam\t", "b"], "class 'cam\\t': a class name cannot hold ','"),
        (["", "b"], "class '': a class needs a name"),
    ], ids=["one-slug", "case", "comma", "line-feed", "carriage-return", "leading-space",
            "trailing-tab", "empty"])
    def test_class_names_a_corpus_cannot_keep_apart(self, tmp_path, names, match):
        self.refused(tmp_path, re.escape(match),
                     lambda: [SynthClass(name, 0, 255, 2) for name in names])

    @pytest.mark.parametrize("packets", [(0, 0), (0, 3), (5, 4)])
    def test_packets_per_session(self, tmp_path, packets):
        self.refused(tmp_path, "packets_per_session must satisfy 1 <= lo <= hi, "
                               f"got {re.escape(str(packets))}", packets_per_session=packets)

    @pytest.mark.parametrize("payload", [(70000, 70000), (0, SNAPLEN - 53), (-1, 3), (4, 3)])
    def test_payload_len(self, tmp_path, payload):
        self.refused(tmp_path, f"payload_len must satisfy 0 <= lo <= hi <= {SNAPLEN - 54}, "
                               f"got {re.escape(str(payload))}", payload_len=payload)

    @pytest.mark.parametrize("fields, match", [
        ({"byte_low": 9, "byte_high": 8}, "class 'web': payload bytes must satisfy "
                                          "0 <= byte_low <= byte_high <= 255, got 9 and 8"),
        ({"byte_high": 256}, "class 'web': payload bytes must satisfy "
                             "0 <= byte_low <= byte_high <= 255, got 0 and 256"),
        ({"byte_low": -1}, "class 'web': payload bytes must satisfy "
                           "0 <= byte_low <= byte_high <= 255, got -1 and 255"),
        ({"name": "web,cam"}, "class 'web,cam': a class name cannot hold ','"),
        ({"name": "web\n"}, "class 'web\\n': a class name cannot hold ','"),
        ({"name": ""}, "class '': a class needs a name"),
        ({"sessions": 0}, "class 'web': sessions must be >= 1, got 0")],
        ids=["band-reversed", "band-high", "band-low", "comma", "line-feed", "empty",
             "sessions"])
    def test_a_class_refuses_its_own_rules_when_made_or_replaced(self, fields, match):
        good = SynthClass("web", 0, 255, 2)
        for make in (lambda: dataclasses.replace(good, **fields),
                     lambda: SynthClass(**{**vars(good), **fields})):
            with pytest.raises(ValueError, match=re.escape(match)):
                make()
        # and none can be changed after it is made
        with pytest.raises(dataclasses.FrozenInstanceError):
            good.sessions = 0
        assert good == SynthClass("web", 0, 255, 2)

    def test_longest_payload_is_written(self, tmp_path):
        classes = [SynthClass("a", 0, 0, 1), SynthClass("b", 1, 1, 1)]
        [(path, _), _] = synth_corpus(tmp_path, classes, 0, packets_per_session=(1, 1),
                                      payload_len=(SNAPLEN - 54, SNAPLEN - 54))
        _, [record] = read_pcap_records(path)
        assert record.cap_len in (SNAPLEN, SNAPLEN - 12)  # TCP or UDP



class TestLabelsFile:
    """Every entry `write_labels_file` writes reads back from
    `read_labels_file` as a path to the same file and the same class name;
    an entry that could not is refused before the file is created."""

    def test_corpus_under_a_directory_starting_with_white_space(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        entries = synth_corpus(" sp", binary_synth_classes(2), 0)
        write_labels_file("labels.txt", entries)
        got = read_labels_file("labels.txt")
        assert got == [("./ sp/benign.pcap", "benign"), ("./ sp/malicious.pcap", "malicious")]
        assert [Path(p).read_bytes() for p, _ in got] == [p.read_bytes() for p, _ in entries]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        entries = synth_corpus(tmp_path, binary_synth_classes(2), 0)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{p},{name}\n" for p, name in entries), encoding="utf-8-sig")
        assert labels.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_labels_file(labels) == [(str(p), name) for p, name in entries]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(
        st.text(st.sampled_from(" \t\n\r\x0c\x85 #,./aé"), max_size=6)
        | st.text(max_size=6).map(lambda t: "/" + t),
        st.text(st.sampled_from(" \t\n\r\x0b,#bé"), max_size=5)), max_size=4))
    def test_every_written_entry_reads_back(self, entries):
        def reads_back(p, name):
            return ("\n" not in p and "\r" not in p and p == p.rstrip()
                    and not any(c in name for c in ",\n\r") and name == name.strip())

        with tempfile.TemporaryDirectory() as d:
            labels = Path(d) / "labels.txt"
            bad = [(p, name) for p, name in entries if not reads_back(p, name)]
            if bad:
                with pytest.raises(ValueError) as exc:
                    write_labels_file(labels, entries)
                assert str(exc.value).startswith(f"labels entry {bad[0]!r} would not read back")
                assert not labels.exists()
                return
            write_labels_file(labels, entries)
            got = read_labels_file(labels)
        assert [name for _, name in got] == [name for _, name in entries]
        assert [Path(p) for p, _ in got] == [Path(p) for p, _ in entries]
