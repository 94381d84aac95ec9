"""Hostile-input properties. A valid pcap, FTLD or FTLW file, cut short and
with bytes flipped, either parses or raises that module's typed error, from
a regular file and from a pipe; the two text inputs, a config file and a
labels file, either parse or raise ValueError."""

import argparse
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bytecap.cli import SETTINGS, RunConfig, effective_config, parse_config
from bytecap.nn import (
    Checkpoint,
    Conv1dSpec,
    DenseSpec,
    GlobalAvgPoolSpec,
    MaxPool1dSpec,
    Model,
    ModelConfig,
    WeightsFormatError,
    load_weights,
    save_weights,
)
from bytecap.pcap import PcapFormatError, TruncatedCaptureError, write_pcap
from bytecap.synth import read_labels_file
from bytecap.views import (
    Capture,
    DatasetFile,
    DatasetFormatError,
    HeaderCategory,
    Sample,
    ViewKind,
    read_dataset,
    write_dataset,
)
from conftest import arp_frame, ipv4_frame, ipv6_frame, read_through_pipe

FRAMES = [ipv4_frame(payload=b"hello"), ipv4_frame(proto=17, payload=b"dns?"),
          ipv4_frame(vlan_tags=1, payload=b"tagged"), ipv4_frame(frag_offset=3),
          ipv6_frame(payload=b"six"), arp_frame()]


def pcap_blob(tmp_path, byte_order, resolution):
    p = tmp_path / "valid.pcap"
    frac = 1000 if resolution == "nano" else 1
    write_pcap(p, [(1_600_000_000 + i, 250_000 * frac * i, f) for i, f in enumerate(FRAMES)],
               byte_order=byte_order, ts_resolution=resolution)
    assert len(Capture.read(p)) == len(FRAMES)
    return p.read_bytes()


def ftld_blob(tmp_path):
    rng = np.random.default_rng(0)
    ds = DatasetFile(ViewKind.FLOW, HeaderCategory.NO_HEADERS, 6, ["benign", "malicious"],
                     [Sample(i % 2, rng.bytes(6)) for i in range(5)])
    p = tmp_path / "valid.ftld"
    write_dataset(p, ds)
    assert read_dataset(p) == ds
    return p.read_bytes()


def ftlw_blob(tmp_path, loss):
    # a model small enough that flips often land in the header and specs
    cfg = ModelConfig(input_len=12, layers=(Conv1dSpec(3, 3, 1), MaxPool1dSpec(2, 2),
                                            GlobalAvgPoolSpec(), DenseSpec(2, "softmax")),
                      loss=loss, class_count=2)
    p = tmp_path / "valid.ftlw"
    save_weights(p, Checkpoint(config=cfg, weights=Model(cfg).copy_weights(),
                               best_epoch=1, best_val_accuracy=0.5))
    assert load_weights(p).config == cfg
    return p.read_bytes()


@st.composite
def damaged(draw, blobs):
    """One of `blobs` with up to four bytes flipped, more often near the
    start where the headers are, then maybe cut short."""
    out = bytearray(draw(st.sampled_from(blobs)))
    anywhere = st.integers(0, len(out) - 1)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.one_of(st.integers(0, min(63, len(out) - 1)), anywhere))
        out[pos] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        out = out[:draw(st.integers(0, len(out)))]
    return bytes(out)


def check_parses_or_raises(tmp_path, read, blobs, errors, examples):
    """Every damaged blob, from a file or from a pipe, either parses or
    raises one of `errors`. Derandomized, so every run tries the same
    inputs, and bounded to keep each format to about a second."""
    path = tmp_path / "damaged"
    pipes = [False, True] if os.path.isdir("/dev/fd") else [False]

    @settings(max_examples=examples, deadline=None, derandomize=True, database=None)
    @given(damaged(blobs), st.sampled_from(pipes))
    def check(blob, through_pipe):
        try:
            if through_pipe:
                read_through_pipe(read, blob)
            else:
                path.write_bytes(blob)
                read(path)
        except errors:
            pass

    check()


def test_pcap_parses_or_raises_typed(tmp_path):
    blobs = [pcap_blob(tmp_path, order, resolution)
             for order in "<>" for resolution in ("micro", "nano")]
    check_parses_or_raises(tmp_path, Capture.read, blobs,
                           (PcapFormatError, TruncatedCaptureError), 300)


def claiming_length_zero(blob, at):
    """`blob` with the u32 length field at byte `at` set to 0."""
    out = bytearray(blob)
    struct.pack_into("<I", out, at, 0)
    return bytes(out)


def test_ftld_parses_or_raises_typed(tmp_path):
    blob = ftld_blob(tmp_path)
    check_parses_or_raises(tmp_path, read_dataset, [blob, claiming_length_zero(blob, 8)],
                           DatasetFormatError, 150)


def test_ftlw_parses_or_raises_typed(tmp_path):
    blobs = [ftlw_blob(tmp_path, loss)
             for loss in ("binary_cross_entropy", "categorical_cross_entropy")]
    check_parses_or_raises(tmp_path, load_weights, blobs + [claiming_length_zero(blobs[0], 6)],
                           WeightsFormatError, 200)


CONFIG_KEYS = sorted({key for keys in SETTINGS.values() for key in keys})
# values at the edges of what int(), float() and the choice lists accept;
# the long digit string passes int()'s default 4300-digit limit
CONFIG_VALUES = ["1", "-3", "0.5", "1e999", "nan", "true", "No", "packet", "binary", "",
                 "0x10", "1_000", "\u0663", "9" * 4301, "only-eth"]


@st.composite
def config_texts(draw):
    """A command and config text for it: mostly `key = value` lines, keyed
    by that command's settings more often than by others or by junk."""
    command = draw(st.sampled_from(sorted(SETTINGS)))
    line = st.builds("{}{}{}{}".format,
                     st.sampled_from(SETTINGS[command]) | st.sampled_from(CONFIG_KEYS)
                     | st.text(max_size=8),
                     st.sampled_from(["=", " = ", " =", "\t=\t", "==", ":"]),
                     st.sampled_from(CONFIG_VALUES) | st.text(max_size=12),
                     st.sampled_from(["", " # note", "\r", "\x00", "\u2028"]))
    lines = st.lists(st.one_of(*[line] * 5, st.text(max_size=30)), max_size=5)
    return command, "\n".join(draw(lines))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config_texts())
def test_config_text_parses_or_raises_value_error(command_text):
    command, text = command_text
    try:
        values = parse_config(text, command)
    except ValueError:
        return
    assert set(values) <= set(SETTINGS[command])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SETTINGS)).flatmap(lambda command: st.tuples(
    st.just(command), st.sampled_from(SETTINGS[command]),
    st.sampled_from(CONFIG_VALUES) | st.text(max_size=12))))
def test_flag_text_parses_or_raises_value_error(command_key_text):
    """The config values, given as a flag's text, either convert to the
    setting's type or raise ValueError."""
    command, key, text = command_key_text
    args = argparse.Namespace(config=None, **{key: text})
    try:
        cfg = effective_config(args, command)
    except ValueError:
        return
    assert type(getattr(cfg, key)) is type(getattr(RunConfig(), key))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_labels_line_not_utf8_is_named(tmp_path, newline):
    # the bad line lies past the first read of the text layer
    lines = [b"# corpus"] + [b"a.pcap,benign"] * 3000 + [b"b\xff.pcap,benign", b"c,benign"]
    path = tmp_path / "labels.txt"
    path.write_bytes(newline.join(lines))
    with pytest.raises(ValueError) as exc:
        read_labels_file(path)
    assert str(exc.value) == f"{path}:3002: line is not UTF-8"


def test_labels_file_parses_or_raises_value_error(tmp_path):
    path = tmp_path / "labels.txt"
    lines = st.one_of(st.binary(max_size=40),
                      st.sampled_from([b"a.pcap,benign", b"x,y,Mirai", b"# c", b",", b"\xff,\xfe",
                                       b"p.pcap,benign\r", b"\xef\xbb\xbfp,benign"]))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(lines, max_size=5).map(b"\n".join))
    def check(blob):
        path.write_bytes(blob)
        try:
            entries = read_labels_file(path)
        except ValueError:  # UnicodeDecodeError included
            return
        assert all(isinstance(p, str) and isinstance(name, str) for p, name in entries)

    check()
