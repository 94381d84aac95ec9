"""Traffic views, header-byte categories and dataset assembly.

A capture is grouped into units per view (packet / flow / session), each
unit's packets are stripped per header category, and the concatenated
bytes become one fixed-length labeled sample. Datasets serialize to a
small binary format (magic "FTLD") that round-trips byte-exactly.

`Capture.read` parses a capture once into flat arrays: the frame buffer
as read (`pcap.PcapReader.read_frames`, whose record walk only follows
each incl_len and checks the record rules on the collected header
columns after the loop), per-packet layer offsets and the flow and
session groupings. It dissects every frame at once as numpy columns
(`pcap.dissect_frames`), one packed flow key row per frame (layout in
`pcap.FrameColumns`), and groups the packets once: one stable lexsort over
those rows numbers the flows, and sessions are numbered from the flow
table in session order (`pcap.session_rows`). `build_dataset` assembles every
view x category cell from a `Capture` by reading windows of that buffer
at those offsets, without copying it, so a grid of cells needs one parse
per capture, and the four category cells of a flow or session view share
the grouping `read` made. A cell whose units give at most one piece
each lays them in by one row assignment; any other cell places every
piece by one boolean scatter. The masks that pick each window's bytes
are run-length rows (`_prefix_mask`), never a broadcast int64 compare
or a width-squared table. The per-packet path (`read_capture` with
`pcap.dissect`, `filter_packets`, `split_view` with `pcap.keys`,
`strip_headers`, `assemble_sample`) states the same rules one packet at
a time and is the reference the tests hold the array path to.

A `DatasetFile` holds its samples as arrays: an (N, sample_len) uint8
`data` matrix and an (N,) int64 `labels` vector, plus, when built from
captures, each row's source, unit and stripped length (`Provenance`,
which `byte_distribution` needs and FTLD does not store). In every view a
unit is named by the record index of its first packet, whose
`keys(dissect(record))` are the flow or session key.
FTLD records are written and read as one (N, 2 + sample_len) byte
matrix and `tensors()` is a cast. A reader takes the header one named
field at a time into a `DatasetHeader`, then the rest of the file as the
records (`_bounded.read_rest`), which only then meet the sample count
the header claims. Class names are `class_catalog`'s. The sample lengths
a dataset takes are one rule, `SAMPLE_LEN_RULE`, which `build_dataset`,
`Capture.assemble`, `write_dataset` and the FTLD reader check through
`check_sample_len`, as `nn.ModelConfig` does for a model's input length.
`DatasetFile.samples` is a read-only sequence of `Sample(label, data)`
rows built on access, kept for the benchmark harness and other callers
that walk samples one at a time.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from ._bounded import field_reader, read_rest
from .pcap import (
    Dissection,
    FrameColumns,
    L3Kind,
    PacketRecord,
    _windows,
    dissect,
    dissect_frames,
    keys,
    read_pcap,
    session_rows,
)

class ViewKind(Enum):
    PACKET = "packet"
    FLOW = "flow"
    SESSION = "session"


class HeaderCategory(Enum):
    ALL_HEADERS = "all_headers"
    ONLY_ETHERNET = "only_ethernet"
    WITHOUT_ETHERNET = "without_ethernet"
    NO_HEADERS = "no_headers"


BINARY_CLASSES = ["benign", "malicious"]

# 12 botnet scenario names, fixed order.
BOTNET_CLASSES = [
    "Hide and Seek",
    "Muhstik",
    "Linux.Mirai",
    "Hakai",
    "Linux.Hajime",
    "Kenjiro",
    "Torii",
    "Mirai",
    "Okiru",
    "IRCBot",
    "Trojan",
    "Gagfyt",
]


class Task(NamedTuple):
    """One task's label rules, all that `label_index` reads: its class names
    in label order, the capture names it folds into one of those classes,
    and the capture names whose files it skips."""

    classes: tuple[str, ...]
    folds: dict[str, str]
    skips: frozenset[str]


TASKS = {  # binary counts a botnet as malicious; multi is botnets only
    "binary": Task(tuple(BINARY_CLASSES), dict.fromkeys(BOTNET_CLASSES, "malicious"),
                   frozenset()),
    "multi": Task(tuple(BOTNET_CLASSES), {}, frozenset({"benign"})),
}


def class_catalog(task: str) -> list[str]:
    """`TASKS[task]`'s class names in label order, as a fresh list; any
    other task is refused with a ValueError naming it."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected {' or '.join(map(repr, TASKS))}")
    return list(TASKS[task].classes)


@dataclass(slots=True)
class Sample:
    """One fixed-length labeled byte vector: one row of a DatasetFile."""

    label: int
    data: bytes


@dataclass(frozen=True, eq=False)
class Provenance:
    """Where each row of a built dataset came from: its only copy, never serialized.

    Row i comes from capture sources[source[i]], is the unit whose first
    packet is record first[i] there and held stripped_len[i] bytes before
    truncation and padding. source, first and stripped_len are int64.
    """

    sources: list
    source: np.ndarray
    first: np.ndarray
    stripped_len: np.ndarray

    def take(self, index: np.ndarray) -> "Provenance":
        return Provenance(self.sources, self.source[index], self.first[index],
                          self.stripped_len[index])


class DatasetFile:
    """A labeled byte dataset: `data`, an (N, sample_len) uint8 matrix,
    `labels`, an (N,) int64 vector, and `provenance`, which only
    `build_dataset` fills in (None on datasets read from disk or built
    from a list of Sample, which holds only a label and data).

    `samples` is a read-only Sequence[Sample] over the rows that builds one
    Sample per access, and the fifth positional argument takes a list of
    Sample, converted once. Both serve callers that still walk samples one
    at a time, such as the benchmark harness; the arrays are the dataset.
    """

    def __init__(self, view: ViewKind, category: HeaderCategory, sample_len: int,
                 class_names: list[str], samples: Sequence[Sample] = (), *,
                 data: Optional[np.ndarray] = None,
                 labels: Optional[np.ndarray] = None,
                 provenance: Optional[Provenance] = None):
        self.view, self.category = view, category
        self.sample_len, self.class_names = sample_len, class_names
        if data is None:
            data, labels = _from_samples(list(samples), sample_len)
        self.data, self.labels, self.provenance = data, labels, provenance

    @property
    def samples(self) -> Sequence[Sample]:
        return _SampleView(self)

    def __eq__(self, other):
        if not isinstance(other, DatasetFile):
            return NotImplemented
        return ((self.view, self.category, self.sample_len, self.class_names)
                == (other.view, other.category, other.sample_len, other.class_names)
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.data, other.data)
                and _same_provenance(self.provenance, other.provenance))

    def __repr__(self) -> str:
        return (f"DatasetFile(view={self.view}, category={self.category}, "
                f"sample_len={self.sample_len}, class_names={self.class_names}, "
                f"rows={len(self.labels)})")

    def _take(self, index) -> "DatasetFile":
        """A new dataset of the rows `index` selects, in that order."""
        index = np.asarray(index, dtype=np.int64)
        return DatasetFile(self.view, self.category, self.sample_len,
                           list(self.class_names), data=self.data[index],
                           labels=self.labels[index],
                           provenance=(None if self.provenance is None
                                       else self.provenance.take(index)))

    def class_counts(self) -> dict[str, int]:
        counts = np.bincount(self.labels, minlength=len(self.class_names))
        return dict(zip(self.class_names, counts.tolist()))

    def tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """Byte matrix scaled to [0,1] as (count, sample_len, 1) plus labels.

        A float32 copy of the whole dataset by `scale_bytes`, 4x the bytes of
        `data`, for callers that want every row at once (the tests, the
        benchmark's load stage). `train` and `evaluate` never make it: they
        pass uint8 batches of `data` to `Model.forward`, which scales them
        by the same rule, so the model sees the same values bit for bit."""
        x = scale_bytes(self.data.reshape(len(self.labels), self.sample_len, 1))
        return x, self.labels.astype(np.int64)


def scale_bytes(data: np.ndarray) -> np.ndarray:
    """uint8 bytes as model input in [0,1] (Wang et al.): one float32
    division by 255 into a new float32 array, each byte cast to float32
    first (bit for bit a float32 copy, then an in-place division)."""
    return np.divide(data, np.float32(255), dtype=np.float32)


def _same_provenance(p: Optional[Provenance], q: Optional[Provenance]) -> bool:
    """Whether each row has the same source, first record and stripped length."""
    if p is None or q is None:
        return p is q
    return (np.array_equal(np.array(p.sources, dtype=object)[p.source],
                           np.array(q.sources, dtype=object)[q.source])
            and np.array_equal(p.first, q.first)
            and np.array_equal(p.stripped_len, q.stripped_len))


def _from_samples(samples: list[Sample], sample_len: int):
    """(data, labels) of a list of Sample."""
    if any(len(s.data) != sample_len for s in samples):
        raise ValueError("sample length does not match dataset sample_len")
    data = np.frombuffer(b"".join(s.data for s in samples),
                         dtype=np.uint8).reshape(len(samples), sample_len)
    return data, np.array([s.label for s in samples], dtype=np.int64)


class _SampleView(Sequence):
    """The rows of a DatasetFile as Sample objects, one built per access."""

    __slots__ = ("_ds",)

    def __init__(self, ds: DatasetFile):
        self._ds = ds

    def __len__(self) -> int:
        return len(self._ds.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        # numpy raises IndexError past either end
        return Sample(int(self._ds.labels[i]), self._ds.data[i].tobytes())


PacketPair = tuple[PacketRecord, Dissection]


def filter_packets(pairs: Iterable[PacketPair], view: ViewKind,
                   include_non_ip: bool = False) -> list[PacketPair]:
    """Drop non-IP packets; optionally keep them for the packet view."""
    kept = []
    for rec, dis in pairs:
        if dis.l3_kind is L3Kind.NON_IP and not (include_non_ip and view is ViewKind.PACKET):
            continue
        kept.append((rec, dis))
    return kept


def read_capture(path) -> tuple[float, list[PacketPair]]:
    """Read and dissect one capture: its ts_scale and (record, dissection) pairs."""
    with read_pcap(path) as reader:
        return reader.meta.ts_scale, [(rec, dissect(rec)) for rec in reader]


def split_view(pairs: Sequence[PacketPair], view: ViewKind) -> dict:
    """Group packets into units; keys are flow/session keys or packet index.

    Insertion order is first-appearance order, so iterating the result
    visits units by their first packet's position in the capture.
    """
    units: dict = {}
    if view is ViewKind.PACKET:
        for rec, dis in pairs:
            units[rec.index] = [(rec, dis)]
        return units
    for rec, dis in pairs:
        flow, session = keys(dis)
        key = session if view is ViewKind.SESSION else flow
        units.setdefault(key, []).append((rec, dis))
    return units


def strip_headers(data: bytes, d: Dissection, cat: HeaderCategory) -> bytes:
    """Excise header bytes per category.

    When a needed boundary is absent (non-IP or truncated layer) the rule
    falls back to the nearest present boundary rather than dropping data.
    """
    if cat is HeaderCategory.ALL_HEADERS:
        return data
    if cat is HeaderCategory.WITHOUT_ETHERNET:
        return data[d.eth_end:]
    if cat is HeaderCategory.ONLY_ETHERNET:
        if d.ip_end is None:
            return data
        return data[:d.eth_end] + data[d.ip_end:]
    if cat is HeaderCategory.NO_HEADERS:
        cut = d.ip_end if d.ip_end is not None else d.eth_end
        return data[cut:]
    raise ValueError(f"unknown category {cat!r}")


def assemble_sample(unit: Sequence[PacketPair], cat: HeaderCategory,
                    n: int) -> tuple[bytes, int]:
    """Concatenate stripped packet bytes in capture file order into an n-byte vector.

    Returns (vector, total stripped length before truncation). Truncation
    keeps the first n bytes; shorter streams are right-padded with zeros.
    """
    if n < 1:
        raise ValueError("sample length must be >= 1")
    total = 0
    pieces = []
    have = 0
    for rec, dis in unit:
        sb = strip_headers(rec.data, dis, cat)
        total += len(sb)
        if have < n:
            take = sb[:n - have]
            pieces.append(take)
            have += len(take)
    data = b"".join(pieces)
    if len(data) < n:
        data = data.ljust(n, b"\x00")
    return data, total


def _first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a key matrix (`FrameColumns.key`) in order
    of first appearance: each row's number, and the row that first has each number.
    One stable lexsort over the rows' uint64 words puts equal rows together,
    each group in row order, so a group's first row is its first appearance."""
    words = key.view(np.uint64)
    order = np.lexsort(words.T)
    ordered = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[new]
    by_appearance = np.argsort(first)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(first))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, first[by_appearance]


Grouping = tuple[np.ndarray, np.ndarray, np.ndarray]


def _read_only(*arrays: np.ndarray) -> Grouping:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _grouping(ids: np.ndarray, first: np.ndarray) -> Grouping:
    """`Capture.units`' triple of a view whose packets have unit ids `ids`
    (-1 for a packet it leaves out) and whose units start at records `first`."""
    # left-out packets (id -1) sort first
    order = np.argsort(ids, kind="stable")[np.count_nonzero(ids < 0):]
    return _read_only(order, ids[order], first)


def _number_units(cols: FrameColumns) -> tuple[Grouping, Grouping]:
    """The flow and the session grouping of Capture.read (see Capture.units).

    The flow key rows (`FrameColumns.key`) are grouped once, in place, for
    the flows (see _first_appearance), so packets group as keys() groups
    them; the non-IP frames' rows are all zero, which no IP frame's row is,
    and their one group is left out. Sessions are then numbered from the
    flow table, one key row per flow with its endpoints in session order
    (`session_rows`): flows are numbered by first appearance, so a
    session's first packet is its first flow's.
    """
    flow_id, flow_first = _first_appearance(cols.key)
    non_ip = np.flatnonzero(cols.ip_end < 0)
    if len(non_ip):
        zero = flow_id[non_ip[0]]
        flow_first = np.delete(flow_first, zero)
        flow_id -= flow_id > zero
        flow_id[non_ip] = -1
    session, session_flow = _first_appearance(session_rows(cols.key[flow_first]))
    # a non-IP packet's flow id, -1, picks the -1 appended
    session_id = np.append(session, -1)[flow_id]
    return _grouping(flow_id, flow_first), _grouping(session_id, flow_first[session_flow])


@dataclass(frozen=True, eq=False)
class Capture:
    """One capture, read and dissected once, as flat per-packet arrays.

    Packet i is frames[start[i]:start[i] + cap_len[i]]. frames is the
    buffer PcapReader.read_frames read, record headers in place, and ends
    in zero padding at least as long as the longest frame, which assemble
    relies on to read a full-width window from any piece. eth_end and ip_end
    are offsets into that frame, ip_end is -1 for non-IP packets (the only
    ones without an IP header end). flows and sessions are the flow and
    session views' groupings, as `units` returns them: units are numbered
    in first-appearance order, non-IP packets are in none, and sessions are
    numbered from the flow table, so a session's first packet is its first
    flow's. A packet-view unit is its one packet.
    """

    source: str
    ts_scale: float
    frames: np.ndarray
    start: np.ndarray
    cap_len: np.ndarray
    eth_end: np.ndarray
    ip_end: np.ndarray
    flows: Grouping
    sessions: Grouping

    @classmethod
    def read(cls, path) -> "Capture":
        """Read a capture once and dissect all its frames as numpy columns.

        PcapReader.read_frames gives the frame buffer and its offset
        columns from one read and one record walk, pcap.dissect_frames
        every packet's layer offsets and flow key row (pcap.FrameColumns),
        and flows and sessions are grouped over those rows (_number_units).
        dissect and keys state the same rules one packet at a time and are
        the reference this path is tested against. No per-packet or
        per-unit objects are made.
        """
        with read_pcap(path) as reader:
            scale = reader.meta.ts_scale
            frames, start, cap_len = reader.read_frames()
        cols = dissect_frames(frames, start, cap_len)
        return cls(str(path), scale, frames, start, cap_len, cols.eth_end,
                   cols.ip_end, *_number_units(cols))

    def __len__(self) -> int:
        return len(self.cap_len)

    @property
    def non_ip(self) -> np.ndarray:
        return self.ip_end < 0

    def units(self, view: ViewKind, include_non_ip: bool = False) -> Grouping:
        """Group one view like filter_packets + split_view.

        Returns the kept packets' indices unit by unit (capture order
        within a unit), the unit row of each of those packets, and the
        record index of each unit's first packet, in first-appearance order,
        all read-only. A flow or session view gives the grouping `read`
        made, the same arrays on every call; the packet view's is built
        on each call.
        """
        if view is ViewKind.PACKET:
            order = (np.arange(len(self)) if include_non_ip
                     else np.flatnonzero(~self.non_ip))
            return _read_only(order, np.arange(len(order)), order)
        return self.flows if view is ViewKind.FLOW else self.sessions

    def _cuts(self, cat: HeaderCategory) -> tuple[np.ndarray, np.ndarray]:
        """strip_headers as two cuts per packet: frame[:head] + frame[tail:]."""
        zero = np.zeros_like(self.cap_len)
        has_ip = self.ip_end >= 0
        if cat is HeaderCategory.ALL_HEADERS:
            return zero, zero
        if cat is HeaderCategory.WITHOUT_ETHERNET:
            return zero, np.minimum(self.eth_end, self.cap_len)
        if cat is HeaderCategory.ONLY_ETHERNET:
            return (np.where(has_ip, self.eth_end, 0),
                    np.where(has_ip, self.ip_end, 0))
        if cat is HeaderCategory.NO_HEADERS:
            return zero, np.minimum(np.where(has_ip, self.ip_end, self.eth_end),
                                    self.cap_len)
        raise ValueError(f"unknown category {cat!r}")

    def assemble(self, view: ViewKind, cat: HeaderCategory, n: int,
                 include_non_ip: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """assemble_sample for every unit of one view at once.

        Returns a (units, n) uint8 matrix, each unit's stripped length
        before truncation, and each unit's first record index (read-only,
        shared with `units`). When every unit gives at most one piece (one
        packet's stripped bytes that fit), one row assignment lays them in,
        masking only a piece shorter than the window matrix, and when every
        piece fills its row, the window matrix is the output. Any other
        cell places every piece by one boolean scatter.
        """
        check_sample_len(n)
        order, rows, first = self.units(view, include_non_ip)
        head, tail = (a[order] for a in self._cuts(cat))
        start = self.start[order]
        length = head + self.cap_len[order] - tail
        totals = np.zeros(len(first), dtype=np.int64)
        np.add.at(totals, rows, length)
        # byte position of each packet within its unit's stripped stream
        before = np.cumsum(length) - length
        lead = np.flatnonzero(np.diff(rows, prepend=-1))
        pos = before - before[lead][rows]
        take = np.clip(n - pos, 0, length)
        at = np.flatnonzero(take > 0)
        piece_bytes = self._pieces(at, start, head, tail, take)
        width = piece_bytes.shape[1]
        if pos[at].any():
            # Pieces run unit by unit in capture order, so their valid bytes,
            # read in order, are the first min(total, n) bytes of each row.
            out = np.zeros((len(first), n), dtype=np.uint8)
            out[_prefix_mask(np.minimum(totals, n), n)] = piece_bytes[
                _prefix_mask(take[at], width)]
            return out, totals, first
        # no piece starts past column 0: each unit has at most one piece
        short = np.flatnonzero(take[at] < width)
        piece_bytes[short] *= _prefix_mask(take[at[short]], width)
        if len(at) == len(first) and width == n:
            return piece_bytes, totals, first  # one full row a unit
        out = np.zeros((len(first), n), dtype=np.uint8)
        out[rows[at], :width] = piece_bytes
        return out, totals, first

    def _pieces(self, at, start, head, tail, take) -> np.ndarray:
        """The stripped bytes of each packet i of `at` from its first on, one
        window row each, as wide as the longest take[i]. A window may run
        past its frame into the next record or the buffer's zero padding, so
        only a row's first take[i] bytes are its piece."""
        start, head, tail = start[at], head[at], tail[at]
        width = int(take[at].max(initial=1))
        piece_bytes = _windows(self.frames, start + tail - head, width)
        if head.any():  # the kept head bytes lead the row
            reach = min(int(head.max()), width)
            np.copyto(piece_bytes[:, :reach], _windows(self.frames, start, reach),
                      where=_prefix_mask(np.minimum(head, reach), reach))
        return piece_bytes


def _prefix_mask(length: np.ndarray, width: int) -> np.ndarray:
    """Rows of `width` booleans, row i True in its first length[i] columns
    (0 <= length <= width), laid out as two runs a row by np.repeat: no
    broadcast compare against an int64 column index, and no table whose
    size grows with width (width follows the longest frame)."""
    runs = np.stack((length, width - length), axis=1)
    values = np.tile([True, False], len(length))
    return np.repeat(values, runs.reshape(-1)).reshape(len(length), width)


def label_index(name: str, task: str) -> Optional[int]:
    """A capture name's index in `class_catalog(task)`, or None to skip the
    file, by `TASKS[task]`'s rules alone: a skipped name gives None, and a
    folded one the index of the class it folds into."""
    names, rules = class_catalog(task), TASKS[task]
    if name in rules.skips:
        return None
    folded = rules.folds.get(name, name)
    if folded not in names:
        raise ValueError(f"unknown class label {name!r} for {task} task")
    return names.index(folded)


def build_dataset(inputs: Sequence[tuple[object, str]], view: ViewKind,
                  cat: HeaderCategory, n: int, task: str, *,
                  include_non_ip: bool = False,
                  drop_empty: bool = False) -> DatasetFile:
    """Turn labeled captures into one dataset: per-file units, merged in order.

    `inputs` is a list of (source, class name), where a source is a pcap
    path, read here, or a `Capture` already read from one, so that many
    cells can share one parse. Every unit inherits its capture's label.
    Output order is source file order, then unit first-packet order, so
    rebuilding the same inputs is deterministic.
    """
    check_sample_len(n)
    names = class_catalog(task)
    sources, labels, cells = [], [], []
    for source, label_name in inputs:
        label = label_index(label_name, task)
        if label is None:
            continue
        cap = source if isinstance(source, Capture) else Capture.read(source)
        sources.append(cap.source)
        labels.append(label)
        cells.append(cap.assemble(view, cat, n, include_non_ip))
    # each cell is (data, stripped lengths, first records), led by empty
    # arrays so that no input still gives each its shape and dtype
    data, stripped, first = (np.concatenate(parts) for parts in zip(
        (np.zeros((0, n), dtype=np.uint8), np.zeros(0, dtype=np.int64),
         np.zeros(0, dtype=np.int64)), *cells))
    counts = [len(cell[2]) for cell in cells]
    row_source = np.repeat(np.arange(len(sources), dtype=np.int64), counts)
    labels = np.repeat(np.array(labels, dtype=np.int64), counts)
    provenance = Provenance(sources, row_source, first, stripped)
    ds = DatasetFile(view, cat, n, names, data=data, labels=labels,
                     provenance=provenance)
    return ds._take(np.flatnonzero(stripped)) if drop_empty else ds


def byte_distribution(ds: DatasetFile) -> dict[str, int]:
    """Total stripped (pre-padding) byte count per class.

    Needs build-time provenance; datasets loaded from disk no longer carry
    per-sample stripped lengths.
    """
    if not len(ds.labels):
        return {}
    if ds.provenance is None or (ds.provenance.stripped_len < 0).any():
        raise ValueError("byte_distribution needs an in-memory dataset "
                         "built by build_dataset (stripped lengths are "
                         "not serialized)")
    totals = np.bincount(ds.labels, weights=ds.provenance.stripped_len,
                         minlength=len(ds.class_names))
    return {name: int(t) for name, t in zip(ds.class_names, totals)}


# the sample lengths a dataset or a model takes: its test, and the rule a
# refusal states (FTLD's sample length and FTLW's input length are both u32)
SAMPLE_LEN_RULE = (lambda n: 1 <= n <= 0xFFFFFFFF,
                   "must lie in [1, 2^32 - 1] (the u32 sample length of FTLD and input "
                   "length of FTLW)")


def check_sample_len(n: int, error=ValueError, name: str = "sample length"):
    """Raise `error(message)`, the message stating SAMPLE_LEN_RULE, unless
    `n` obeys it."""
    if not SAMPLE_LEN_RULE[0](n):
        raise error(f"{name} {n} {SAMPLE_LEN_RULE[1]}")


_DATASET_MAGIC = b"FTLD"
_DATASET_VERSION = 1
_VIEW_CODES = {ViewKind.PACKET: 0, ViewKind.FLOW: 1, ViewKind.SESSION: 2}
_CATEGORY_CODES = {
    HeaderCategory.ALL_HEADERS: 0,
    HeaderCategory.ONLY_ETHERNET: 1,
    HeaderCategory.WITHOUT_ETHERNET: 2,
    HeaderCategory.NO_HEADERS: 3,
}
_VIEW_FROM_CODE = {v: k for k, v in _VIEW_CODES.items()}
_CATEGORY_FROM_CODE = {v: k for k, v in _CATEGORY_CODES.items()}


class DatasetFormatError(ValueError):
    pass


def write_dataset(path, ds: DatasetFile):
    """Serialize (little-endian): FTLD, version, view, category, sample_len,
    class table, then sample_count records of label u16 + raw bytes. What
    FTLD cannot hold or `read_dataset` would refuse is a ValueError before
    the file is created."""
    count = len(ds.labels)
    if ds.data.shape != (count, ds.sample_len):
        raise ValueError("sample length does not match dataset sample_len")
    check_sample_len(ds.sample_len)
    if not 1 <= len(ds.class_names) <= 0xFFFF:
        raise ValueError(f"{len(ds.class_names)} class names, FTLD holds 1 to 65535")
    names = [name.encode("utf-8") for name in ds.class_names]
    for i, raw in enumerate(names):
        if len(raw) > 0xFFFF:
            raise ValueError(f"class name {i} is {len(raw)} UTF-8 bytes, FTLD holds at most 65535")
    bad = np.flatnonzero((ds.labels < 0) | (ds.labels >= len(names)))
    if bad.size:
        raise ValueError(f"label {ds.labels[bad[0]]} out of range")
    # one row per record: label u16 (little-endian), then the sample bytes
    records = np.empty((count, 2 + ds.sample_len), dtype=np.uint8)
    records[:, :2] = ds.labels.astype("<u2").view(np.uint8).reshape(count, 2)
    records[:, 2:] = ds.data
    with open(path, "wb") as fp:
        fp.write(_DATASET_MAGIC)
        fp.write(struct.pack("<HBBIH", _DATASET_VERSION, _VIEW_CODES[ds.view],
                             _CATEGORY_CODES[ds.category], ds.sample_len,
                             len(names)))
        for raw in names:
            fp.write(struct.pack("<H", len(raw)))
            fp.write(raw)
        fp.write(struct.pack("<Q", count))
        fp.write(records)


class DatasetHeader(NamedTuple):
    """An FTLD file's fields before its records, and the sample count it claims."""

    view: ViewKind
    category: HeaderCategory
    sample_len: int
    class_names: list[str]
    count: int


def _read_header(fp, path) -> DatasetHeader:
    """Parse everything before the sample records, each field after the
    magic through `field_reader`: a cut names the file and the field."""
    magic = fp.read(4)
    if magic != _DATASET_MAGIC:
        raise DatasetFormatError(f"{path}: bad dataset magic {magic!r}")
    field = field_reader(fp, lambda message: DatasetFormatError(f"{path}: {message}"))
    version, view_code, cat_code, sample_len, class_count = struct.unpack(
        "<HBBIH", field(10, "dataset header"))
    if version != _DATASET_VERSION:
        raise DatasetFormatError(f"{path}: unsupported dataset version {version}")
    if view_code not in _VIEW_FROM_CODE or cat_code not in _CATEGORY_FROM_CODE:
        raise DatasetFormatError(f"{path}: unknown view/category codes")
    check_sample_len(sample_len, lambda message: DatasetFormatError(f"{path}: {message}"))
    if class_count == 0:
        raise DatasetFormatError(f"{path}: empty class table")
    names = []
    for i in range(class_count):
        (name_len,) = struct.unpack("<H", field(2, "class table"))
        try:
            names.append(field(name_len, "class name").decode("utf-8"))
        except UnicodeDecodeError:
            raise DatasetFormatError(f"{path}: class name {i} is not UTF-8") from None
    (count,) = struct.unpack("<Q", field(8, "sample count"))
    return DatasetHeader(_VIEW_FROM_CODE[view_code], _CATEGORY_FROM_CODE[cat_code],
                         sample_len, names, count)


def read_dataset_header(path) -> DatasetHeader:
    """An FTLD file's header fields without reading its samples."""
    with open(path, "rb") as fp:
        return _read_header(fp, path)


def read_dataset(path) -> DatasetFile:
    with open(path, "rb") as fp:
        head = _read_header(fp, path)
        raw, have = read_rest(fp)
    rec_len = 2 + head.sample_len
    if have < head.count * rec_len:
        raise DatasetFormatError(f"{path}: truncated at sample {have // rec_len}")
    if have > head.count * rec_len:
        raise DatasetFormatError(f"{path}: bytes after the last of {head.count} samples")
    records = raw[:have].reshape(head.count, rec_len)
    labels = records[:, 0].astype(np.int64) | records[:, 1].astype(np.int64) << 8
    bad = np.flatnonzero(labels >= len(head.class_names))
    if bad.size:
        raise DatasetFormatError(f"{path}: sample {bad[0]} label {labels[bad[0]]} "
                                 "out of range")
    return DatasetFile(head.view, head.category, head.sample_len, head.class_names,
                       data=records[:, 2:], labels=labels)


VAL_FRACTION = 0.2  # the share of each class held out for validation by default


def split_indices(labels, val_fraction: float = VAL_FRACTION,
                  seed: int = 0) -> tuple[list[int], list[int]]:
    """Stratified (train, val) index split with a seeded shuffle.

    Every class with >= 2 members contributes at least one index to each
    side; singleton classes stay in the training side.
    """
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.int64)
    val_idx: list[int] = []
    train_idx: list[int] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        rng.shuffle(idx)
        n_val = int(round(len(idx) * val_fraction))
        if len(idx) >= 2:
            n_val = min(max(n_val, 1), len(idx) - 1)
        else:
            n_val = 0
        val_idx += idx[:n_val].tolist()
        train_idx += idx[n_val:].tolist()
    train_idx.sort()
    val_idx.sort()
    return train_idx, val_idx


def train_val_split(ds: DatasetFile, val_fraction: float = VAL_FRACTION,
                    seed: int = 0) -> tuple[DatasetFile, DatasetFile]:
    """Stratified dataset split; see split_indices for the rules."""
    train_idx, val_idx = split_indices(ds.labels, val_fraction, seed)
    return ds._take(train_idx), ds._take(val_idx)
