"""The benchmark's three workloads: set-up, the timed operation, output checks.

Every workload synthesizes its own corpus from the run seed, so the program
only ever sees generated pcaps. Expected counts and byte bands come from the
generator's recipe and from walking the pcap record headers here, never from
the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bytecap import (
    DatasetFile,
    HeaderCategory,
    ViewKind,
    binary_synth_classes,
    build_dataset,
    default_config,
    dissect,
    evaluate,
    extract_stat_features,
    filter_packets,
    load_weights,
    predict,
    read_dataset,
    read_pcap,
    save_weights,
    split_indices,
    split_view,
    synth_corpus,
    train,
    train_val_split,
    write_dataset,
    write_labels_file,
)

# `bytecap.train` is shadowed by the function of that name, so modules whose
# attributes the traced run or the clock re-routes are looked up by their
# full name.
cli = importlib.import_module("bytecap.cli")
bench = importlib.import_module("bytecap.bench")
train_module = importlib.import_module("bytecap.train")

SAMPLE_LEN = 115
TASK = "binary"
BATCH = 20
ACCURACY_FLOOR = 0.9  # the synthetic classes use disjoint payload byte bands
EVAL_BATCH = train_module.EVAL_BATCH  # evaluate()'s batch


@dataclass(frozen=True)
class Recipe:
    sessions_per_class: int
    packets_per_session: tuple[int, int]
    payload_len: tuple[int, int]


@dataclass
class Corpus:
    inputs: list[tuple[str, str]]
    labels_path: Path
    bands: dict[str, tuple[int, int]]  # class name -> payload byte range
    packets: dict[str, int]  # class name -> pcap records
    frame_bytes: int
    file_bytes: int
    sessions_per_class: int

    @property
    def total_packets(self) -> int:
        return sum(self.packets.values())

    @property
    def sessions(self) -> int:
        return self.sessions_per_class * len(self.packets)


@dataclass
class Rep:
    """One timed repetition: seconds (reference seconds under a calibrated
    clock), phase seconds and check results."""

    wall: float
    phases: dict[str, float]
    checks: list[tuple[str, bool]] = field(default_factory=list)
    ops: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    raw_wall: float = 0.0  # wall seconds, calibration loops left out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pcap_record_stats(path) -> tuple[int, int]:
    """(records, frame bytes) by walking classic-pcap record headers."""
    data = Path(path).read_bytes()
    order = "<" if data[:4] in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1") else ">"
    off, records, frame_bytes = 24, 0, 0
    while off < len(data):
        incl = struct.unpack_from(order + "I", data, off + 8)[0]
        off += 16 + incl
        records += 1
        frame_bytes += incl
    return records, frame_bytes


def synthesize(out_dir: Path, recipe: Recipe, seed: int, tracer) -> Corpus:
    classes = binary_synth_classes(recipe.sessions_per_class)
    with tracer.span("synth.corpus"):
        entries = synth_corpus(out_dir, classes, seed,
                               packets_per_session=recipe.packets_per_session,
                               payload_len=recipe.payload_len)
    labels_path = out_dir / "labels.txt"
    write_labels_file(labels_path, entries)
    packets, frame_bytes, file_bytes = {}, 0, 0
    for path, name in entries:
        records, nbytes = pcap_record_stats(path)
        packets[name] = records
        frame_bytes += nbytes
        file_bytes += Path(path).stat().st_size
    return Corpus(inputs=[(str(p), name) for p, name in entries],
                  labels_path=labels_path,
                  bands={c.name: (c.byte_low, c.byte_high) for c in classes},
                  packets=packets, frame_bytes=frame_bytes,
                  file_bytes=file_bytes,
                  sessions_per_class=recipe.sessions_per_class)


def expected_class_counts(corpus: Corpus, view: ViewKind) -> dict[str, int]:
    """Units per class the generator wrote: every packet, two directed flows
    per session (directions strictly alternate), one unit per session."""
    if view is ViewKind.PACKET:
        return dict(corpus.packets)
    per_session = 2 if view is ViewKind.FLOW else 1
    return {name: per_session * corpus.sessions_per_class for name in corpus.packets}


def payload_band_ok(ds: DatasetFile, bands: dict[str, tuple[int, int]]) -> bool:
    """Packet-view no-headers samples hold the transport header (8 or 20
    bytes) and then payload; every nonzero byte past offset 20 must lie in
    the band of the sample's class. Zero bytes may be padding."""
    raw = np.frombuffer(b"".join(s.data for s in ds.samples), dtype=np.uint8)
    raw = raw.reshape(len(ds.samples), ds.sample_len)[:, 20:]
    labels = np.array([s.label for s in ds.samples])
    for label, name in enumerate(ds.class_names):
        lo, hi = bands[name]
        rows = raw[labels == label]
        nonzero = rows[rows != 0]
        if nonzero.size == 0 or nonzero.min() < lo or nonzero.max() > hi:
            return False
    return True


def run_cli(argv) -> int:
    """cli.main in process, with its stdout and stderr kept off ours."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def model_config(seed: int, epochs: int):
    return default_config(TASK, "prose", "paper", epochs=epochs,
                          batch_size=BATCH, seed=seed)


def _n_labels(data) -> int:
    return len(data.samples) if isinstance(data, DatasetFile) else len(data[1])


def train_counts(args, kwargs, result) -> dict:
    """Work counts of one train() call; 'cnn' marks the stock conv model."""
    config, train_data, val_data = args[:3]
    epochs_run = len(result[1].epochs)
    return {"steps": epochs_run * math.ceil(_n_labels(train_data) / config.batch_size),
            "val_samples": epochs_run * _n_labels(val_data),
            "cnn": int(len(config.layers) > 1)}


def evaluate_counts(args, kwargs, result) -> dict:
    ckpt, data = args[:2]
    return {"samples": _n_labels(data), "cnn": int(len(ckpt.config.layers) > 1)}


def split_sizes(per_class: int, seed: int) -> tuple[int, int]:
    """(train, validation) sizes the stratified 80/20 split gives two classes
    of `per_class` units each."""
    tr, va = split_indices([0] * per_class + [1] * per_class, 0.2, seed)
    return len(tr), len(va)


class Workload:
    name = ""
    full: Recipe
    smoke_recipe: Recipe

    def __init__(self, seed: int, smoke: bool, clock):
        self.seed = seed
        self.smoke = smoke
        self.clock = clock  # phases are read from clock.now() checkpoints
        self.recipe = self.smoke_recipe if smoke else self.full
        self.corpus: Corpus | None = None

    def setup(self, work: Path, tracer):
        self.corpus = synthesize(work / "corpus", self.recipe, self.seed, tracer)
        self.clock.now()

    def run(self, tracer, rep_dir: Path) -> Rep:
        raise NotImplementedError

    def final_checks(self) -> list[tuple[str, bool]]:
        return []

    def metrics(self, reps: list[Rep]) -> dict[str, tuple[float, str, int]]:
        """Workload-specific end-to-end metrics: name -> (value, unit, n)."""
        raise NotImplementedError


def med(reps, phase) -> float:
    return float(np.median([r.phases[phase] for r in reps]))


class IngestGrid(Workload):
    """Full 3x4 view x category grid through `bytecap build`, then read back."""

    name = "ingest-grid"
    full = Recipe(210, (50, 120), (60, 180))
    smoke_recipe = Recipe(12, (50, 120), (60, 180))

    def setup(self, work, tracer):
        super().setup(work, tracer)
        warm = work / "warmup.ftld"
        run_cli(["build", "--labels", str(self.corpus.labels_path), "--view", "packet",
                 "--category", "all", "--n", str(SAMPLE_LEN), "--out", str(warm)])
        read_dataset(warm).tensors()

    def run(self, tracer, rep_dir):
        grid = rep_dir / "grid"
        argv = ["build", "--labels", str(self.corpus.labels_path), "--all-views",
                "--all-categories", "--n", str(SAMPLE_LEN), "--out", str(grid)]
        packets = self.corpus.total_packets
        routes = {
            "build_dataset": ("views.build_dataset",
                              lambda a, k, r: {"packets": packets, "samples": len(r.samples)}),
            "write_dataset": ("views.ftld_write",
                              lambda a, k, r: {"samples": len(a[1].samples)}),
            "read_dataset": ("views.ftld_read",
                             lambda a, k, r: {"samples": len(r.samples)}),
        }
        loaded = {}
        t0 = self.clock.now()
        with tracer.span("op"):
            with tracer.patched(cli, routes), \
                    self.clock.checkpoints(cli, ("build_dataset", "write_dataset")):
                rc = run_cli(argv)
            t1 = self.clock.now()
            for path in sorted(grid.glob("*.ftld")):
                with tracer.span("views.ftld_read") as c:
                    ds = read_dataset(path)
                    c["samples"] = len(ds.samples)
                with tracer.span("views.tensors", samples=len(ds.samples)):
                    ds.tensors()
                loaded[path.stem] = ds
        t2 = self.clock.now()

        rep = Rep(wall=t2 - t0, phases={"grid_s": t1 - t0, "load_s": t2 - t1},
                  ops=1 + len(loaded))
        rep.phases["samples"] = sum(len(ds.samples) for ds in loaded.values())
        expected = {f"{v.value}_{c.value}" for v in ViewKind for c in HeaderCategory}
        rep.checks.append(("cli build exits 0", rc == 0))
        rep.checks.append(("grid holds the 12 view x category files", set(loaded) == expected))
        for stem in sorted(expected & set(loaded)):
            ds = loaded[stem]
            view = ViewKind(stem.split("_", 1)[0])
            rep.checks.append((f"{stem} sample count per class matches the generator",
                               ds.sample_len == SAMPLE_LEN
                               and ds.class_counts() == expected_class_counts(self.corpus, view)))
        if "packet_no_headers" in loaded:
            rep.checks.append(("packet no-headers payload bytes lie in the class band",
                               payload_band_ok(loaded["packet_no_headers"], self.corpus.bands)))
        rep.digests = {f"{stem}.ftld": sha256(grid / f"{stem}.ftld") for stem in sorted(loaded)}
        shutil.rmtree(grid, ignore_errors=True)
        return rep

    def metrics(self, reps):
        return {
            "ingest_pkts_per_s": (self.corpus.total_packets / med(reps, "grid_s"), "1/s", len(reps)),
            "load_samples_per_s": (reps[0].phases["samples"] / med(reps, "load_s"), "1/s", len(reps)),
        }


class TrainInfer(Workload):
    """Train, evaluate, single-sample predict and a weights round trip on a
    prebuilt packet-view dataset; pcap code is not on the timed path."""

    name = "train-infer"
    full = Recipe(210, (50, 120), (60, 180))
    smoke_recipe = Recipe(12, (50, 120), (60, 180))
    epochs = 1

    @property
    def predict_calls(self) -> int:
        return 50 if self.smoke else 1000

    def setup(self, work, tracer):
        super().setup(work, tracer)
        ds = build_dataset(self.corpus.inputs, ViewKind.PACKET,
                           HeaderCategory.ALL_HEADERS, SAMPLE_LEN, TASK)
        self.ftld = work / "packet_all_headers.ftld"
        write_dataset(self.ftld, ds)
        self.ftld_digest = sha256(self.ftld)
        # discarded warm-up over ~200 samples of both classes
        step = max(1, len(ds.samples) // 200)
        small = DatasetFile(ds.view, ds.category, ds.sample_len, ds.class_names,
                            ds.samples[::step])
        tr, va = train_val_split(small, 0.2, self.seed)
        ckpt, _ = train(model_config(self.seed, 1), tr, va)
        evaluate(ckpt, small)
        predict(ckpt, small.samples[0].data)

    def run(self, tracer, rep_dir):
        weights = rep_dir / "model.ftlw"
        cfg = model_config(self.seed, self.epochs)
        t0 = self.clock.now()
        with tracer.span("op"):
            with tracer.span("views.ftld_read") as c:
                ds = read_dataset(self.ftld)
                c["samples"] = len(ds.samples)
            with tracer.span("views.tensors", samples=len(ds.samples)):
                x, _ = ds.tensors()
            t1 = self.clock.now()
            with tracer.span("views.split"):
                tr, va = train_val_split(ds, 0.2, self.seed)
            with tracer.span("train.train") as c, \
                    self.clock.checkpoints(train_module, ("_loss_acc",)):
                ckpt, history = train(cfg, tr, va)
                c.update(train_counts((cfg, tr, va), {}, (ckpt, history)))
            t2 = self.clock.now()
            with tracer.span("train.evaluate", samples=len(ds.samples), cnn=1):
                report = evaluate(ckpt, ds)
            t3 = self.clock.now()
            picks = np.linspace(0, len(ds.samples) - 1, self.predict_calls).round().astype(int)
            verdicts, latencies = [], []
            with tracer.span("train.predict", calls=len(picks)):
                for i in picks:
                    s = time.perf_counter()
                    verdict, _ = predict(ckpt, ds.samples[i].data)
                    latencies.append(time.perf_counter() - s)
                    verdicts.append(verdict)
            t4 = self.clock.now()
            with tracer.span("nn.save_weights"):
                save_weights(weights, ckpt)
            with tracer.span("nn.load_weights"):
                reloaded = load_weights(weights)
        t5 = self.clock.now()

        rep = Rep(wall=t5 - t0, latencies=latencies, ops=5 + len(picks),
                  phases={"load_s": t1 - t0, "train_s": t2 - t1, "eval_s": t3 - t2,
                          "roundtrip_s": t5 - t4, "samples": len(ds.samples),
                          "train_samples": len(tr.samples)})
        rep.checks.append(("dataset sample count per class matches the generator",
                           ds.class_counts() == expected_class_counts(self.corpus, ViewKind.PACKET)))
        rep.checks.append((f"best validation accuracy >= {ACCURACY_FLOOR}",
                           ckpt.best_val_accuracy >= ACCURACY_FLOOR))
        rep.checks.append((f"evaluate accuracy >= {ACCURACY_FLOOR}",
                           report.accuracy >= ACCURACY_FLOOR))
        # labels set to the predict verdicts: accuracy 1.0 iff argmax agrees
        agree = evaluate(ckpt, (x[picks], np.array(verdicts))).accuracy
        rep.checks.append(("predict verdicts equal evaluate's argmax", agree == 1.0))
        same = True
        for i in picks[:200]:
            v1, p1 = predict(ckpt, ds.samples[i].data)
            v2, p2 = predict(reloaded, ds.samples[i].data)
            same = same and v1 == v2 and np.array_equal(p1, p2)
        rep.checks.append(("reloaded weights predict identically", same))
        rep.digests = {"packet_all_headers.ftld": self.ftld_digest,
                       "model.ftlw": sha256(weights)}
        weights.unlink()
        return rep

    def metrics(self, reps):
        lat_us = np.array([v for r in reps for v in r.latencies]) * 1e6
        samples = reps[0].phases["samples"]
        return {
            "load_samples_per_s": (samples / med(reps, "load_s"), "1/s", len(reps)),
            "train_samples_per_s": (reps[0].phases["train_samples"] * self.epochs
                                    / med(reps, "train_s"), "1/s", len(reps)),
            "eval_samples_per_s": (samples / med(reps, "eval_s"), "1/s", len(reps)),
            "predict_p50_us": (float(np.percentile(lat_us, 50)), "us", lat_us.size),
            "predict_p99_us": (float(np.percentile(lat_us, 99)), "us", lat_us.size),
        }


def session_units(corpus: Corpus):
    """(unit, ts_scale) per session, through the program's public calls."""
    out = []
    for path, _ in corpus.inputs:
        with read_pcap(path) as reader:
            scale = reader.meta.ts_scale
            pairs = [(rec, dissect(rec, reader.meta.link_type)) for rec in reader]
        units = split_view(filter_packets(pairs, ViewKind.SESSION), ViewKind.SESSION)
        out.extend((unit, scale) for unit in units.values())
    return out


class ShortSessions(Workload):
    """time_pipelines over the flow and session views plus the stat-baseline,
    on many short sessions of small packets."""

    name = "short-sessions"
    full = Recipe(1000, (4, 10), (20, 60))
    smoke_recipe = Recipe(40, (4, 10), (20, 60))
    views = (ViewKind.FLOW, ViewKind.SESSION)
    epochs = 10  # the `bytecap bench` default

    def setup(self, work, tracer):
        super().setup(work, tracer)
        build_dataset(self.corpus.inputs, ViewKind.SESSION,
                      HeaderCategory.ALL_HEADERS, SAMPLE_LEN, TASK)
        for unit, scale in session_units(self.corpus)[:20]:
            extract_stat_features(unit, scale)

    def run(self, tracer, rep_dir):
        packets = self.corpus.total_packets
        routes = {
            "_warmup": ("nn.warmup", None),
            "build_dataset": ("views.build_dataset",
                              lambda a, k, r: {"packets": packets, "samples": len(r.samples)}),
            "train_val_split": ("views.split", None),
            "split_indices": ("views.split", None),
            "train": ("train.train", train_counts),
            "evaluate": ("train.evaluate", evaluate_counts),
            "_collect_units": ("bench.collect_units", lambda a, k, r: {"packets": packets}),
            "extract_stat_features": ("bench.features",
                                      lambda a, k, r: {"units": 1, "packets": len(a[0])}),
        }
        t0 = self.clock.now()
        with tracer.span("op"), tracer.patched(bench, routes), self.clock.checkpoints(
                bench, ("_warmup", "build_dataset", "train", "evaluate", "_collect_units")), \
                self.clock.checkpoints(bench, ("extract_stat_features",), every=250), \
                self.clock.checkpoints(train_module, ("_loss_acc",)):
            report = bench.time_pipelines(self.corpus.inputs, list(self.views), SAMPLE_LEN,
                                          TASK, epochs=self.epochs, batch=BATCH,
                                          seed=self.seed)
        t1 = self.clock.now()
        rows = {r.pipeline: r for r in report.rows}
        rep = Rep(wall=t1 - t0, ops=1, phases={
            "baseline_build_s": rows["stat-baseline"].build_s,
            "train_s": sum(rows[v.value].train_s for v in self.views),
            "test_s": sum(rows[v.value].test_s for v in self.views),
        })
        rep.checks.append(("pipelines are flow, session, stat-baseline",
                           [r.pipeline for r in report.rows] == ["flow", "session", "stat-baseline"]))
        for r in report.rows:
            rep.checks.append((f"{r.pipeline} validation accuracy >= {ACCURACY_FLOOR}",
                               r.accuracy >= ACCURACY_FLOOR))
        return rep

    def final_checks(self):
        units = session_units(self.corpus)
        feats = np.stack([extract_stat_features(u, scale) for u, scale in units])
        return [("stat-baseline features are finite with shape (sessions, 115)",
                 feats.shape == (self.corpus.sessions, 115) and bool(np.isfinite(feats).all()))]

    def metrics(self, reps):
        spc = self.corpus.sessions_per_class
        sizes = [split_sizes(spc * (2 if v is ViewKind.FLOW else 1), self.seed)
                 for v in self.views]
        return {
            "baseline_units_per_s": (self.corpus.sessions / med(reps, "baseline_build_s"),
                                     "1/s", len(reps)),
            "train_samples_per_s": (sum(tr for tr, _ in sizes) * self.epochs
                                    / med(reps, "train_s"), "1/s", len(reps)),
            "eval_samples_per_s": (sum(va for _, va in sizes) / med(reps, "test_s"),
                                   "1/s", len(reps)),
        }


WORKLOADS = {cls.name: cls for cls in (IngestGrid, TrainInfer, ShortSessions)}
