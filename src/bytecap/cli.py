"""Command-line front end: synth, build, inspect, train, eval, bench.

Each command takes only the settings it reads (`SETTINGS`), as flags and
as config-file keys. Options compose from defaults, then a flat key=value
config file, then command-line flags (flags win). argparse only collects
each flag's text; that text and a config line's pass through one
converter (`convert_setting`), so a bad value is one `error:` line with
exit status 1 whichever way it came, and only a flag the command does not
take is argparse's usage error (exit status 2). The command's effective
settings are echoed on stderr at the start of every run; stdout carries
only data.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import bench as bench_mod
from .nn import (PAIRINGS, PROFILES, SETTING_RULES, ModelConfig, default_config,
                 load_weights, save_weights)
from .synth import (
    read_labels_file,
    read_utf8_text,
    synth_classes,
    synth_corpus,
    write_labels_file,
)
from .train import evaluate, train
from .views import (
    Capture,
    DatasetFormatError,
    HeaderCategory,
    SAMPLE_LEN_RULE,
    TASKS,
    ViewKind,
    build_dataset,
    label_index,
    read_dataset,
    read_dataset_header,
    train_val_split,
    write_dataset,
)

CATEGORY_FLAGS = {"all": HeaderCategory.ALL_HEADERS,
                  "only-eth": HeaderCategory.ONLY_ETHERNET,
                  "no-eth": HeaderCategory.WITHOUT_ETHERNET,
                  "none": HeaderCategory.NO_HEADERS}
# long-form names are accepted as aliases
CATEGORY_FLAGS.update({cat.value: cat for cat in HeaderCategory})
# the values each choice setting accepts, as a flag and in a config file
CHOICES = {"view": sorted(v.value for v in ViewKind), "category": sorted(CATEGORY_FLAGS),
           "task": list(TASKS), "profile": list(PROFILES), "pairing": list(PAIRINGS)}


@dataclass
class RunConfig:
    """Flat run configuration; field names double as config-file keys."""

    view: str = "session"
    category: str = "all"
    n: int = 115
    task: str = "binary"
    epochs: int = ModelConfig.epochs
    batch: int = ModelConfig.batch_size
    seed: int = 0
    profile: str = "prose"
    pairing: str = "paper"
    learning_rate: float = ModelConfig.learning_rate
    beta1: float = ModelConfig.beta1
    beta2: float = ModelConfig.beta2
    epsilon: float = ModelConfig.epsilon
    sessions: int = 60
    labels: str = ""
    out: str = ""
    include_non_ip: bool = False
    drop_empty_samples: bool = False
    early_stop: bool = False


# the RunConfig fields each command reads: its flags, config keys and echo
SETTINGS = {
    "synth": ("out", "task", "sessions", "seed"),
    "build": ("labels", "out", "view", "category", "n", "task", "include_non_ip",
              "drop_empty_samples"),
    "inspect": ("labels", "include_non_ip"),
    "train": ("out", "profile", "pairing", "epochs", "batch", "seed",
              "learning_rate", "beta1", "beta2", "epsilon", "early_stop"),
    "eval": ("out",),
    "bench": ("labels", "out", "n", "task", "category", "profile", "pairing",
              "epochs", "batch", "seed"),
}
# defaults a command keeps in place of RunConfig's: bench runs short
COMMAND_DEFAULTS = {"bench": {"epochs": 10}}
_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}
# the ModelConfig field each training setting sets, and each setting's range
_FIELDS = {("batch" if f == "batch_size" else f): f for f in SETTING_RULES}
_RULES = {"n": SAMPLE_LEN_RULE} | {key: SETTING_RULES[f] for key, f in _FIELDS.items()}
_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def convert_setting(key: str, text: str, where: str):
    """The value of setting `key` from its text, a flag's or a config
    line's: checked as a choice (`CHOICES`), then as the setting's type,
    then against the range it takes (`_RULES`). Each refusal is a
    ValueError naming `where` the text came from, the same after that
    prefix for a flag and a config line. Every setting passes here before
    a command reads or writes a file."""
    if key in CHOICES and text not in CHOICES[key]:
        raise ValueError(f"{where}: {key} must be one of {', '.join(CHOICES[key])}, "
                         f"got {text!r}")
    ty = _TYPES[key]
    if ty is bool:
        if text.lower() not in _BOOL_WORDS:
            raise ValueError(f"{where}: {key} must be one of {', '.join(_BOOL_WORDS)}, "
                             f"got {text!r}")
        return _BOOL_WORDS[text.lower()]
    try:
        value = ty(text)
    except ValueError:  # int() or float() of a text that is not one
        kind = "an integer" if ty is int else "a number"
        raise ValueError(f"{where}: {key} must be {kind}, got {text!r}") from None
    ok, rule = _RULES.get(key, (None, None))
    if ok and not ok(value):
        raise ValueError(f"{where}: {key} {rule}, got {value!r}")
    return value


def parse_config(text: str, command: str) -> dict:
    """Flat `key = value` lines with # comments; keys the command does not
    read are rejected. Lines end at line feeds only, as read_utf8_text
    counts them, so an error names the line a text editor shows."""
    out = {}
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"config line {line_no}"
        if key not in SETTINGS[command]:
            raise ValueError(f"{where}: unknown key {key!r}")
        out[key] = convert_setting(key, value, where)
    return out


def render_config(cfg: RunConfig, command: str) -> str:
    lines = []
    for name in SETTINGS[command]:
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{name} = {value}")
    return "\n".join(lines)


def effective_config(args, command: str) -> RunConfig:
    """The command's defaults <- config file <- flags, each flag's text
    converted as a config line's is."""
    cfg = replace(RunConfig(), **COMMAND_DEFAULTS.get(command, {}))
    if getattr(args, "config", None):
        cfg = replace(cfg, **parse_config(read_utf8_text(args.config), command))
    flags = {name: getattr(args, name, None) for name in SETTINGS[command]}
    return replace(cfg, **{k: convert_setting(k, v, "--" + k.replace("_", "-"))
                           for k, v in flags.items() if v is not None})


def _echo_config(cfg: RunConfig, command: str):
    print(f"# bytecap {command}: effective configuration", file=sys.stderr)
    for line in render_config(cfg, command).splitlines():
        print(f"# {line}", file=sys.stderr)


def _model_config(cfg: RunConfig, input_len: int, class_names: list[str]):
    """The stock model of the task whose class table the dataset holds."""
    task = next((t for t, rules in TASKS.items() if list(rules.classes) == class_names), None)
    if task is None:
        raise ValueError(f"dataset classes {class_names} are the classes of "
                         f"no task ({', '.join(TASKS)})")
    return default_config(task, cfg.profile, cfg.pairing, input_len=input_len,
                          **{f: getattr(cfg, key) for key, f in _FIELDS.items()})


def cmd_synth(cfg: RunConfig, args) -> int:
    if not cfg.out:
        raise ValueError("synth needs --out <directory>")
    entries = synth_corpus(cfg.out, synth_classes(cfg.task, cfg.sessions), cfg.seed)
    labels_path = Path(cfg.out) / "labels.txt"
    write_labels_file(labels_path, entries)
    for path, name in entries:
        print(f"{path},{name}")
    print(f"# labels file: {labels_path}", file=sys.stderr)
    return 0


def _guard_existing_dataset(path: Path, n: int):
    # only a regular file can hold a dataset to mix with; a pipe or device
    # is written as it is (reading one the build itself feeds would block)
    if not path.is_file():
        return
    try:
        existing = read_dataset_header(path)
    except DatasetFormatError:
        return  # not a dataset: plain overwrite
    if existing.sample_len != n:
        raise ValueError(f"{path}: existing dataset has sample length "
                         f"{existing.sample_len}, refusing to mix with {n}")


def cmd_build(cfg: RunConfig, args) -> int:
    if not cfg.labels:
        raise ValueError("build needs --labels <file> (lines of 'pcap-path,class-name')")
    if not cfg.out:
        raise ValueError("build needs --out <path>")
    views = list(ViewKind) if args.all_views else [ViewKind(cfg.view)]
    cats = list(HeaderCategory) if args.all_categories else [CATEGORY_FLAGS[cfg.category]]
    grid = len(views) * len(cats) > 1
    out = Path(cfg.out)
    cells = [(view, cat, out / f"{view.value}_{cat.value}.ftld" if grid else out)
             for view in views for cat in cats]
    # every output is checked before any capture is read or file written
    for _, _, path in cells:
        _guard_existing_dataset(path, cfg.n)
    inputs = read_labels_file(cfg.labels)
    if grid:
        out.mkdir(parents=True, exist_ok=True)
    # each capture the task keeps is parsed once and shared by every cell
    captures = [(Capture.read(path), name) for path, name in inputs
                if label_index(name, cfg.task) is not None]
    for view, cat, path in cells:
        ds = build_dataset(captures, view, cat, cfg.n, cfg.task,
                           include_non_ip=cfg.include_non_ip,
                           drop_empty=cfg.drop_empty_samples)
        write_dataset(path, ds)
        counts = ", ".join(f"{k}={v}" for k, v in ds.class_counts().items())
        print(f"{path}: {len(ds.labels)} samples ({counts})", file=sys.stderr)
    return 0


def cmd_inspect(cfg: RunConfig, args) -> int:
    if not cfg.labels:
        raise ValueError("inspect needs --labels <file>")
    inputs = read_labels_file(cfg.labels)
    if not inputs:
        print("no input files")
        return 0
    per_class_packets: dict[str, int] = {}
    per_class_bytes: dict[str, int] = {}
    unit_counts = {v: 0 for v in ViewKind}
    total_packets = 0
    non_ip = 0
    for path, name in inputs:
        cap = Capture.read(path)
        total_packets += len(cap)
        per_class_packets[name] = per_class_packets.get(name, 0) + len(cap)
        per_class_bytes[name] = per_class_bytes.get(name, 0) + int(cap.cap_len.sum())
        non_ip += int(cap.non_ip.sum())
        for view in unit_counts:
            unit_counts[view] += len(cap.units(view, cfg.include_non_ip)[2])
    print(f"files          {len(inputs)}")
    print(f"packets        {total_packets}")
    print(f"non-ip packets {non_ip}")
    for view, count in unit_counts.items():
        print(f"{view.value + ' units':<14} {count}")
    print()
    print(f"{'class':<16} {'packets':>8} {'bytes':>12}")
    for name in sorted(per_class_packets):
        print(f"{name:<16} {per_class_packets[name]:>8} {per_class_bytes[name]:>12}")
    return 0


def _is_stream(path: Path) -> bool:
    """Whether `path` names a pipe, a device or the file this process's
    stdout writes to, rather than a regular file of its own (one that does
    not exist yet will be a regular file)."""
    try:
        st = path.stat()
        return not stat.S_ISREG(st.st_mode) or os.path.samestat(st, os.fstat(1))
    except OSError:  # a path not made yet (the write reports other faults); no stdout
        return False


def _table_stream(out: str):
    """Where a command prints its table: stderr when its records `out`
    go to stdout, a pipe or a device, whose whole stream they then are
    (opening /dev/stdout on a file truncates what stdout wrote before),
    and stdout otherwise."""
    return sys.stderr if out and _is_stream(Path(out)) else sys.stdout


def cmd_train(cfg: RunConfig, args) -> int:
    if not cfg.out:
        raise ValueError("train needs --out <weights path>")
    # weights written to stdout, a pipe or a device are the whole stream:
    # the table goes to stderr and no history file is made beside them
    table = _table_stream(cfg.out)
    ds = read_dataset(args.dataset)
    model_cfg = _model_config(cfg, ds.sample_len, ds.class_names)
    train_ds, val_ds = train_val_split(ds, seed=cfg.seed)
    ckpt, history = train(model_cfg, train_ds, val_ds, early_stop=cfg.early_stop)
    save_weights(cfg.out, ckpt)
    if table is sys.stderr:
        history_path = "not written (--out names stdout, a pipe or a device)"
    else:
        history_path = Path(str(cfg.out) + ".history.jsonl")
        history_path.write_text("\n".join(history.to_records()) + "\n", encoding="utf-8")
    print(history.to_text_table(), file=table)
    print(f"best epoch {ckpt.best_epoch} val_acc {ckpt.best_val_accuracy:.4f}", file=table)
    print(f"# weights: {cfg.out}", file=sys.stderr)
    print(f"# history: {history_path}", file=sys.stderr)
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    table = _table_stream(cfg.out)
    ds = read_dataset(args.dataset)
    report = evaluate(load_weights(args.weights), ds)
    print(report.to_text_table(), file=table)
    if args.confusion:
        print(file=table)
        print(report.confusion_table(), file=table)
    if cfg.out:
        Path(cfg.out).write_text("\n".join(report.to_records()) + "\n",
                                 encoding="utf-8")
        print(f"# records: {cfg.out}", file=sys.stderr)
    return 0


def cmd_bench(cfg: RunConfig, args) -> int:
    if not cfg.labels:
        raise ValueError("bench needs --labels <file>")
    views = [ViewKind(convert_setting("view", v.strip(), "--views"))
             for v in args.views.split(",") if v.strip()]
    if not views:
        raise ValueError(f"--views names no view, got {args.views!r}")
    if len(set(views)) < len(views):  # one timing row per pipeline
        raise ValueError(f"--views: a view is named more than once, got {args.views!r}")
    corpus = read_labels_file(cfg.labels)
    report = bench_mod.time_pipelines(
        corpus, views, cfg.n, cfg.task,
        category=CATEGORY_FLAGS[cfg.category], epochs=cfg.epochs, batch=cfg.batch,
        seed=cfg.seed, pairing=cfg.pairing, profile=cfg.profile)
    print(report.to_text_table(), file=_table_stream(cfg.out))
    if cfg.out:
        Path(cfg.out).write_text(report.to_csv() + "\n", encoding="utf-8")
        print(f"# csv: {cfg.out}", file=sys.stderr)
    return 0


def _add_settings(p: argparse.ArgumentParser, command: str):
    """The command's flags. Each stores its setting's text, and a switch
    the text "true", for `effective_config` to convert."""
    p.add_argument("--config")
    for name in SETTINGS[command]:
        flag = "--" + name.replace("_", "-")
        if _TYPES[name] is bool:
            p.add_argument(flag, dest=name, action="store_const", const="true")
        else:
            p.add_argument(flag, dest=name, metavar="{" + ",".join(CHOICES[name]) + "}"
                           if name in CHOICES else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bytecap",
        description="Byte-stream traffic classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic pcap corpus")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build byte-vector datasets from pcaps")
    p.add_argument("--all-views", action="store_true")
    p.add_argument("--all-categories", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("inspect", help="corpus statistics and unit counts")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("train", help="train a model on a dataset file")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a weights file on a dataset")
    p.add_argument("dataset")
    p.add_argument("weights")
    p.add_argument("--confusion", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time byte-stream pipelines vs the stat baseline")
    p.add_argument("--views", default="session,flow,packet")
    p.set_defaults(func=cmd_bench)

    for command, p in sub.choices.items():
        _add_settings(p, command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args, args.command)
        _echo_config(cfg, args.command)
        return args.func(cfg, args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # numpy's message names the allocation it could not make
        print(f"error: out of memory ({e})" if str(e) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
