"""End-to-end command-line behavior."""

import argparse
import os
import struct
import subprocess
import sys
import threading
from dataclasses import fields, replace

import pytest

from bytecap import cli, views
from bytecap.bench import TimingReport
from bytecap.cli import (
    CHOICES,
    SETTINGS,
    RunConfig,
    build_parser,
    effective_config,
    main,
    parse_config,
    render_config,
)
from bytecap.nn import Checkpoint, Model, PAIRINGS, PROFILES, default_config, save_weights
from bytecap.pcap import read_pcap_records
from bytecap.synth import SynthClass, binary_synth_classes, synth_classes, synth_corpus
from bytecap.train import train
from bytecap.views import DatasetFile, TASKS, read_dataset, train_val_split, write_dataset
from conftest import needs_dev_fd
from test_nn import HOSTILE_SPECS, write_hostile_weights


def run_cli(*argv):
    return main(list(argv))


# `bytecap <argv>` in a child process
CLI_MAIN = "import sys; from bytecap.cli import main; sys.exit(main(sys.argv[1:]))"


# each command's arguments besides --config and its settings
OWN_ARGUMENTS = {"synth": set(), "build": {"--all-views", "--all-categories"},
                 "inspect": set(), "train": {"dataset"},
                 "eval": {"dataset", "weights", "--confusion"}, "bench": {"--views"}}


class TestConfigFile:
    def test_parse_render_fixpoint(self):
        # every field off its default, so each command's keys all round-trip
        cfg = RunConfig(view="flow", category="none", n=64, task="multi",
                        epochs=7, batch=5, seed=3, profile="table",
                        pairing="standard", learning_rate=5e-4, beta1=0.8,
                        beta2=0.99, epsilon=1e-6, sessions=4, labels="l.txt",
                        out="o", include_non_ip=True, drop_empty_samples=True,
                        early_stop=True)
        for command, names in SETTINGS.items():
            text = render_config(cfg, command)
            values = parse_config(text, command)
            assert values == {name: getattr(cfg, name) for name in names}
            assert render_config(RunConfig(**values), command) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("nonsense = 1\n", "train")

    @pytest.mark.parametrize("command, key, value, kind", [
        ("train", "epochs", "1e3", "an integer"), ("train", "batch", "20.0", "an integer"),
        ("build", "n", "lots", "an integer"), ("synth", "sessions", "", "an integer"),
        ("train", "learning_rate", "fast", "a number"),
        ("train", "beta1", "0,9", "a number")])
    def test_value_of_the_wrong_type_names_line_and_key(self, command, key, value, kind):
        with pytest.raises(ValueError) as exc:
            parse_config(f"# a comment\n{key} = {value}\n", command)
        assert str(exc.value) == f"config line 2: {key} must be {kind}, got {value!r}"

    def test_comments_and_blank_lines(self):
        values = parse_config("# comment\n\nview = packet  # trailing\n", "build")
        assert values == {"view": "packet"}

    def test_flags_win_over_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epochs = 9\ncategory = none\n")
        parser_args = type("A", (), {"config": str(conf), "epochs": 2,
                                     "category": None})()
        cfg = effective_config(parser_args, "bench")
        assert cfg.epochs == 2  # flag wins
        assert cfg.category == "none"  # config file applies

    def test_defaults_epochs_batch(self):
        cfg = RunConfig()
        assert cfg.epochs == 50 and cfg.batch == 20 and cfg.n == 115

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_flags_are_the_commands_settings(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {}
        for action in sub.choices[command]._actions:
            if action.dest != "help":
                got[action.option_strings[0] if action.option_strings
                    else action.dest] = action.dest
        settings = {"--" + name.replace("_", "-"): name for name in SETTINGS[command]}
        assert set(got) == {"--config"} | set(settings) | OWN_ARGUMENTS[command]
        assert all(got[flag] == name for flag, name in settings.items())

    def test_every_setting_is_read_by_some_command(self):
        assert set().union(*SETTINGS.values()) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("argv", [
        ["build", "--seed", "4"],
        ["eval", "d.ftld", "w.ftlw", "--epochs", "3"],
        ["bench", "--learning-rate", "5"],
        ["train", "d.ftld", "--task", "binary"],
    ], ids=["build-seed", "eval-epochs", "bench-learning-rate", "train-task"])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    # the tables each choice setting's values come from
    TABLES = {"task": TASKS, "profile": PROFILES, "pairing": PAIRINGS}

    @pytest.mark.parametrize("key, value", [(k, v) for k, t in TABLES.items() for v in t])
    def test_every_table_entry_is_a_choice(self, key, value):
        assert CHOICES[key] == list(self.TABLES[key])
        commands = [command for command, names in SETTINGS.items() if key in names]
        assert commands
        for command in commands:
            positional = ["d.ftld"] if command == "train" else []
            args = build_parser().parse_args([command, *positional, f"--{key}", value])
            assert getattr(args, key) == value
            assert parse_config(f"{key} = {value}\n", command) == {key: value}

    @pytest.mark.parametrize("command, positional, conf", [
        ("build", [], "view = flow\nseed = 4"),
        ("eval", ["d.ftld", "w.ftlw"], "epochs = 3"),
        ("inspect", [], "view = flow"),
        ("synth", [], "labels = x.txt"),
    ])
    def test_config_key_the_command_does_not_read(self, tmp_path, capsys,
                                                  command, positional, conf):
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(conf + "\n")
        assert run_cli(command, *positional, "--config", str(conf_path)) == 1
        line = len(conf.splitlines())
        key = conf.splitlines()[-1].split(" = ")[0]
        assert f"error: config line {line}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, conf, extra, where", [
        ("build", "view = bogus", [], "config line 1"),
        ("build", "category = bogus", [], "config line 1"),
        ("bench", "", ["--views", "session,bogus"], "--views"),
    ])
    def test_unknown_choice_is_an_error(self, cli_corpus, tmp_path, capsys,
                                        command, conf, extra, where):
        conf_path = tmp_path / "run.conf"
        conf_path.write_text(conf + "\n")
        rc = run_cli(command, "--config", str(conf_path),
                     "--labels", str(cli_corpus / "labels.txt"),
                     "--out", str(tmp_path / "out"), *extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {where}" in err and "'bogus'" in err

    @pytest.mark.parametrize("command, key, value", [
        ("build", "n", "0"), ("build", "n", str(2 ** 32)), ("bench", "n", "-1"),
        ("train", "epochs", "0"), ("bench", "epochs", "-2"), ("train", "batch", "0"),
        ("bench", "batch", "0"), ("synth", "seed", "-1"), ("train", "seed", "-1"),
        ("bench", "seed", "-5")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_integer_setting_out_of_range_refused_first(self, tmp_path, capsys,
                                                        command, key, value, via):
        # the labels file and dataset do not exist: a refusal that comes
        # before any input is read names the setting, not the missing file
        missing = str(tmp_path / "missing")
        own = {"synth": [], "build": ["--labels", missing, "--all-views", "--all-categories"],
               "train": [missing], "bench": ["--labels", missing]}[command]
        if via == "flag":
            setting, where = [f"--{key}={value}"], f"--{key}"
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"# out of range\n{key} = {value}\n")
            setting, where = ["--config", str(conf)], "config line 2"
        out = tmp_path / "out"
        assert run_cli(command, *own, *setting, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: {key} must ") and f"got {value}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_config_line_not_utf8_is_named(self, tmp_path, capsys, command, newline):
        conf = tmp_path / "run.conf"
        conf.write_bytes(newline.join([b"# run", b"seed = 1", b"seed = \xff2", b""]))
        own = [str(tmp_path / "missing.ftld")] if command == "train" else []
        out = tmp_path / "out"
        assert run_cli(command, *own, "--config", str(conf), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {conf}:3: line is not UTF-8\n"
        assert not out.exists()

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_config_lines_counted_as_in_the_file(self, tmp_path, capsys, newline):
        # form feed, U+2028 and the other characters str.splitlines breaks
        # at do not end a line of the file
        conf = tmp_path / "run.conf"
        conf.write_bytes(newline.join([b"seed = 1 # \x0c\xe2\x80\xa8\xc2\x85", b"epochs = x",
                                       b""]))
        assert run_cli("train", str(tmp_path / "missing.ftld"), "--config", str(conf),
                       "--out", str(tmp_path / "m.ftlw")) == 1
        assert capsys.readouterr().err == \
            "error: config line 2: epochs must be an integer, got 'x'\n"


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_corpus")
    assert run_cli("synth", "--out", str(d), "--sessions", "10", "--seed", "3") == 0
    return d


class TestSynth:
    def test_synth_writes_corpus_and_labels(self, cli_corpus):
        labels = (cli_corpus / "labels.txt").read_text().strip().splitlines()
        assert len(labels) == 2
        for line in labels:
            path, name = line.rsplit(",", 1)
            assert name in ("benign", "malicious")
            _, recs = read_pcap_records(path)
            assert recs

    def test_synth_deterministic(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path / "a"), "--sessions", "4",
                "--seed", "11")
        run_cli("synth", "--out", str(tmp_path / "b"), "--sessions", "4",
                "--seed", "11")
        assert (tmp_path / "a" / "benign.pcap").read_bytes() == \
               (tmp_path / "b" / "benign.pcap").read_bytes()

    def test_synth_needs_out(self, capsys):
        assert run_cli("synth") == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sessions", ["0", "-2"])
    def test_synth_refuses_fewer_than_one_session(self, tmp_path, capsys, sessions):
        out = tmp_path / "corpus"
        assert run_cli("synth", "--out", str(out), "--sessions", sessions) == 1
        assert f"error: class 'benign': sessions must be >= 1, got {sessions}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [
        lambda out, n: binary_synth_classes(n),
        lambda out, n: synth_classes("multi", n),
        lambda out, n: synth_corpus(out, [SynthClass("a", 0, 127, n),
                                          SynthClass("b", 128, 255, n)])],
        ids=["binary_synth_classes", "synth_classes", "synth_corpus"])
    def test_session_count_below_one_is_refused(self, tmp_path, make):
        for n in (0, -2):
            with pytest.raises(ValueError, match="sessions must be >= 1"):
                make(tmp_path / "corpus", n)
        assert not (tmp_path / "corpus").exists()


class TestBuild:
    def test_single_dataset(self, cli_corpus, tmp_path):
        out = tmp_path / "one.ftld"
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--view", "session", "--category", "none",
                     "--n", "115", "--task", "binary", "--out", str(out))
        assert rc == 0
        ds = read_dataset(out)
        assert ds.sample_len == 115
        assert ds.view.value == "session"
        assert ds.category.value == "no_headers"
        assert len(ds.samples) == 20

    def test_full_grid_is_twelve_files(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "grid"
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--all-views", "--all-categories", "--n", "64",
                     "--out", str(out))
        assert rc == 0
        files = sorted(p.name for p in out.glob("*.ftld"))
        assert len(files) == 12
        # one dataset line per cell, on stderr: each cell is built and written once
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines()
                    if not line.startswith("# ")]) == 12
        assert "session_no_headers.ftld" in files
        assert "packet_all_headers.ftld" in files

    def test_grid_dissects_each_packet_once(self, cli_corpus, tmp_path, monkeypatch):
        # frames dissected one at a time or a buffer at a time
        dissected = 0
        real_one, real_many = views.dissect, views.dissect_frames

        def one(*args):
            nonlocal dissected
            dissected += 1
            return real_one(*args)

        def many(frames, start, cap_len):
            nonlocal dissected
            dissected += len(cap_len)
            return real_many(frames, start, cap_len)

        monkeypatch.setattr(views, "dissect", one)
        monkeypatch.setattr(views, "dissect_frames", many)
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--all-views", "--all-categories", "--n", "64",
                     "--out", str(tmp_path / "grid"))
        assert rc == 0
        packets = sum(len(read_pcap_records(p)[1])
                      for p in cli_corpus.glob("*.pcap"))
        assert dissected == packets

    def test_sample_length_beyond_u32_refused(self, cli_corpus, tmp_path):
        # in a child whose address space is capped, so that a build which
        # does try to allocate the (units, 2**32) matrix fails fast instead
        # of paging
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "from bytecap.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "build", "--labels", str(cli_corpus / "labels.txt"),
             "--n", str(2 ** 32), "--out", str(tmp_path / "huge.ftld")],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: --n: n must lie in [1, 2^32 - 1]" in proc.stderr
        assert "got 4294967296" in proc.stderr
        assert not (tmp_path / "huge.ftld").exists()
        # build_dataset keeps its own check for callers that bypass the CLI
        with pytest.raises(ValueError, match=r"sample length 4294967296 must lie in \[1, 2\^32 - 1\]"):
            views.build_dataset([], views.ViewKind.PACKET, views.HeaderCategory.ALL_HEADERS,
                                2 ** 32, "binary")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sample_length_below_one_refused(self, tmp_path, capsys, n):
        labels = tmp_path / "empty.txt"
        labels.write_text("")
        out = tmp_path / "none.ftld"
        assert run_cli("build", "--labels", str(labels), "--n", n, "--out", str(out)) == 1
        assert f"error: --n: n must lie in [1, 2^32 - 1] (FTLD's u32 sample length), got {n}" \
            in capsys.readouterr().err
        assert not out.exists()
        # build_dataset keeps its own check for callers that bypass the CLI
        with pytest.raises(ValueError, match=rf"sample length {n} must lie in \[1, 2\^32 - 1\]"):
            views.build_dataset([], views.ViewKind.PACKET, views.HeaderCategory.ALL_HEADERS,
                                int(n), "binary")

    @needs_dev_fd
    def test_out_may_name_a_pipe(self, cli_corpus, tmp_path):
        # a child builds into a pipe that this process drains; an overwrite
        # guard that read its own output pipe would wait on it for ever
        labels = str(cli_corpus / "labels.txt")
        assert run_cli("build", "--labels", labels, "--out", str(tmp_path / "file.ftld")) == 0
        r, w = os.pipe()
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, "build", "--labels", labels,
                                 "--out", f"/dev/fd/{w}"], pass_fds=(w,),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.close(w)
        piped = []
        with open(r, "rb") as fp:
            reader = threading.Thread(target=lambda: piped.append(fp.read()))
            reader.start()
            try:
                returncode = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                pytest.fail("build --out <pipe> did not finish in 30 s")
            finally:
                reader.join()
        assert returncode == 0
        assert piped == [(tmp_path / "file.ftld").read_bytes()]

    @needs_dev_fd
    def test_out_may_name_stdout(self, cli_corpus, tmp_path):
        # the summary line goes to stderr, so stdout carries only the dataset
        labels = str(cli_corpus / "labels.txt")
        assert run_cli("build", "--labels", labels, "--out", str(tmp_path / "file.ftld")) == 0
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "build", "--labels", labels,
                               "--out", "/dev/stdout"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == (tmp_path / "file.ftld").read_bytes()
        assert b"/dev/stdout: 20 samples (" in proc.stderr

    def test_out_of_memory_is_an_error_line(self, cli_corpus, tmp_path, capsys,
                                            monkeypatch):
        def no_memory(self, *args):
            raise MemoryError("Unable to allocate 40.0 GiB for an array with "
                              "shape (10, 4294967295) and data type uint8")

        monkeypatch.setattr(views.Capture, "assemble", no_memory)
        out = tmp_path / "huge.ftld"
        assert run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: out of memory (Unable to allocate 40.0 GiB" in err
        assert not out.exists()

    def test_missing_labels_usage_error(self, capsys):
        assert run_cli("build", "--out", "/tmp/x.ftld") == 1
        assert "labels" in capsys.readouterr().err

    def test_n_mismatch_with_existing_output(self, cli_corpus, tmp_path):
        out = tmp_path / "keep.ftld"
        run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                "--n", "64", "--out", str(out))
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--n", "32", "--out", str(out))
        assert rc == 1

    def test_guard_reads_only_the_header(self, cli_corpus, tmp_path):
        # an existing dataset with another sample length is refused even when
        # its sample records are damaged: only the header is parsed
        out = tmp_path / "damaged.ftld"
        run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                "--n", "32", "--out", str(out))
        out.write_bytes(out.read_bytes()[:-5])
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--n", "64", "--out", str(out))
        assert rc == 1

    def test_grid_refused_before_any_capture_or_file(self, cli_corpus, tmp_path,
                                                     monkeypatch, capsys):
        labels = str(cli_corpus / "labels.txt")
        grid = tmp_path / "grid"
        grid.mkdir()
        kept = grid / "flow_all_headers.ftld"
        assert run_cli("build", "--labels", labels, "--view", "flow", "--category", "all",
                       "--n", "64", "--out", str(kept)) == 0
        before = kept.read_bytes()
        reads = []
        real_read = views.Capture.read
        monkeypatch.setattr(views.Capture, "read",
                            lambda path: reads.append(path) or real_read(path))
        capsys.readouterr()
        assert run_cli("build", "--labels", labels, "--all-views", "--all-categories",
                       "--out", str(grid)) == 1
        assert (f"error: {kept}: existing dataset has sample length 64, refusing to "
                "mix with 115") in capsys.readouterr().err
        assert [p.name for p in grid.iterdir()] == [kept.name]
        assert kept.read_bytes() == before
        assert reads == []

    def test_non_dataset_output_is_overwritten(self, cli_corpus, tmp_path):
        out = tmp_path / "notes.ftld"
        out.write_text("not a dataset\n")
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--n", "64", "--out", str(out))
        assert rc == 0
        assert read_dataset(out).sample_len == 64

    def test_include_non_ip_flag_accepted(self, cli_corpus, tmp_path):
        out = tmp_path / "ni.ftld"
        rc = run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
                     "--view", "packet", "--include-non-ip", "--n", "32",
                     "--out", str(out))
        assert rc == 0


@pytest.fixture(scope="module")
def dataset(cli_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "train.ftld"
    run_cli("build", "--labels", str(cli_corpus / "labels.txt"),
            "--view", "session", "--category", "all", "--n", "115",
            "--out", str(out))
    return out


class TestTrainEval:
    def test_train_writes_weights_and_history(self, dataset, tmp_path, capsys):
        w = tmp_path / "model.ftlw"
        rc = run_cli("train", str(dataset), "--epochs", "3", "--seed", "7",
                     "--out", str(w))
        assert rc == 0
        assert w.exists()
        history = w.with_name("model.ftlw.history.jsonl")
        assert history.exists()
        assert len(history.read_text().strip().splitlines()) == 3
        out = capsys.readouterr().out
        assert "best epoch" in out

    def test_seeded_training_reproducible(self, dataset, tmp_path):
        a, b = tmp_path / "a.ftlw", tmp_path / "b.ftlw"
        run_cli("train", str(dataset), "--epochs", "2", "--seed", "7",
                "--out", str(a))
        run_cli("train", str(dataset), "--epochs", "2", "--seed", "7",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_eval_reports_metrics(self, dataset, tmp_path, capsys):
        w = tmp_path / "model.ftlw"
        run_cli("train", str(dataset), "--epochs", "4", "--seed", "1",
                "--early-stop", "--out", str(w))
        capsys.readouterr()
        rc = run_cli("eval", str(dataset), str(w), "--confusion")
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "weighted f1" in out
        assert "benign" in out and "malicious" in out

    @needs_dev_fd
    @pytest.mark.parametrize("stdout_is", ["pipe", "file"])
    def test_train_out_may_name_stdout(self, dataset, tmp_path, stdout_is):
        # the weights are the whole stream, whatever stdout is: the table goes
        # to stderr and no history file is made beside /dev/stdout
        w = tmp_path / "model.ftlw"
        assert run_cli("train", str(dataset), "--epochs", "1", "--out", str(w)) == 0
        argv = [sys.executable, "-c", CLI_MAIN, "train", str(dataset), "--epochs", "1",
                "--out", "/dev/stdout"]
        if stdout_is == "pipe":
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=60)
            streamed = proc.stdout
        else:
            with open(tmp_path / "stdout.bin", "wb") as fp:
                proc = subprocess.run(argv, stdout=fp, stderr=subprocess.PIPE, timeout=60)
            streamed = (tmp_path / "stdout.bin").read_bytes()
        assert proc.returncode == 0, proc.stderr
        assert streamed == w.read_bytes()
        assert b"best epoch 0 val_acc" in proc.stderr
        assert (b"# history: not written (--out names stdout, a pipe or a device)"
                in proc.stderr)
        assert not os.path.exists("/dev/stdout.history.jsonl")

    @needs_dev_fd
    def test_eval_out_may_name_stdout(self, dataset, tmp_path, capsys):
        w, records = tmp_path / "model.ftlw", tmp_path / "records.jsonl"
        assert run_cli("train", str(dataset), "--epochs", "1", "--out", str(w)) == 0
        capsys.readouterr()
        assert run_cli("eval", str(dataset), str(w), "--confusion", "--out", str(records)) == 0
        table = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, "eval", str(dataset), str(w),
                               "--confusion", "--out", "/dev/stdout"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == records.read_bytes()
        assert table.encode() in proc.stderr

    @pytest.mark.parametrize("case", sorted(HOSTILE_SPECS))
    def test_eval_hostile_weights_is_an_error(self, dataset, tmp_path, capsys, case):
        w = tmp_path / "hostile.ftlw"
        write_hostile_weights(w, case)
        assert run_cli("eval", str(dataset), str(w)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--epochs", "0", "epochs"), ("--batch", "0", "batch_size"),
        ("--batch", "-3", "batch_size")])
    def test_train_refuses_nonpositive_epochs_or_batch(self, dataset, tmp_path, capsys,
                                                      flag, value, name):
        w = tmp_path / "x.ftlw"
        assert run_cli("train", str(dataset), flag, value, "--out", str(w)) == 1
        assert f"error: {flag}: {flag[2:]} must be >= 1, got {value}" in capsys.readouterr().err
        assert not w.exists()
        # train keeps its own check, under the ModelConfig field's name
        ds = read_dataset(dataset)
        cfg = replace(default_config("binary", input_len=ds.sample_len), **{name: int(value)})
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            train(cfg, ds, ds)

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "1e999"),
        ("learning_rate", "0"), ("learning_rate", "-0.001"), ("epsilon", "nan"),
        ("epsilon", "0"), ("beta1", "1"), ("beta1", "-0.1"), ("beta1", "nan"),
        ("beta2", "1.5"), ("beta2", "-inf")])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_train_refuses_float_settings_out_of_range(self, dataset, tmp_path, capsys,
                                                       name, value, via):
        w = tmp_path / "x.ftlw"
        if via == "flag":
            args = [f"--{name.replace('_', '-')}={value}"]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{name} = {value}\n")
            args = ["--config", str(conf)]
        assert run_cli("train", str(dataset), "--epochs", "1", *args, "--out", str(w)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f": {name} must " in err
        assert not w.exists()

    def test_eval_class_count_mismatch_is_an_error(self, dataset, tmp_path, capsys):
        cfg = default_config("multi", input_len=115)
        w = tmp_path / "multi.ftlw"
        save_weights(w, Checkpoint(cfg, Model(cfg).copy_weights(), 0, 0.0))
        assert run_cli("eval", str(dataset), str(w)) == 1
        err = capsys.readouterr().err
        assert "error: dataset has 2 classes, model expects 12" in err
        assert "Traceback" not in err

    def test_train_refuses_a_class_table_of_no_task(self, dataset, tmp_path, capsys):
        ds = read_dataset(dataset)
        other = tmp_path / "other.ftld"
        write_dataset(other, DatasetFile(ds.view, ds.category, ds.sample_len,
                                         ["cats", "dogs"], data=ds.data, labels=ds.labels))
        w = tmp_path / "x.ftlw"
        assert run_cli("train", str(other), "--epochs", "1", "--out", str(w)) == 1
        [line] = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert "['cats', 'dogs']" in line and "binary, multi" in line
        assert not w.exists()

    def test_train_takes_the_task_from_the_dataset(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run_cli("synth", "--task", "multi", "--sessions", "5", "--out", str(corpus)) == 0
        path = tmp_path / "multi.ftld"
        assert run_cli("build", "--labels", str(corpus / "labels.txt"), "--task", "multi",
                       "--out", str(path)) == 0
        w = tmp_path / "cli.ftlw"
        assert run_cli("train", str(path), "--epochs", "1", "--out", str(w)) == 0
        ds = read_dataset(path)
        ckpt, _ = train(default_config("multi", input_len=ds.sample_len, epochs=1),
                        *train_val_split(ds, 0.2, 0))
        save_weights(tmp_path / "direct.ftlw", ckpt)
        assert w.read_bytes() == (tmp_path / "direct.ftlw").read_bytes()


class TestInspect:
    def test_counts_match_independent_tally(self, cli_corpus, capsys):
        rc = run_cli("inspect", "--labels", str(cli_corpus / "labels.txt"))
        assert rc == 0
        out = capsys.readouterr().out
        total_packets = 0
        total_bytes = {}
        for path, name in [l.rsplit(",", 1) for l in
                           (cli_corpus / "labels.txt").read_text().strip().splitlines()]:
            _, recs = read_pcap_records(path)
            total_packets += len(recs)
            total_bytes[name] = sum(r.cap_len for r in recs)
        assert f"packets        {total_packets}" in out
        for name, nbytes in total_bytes.items():
            assert str(nbytes) in out

    def test_empty_labels_exits_zero(self, tmp_path, capsys):
        labels = tmp_path / "empty.txt"
        labels.write_text("")
        assert run_cli("inspect", "--labels", str(labels)) == 0
        assert "no input files" in capsys.readouterr().out

    def test_unreadable_pcap_names_file(self, tmp_path, capsys):
        labels = tmp_path / "bad.txt"
        labels.write_text("/nonexistent/ghost.pcap,benign\n")
        assert run_cli("inspect", "--labels", str(labels)) == 1
        assert "ghost.pcap" in capsys.readouterr().err

    def test_non_ethernet_capture_names_file(self, tmp_path, capsys):
        raw = tmp_path / "raw101.pcap"
        raw.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
                        + struct.pack("<IIII", 0, 0, 4, 4) + b"\x45\x00\x00\x04")
        labels = tmp_path / "raw.txt"
        labels.write_text(f"{raw},benign\n")
        assert run_cli("inspect", "--labels", str(labels)) == 1
        [line] = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert str(raw) in line and "link type 101" in line


class TestBench:
    def test_bench_writes_csv(self, cli_corpus, tmp_path, capsys):
        csv = tmp_path / "times.csv"
        rc = run_cli("bench", "--labels", str(cli_corpus / "labels.txt"),
                     "--views", "session", "--epochs", "2", "--out", str(csv))
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "pipeline,build_s,train_s,test_s,accuracy"
        assert len(lines) == 3  # session + stat-baseline
        assert "stat-baseline" in capsys.readouterr().out

    def test_bench_table_profile_at_its_own_input_length(self, cli_corpus, tmp_path):
        csv = tmp_path / "times.csv"
        assert run_cli("bench", "--labels", str(cli_corpus / "labels.txt"), "--profile",
                       "table", "--n", "20", "--epochs", "1", "--views", "session",
                       "--out", str(csv)) == 0
        assert [line.split(",")[0] for line in csv.read_text().splitlines()[1:]] == \
            ["session", "stat-baseline"]

    @pytest.mark.parametrize("views", ["", ","])
    def test_bench_refuses_an_empty_view_list(self, cli_corpus, monkeypatch, capsys, views):
        monkeypatch.setattr(cli.bench_mod, "time_pipelines",
                            lambda *a, **kw: pytest.fail("timed with no view"))
        rc = run_cli("bench", "--labels", str(cli_corpus / "labels.txt"), "--views", views)
        assert rc == 1
        assert f"error: --views names no view, got {views!r}" in capsys.readouterr().err

    def test_echo_shows_the_epochs_that_run(self, cli_corpus, monkeypatch, capsys):
        seen = {}

        def recording(corpus, views, n, task, **kw):
            seen.update(kw)
            return TimingReport()

        monkeypatch.setattr(cli.bench_mod, "time_pipelines", recording)
        assert run_cli("bench", "--labels", str(cli_corpus / "labels.txt")) == 0
        err = capsys.readouterr().err
        assert seen["epochs"] == 10
        assert "# epochs = 10" in err and "learning_rate" not in err


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "bytecap.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "bench" in proc.stdout

    def test_effective_config_echoed_on_stderr(self, cli_corpus, capsys):
        run_cli("inspect", "--labels", str(cli_corpus / "labels.txt"))
        err = capsys.readouterr().err
        assert "effective configuration" in err
        assert "# include_non_ip = false" in err
        assert "epochs" not in err