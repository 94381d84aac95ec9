"""scripts/bench_pairs.py's record, with each perfbench run replaced by a canned report."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.fixture
def runs(monkeypatch, tmp_path):
    """The (side, seed, trace) of each run; the change's runs read faster.
    As in perfbench's reports, a traced run has per-layer metrics and no
    end-to-end ones, an untraced run the reverse.
    This checkout is taken to be tmp_path/"this", as long a path as main's base."""
    calls = []
    monkeypatch.setattr(bench_pairs, "HERE", tmp_path / "this")

    def run(checkout, workload, seed, trace):
        side = "change" if checkout == bench_pairs.HERE else "base"
        calls.append((side, seed, trace))
        wall = (1.0 if side == "change" else 2.0) + len(calls) / 100
        report = {"environment": {"python": "3"}, "digests": {"model.ftlw": "same"},
                  "rep_seconds": [[wall, wall]], "setup_seconds": [[0.5, 0.5]],
                  "correct": True}
        if trace:
            report["per_layer"] = {"trace.overhead_s": {"unit": "s", "value": wall}}
        else:
            # the change holds 30 MB more than the base's 60: past peak_rss_mb's bound
            rss = 90.0 if side == "change" else 60.0
            report["metrics"] = {"wall_ref_s": {"unit": "s", "value": wall},
                                 "setup_s": {"unit": "s", "value": 0.5},
                                 "peak_rss_mb": {"unit": "MB", "value": rss},
                                 "eval_samples_per_s": {"unit": "1/s", "value": 1 / wall}}
        return report

    monkeypatch.setattr(bench_pairs, "run", run)
    return calls


def main(tmp_path, *argv, base="base"):
    return bench_pairs.main(["--base", str(tmp_path / base), "--out",
                             str(tmp_path / "BENCH.json"), "--workload", "train-infer",
                             *argv])


def test_each_seed_keeps_its_pairs_summary_and_traced_metrics(tmp_path, runs):
    assert main(tmp_path, "--seed", "1", "--pairs", "2", "--traced") == 0
    assert main(tmp_path, "--seed", "2", "--pairs", "3", "--traced") == 0
    # pairs alternate which side runs first, traced pairs too
    assert runs[:10] == [("base", 1, 0), ("change", 1, 0), ("change", 1, 0), ("base", 1, 0),
                         ("base", 1, 1), ("change", 1, 1), ("change", 1, 1), ("base", 1, 1),
                         ("base", 1, 1), ("change", 1, 1)]
    assert len(runs) == 10 + 12
    record = json.loads((tmp_path / "BENCH.json").read_text())["train-infer"]
    assert sorted(record) == ["seed1", "seed2"]
    for seed, pairs in ((1, 2), (2, 3)):
        entry = record[f"seed{seed}"]
        # each traced run of each side is kept; the change's runs read faster
        traced = entry["traced"]
        assert sorted(traced) == ["base", "change"]
        assert len(traced["base"]) == len(traced["change"]) == bench_pairs.TRACED_PAIRS
        assert all(1 <= run["trace.overhead_s"]["value"] < 2 for run in traced["change"])
        assert all(run["trace.overhead_s"]["value"] >= 2 for run in traced["base"])
        assert len(entry["pairs"]) == pairs
        summary = entry["summary"]
        assert summary["digests_equal"] and summary["all_correct"]
        # lower wins for a time, higher for a rate
        assert summary["metrics"]["wall_ref_s"]["change_wins"] == pairs
        assert summary["metrics"]["eval_samples_per_s"]["change_wins"] == pairs


def test_ends_with_one_line_per_end_to_end_metric(tmp_path, runs, capsys):
    assert main(tmp_path, "--seed", "1", "--pairs", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    # the four runs' progress lines, then the summary
    assert len(lines) == 4 + 5
    wall, setup, rss, checks, trees = lines[4:]
    # walls: base 2.01 and 2.04, change 1.02 and 1.03
    assert wall.startswith("wall_ref_s: base 2.0250 change 1.0250 base q1 ")
    assert wall.endswith(" wins 2/2 gain True within_bound True")
    assert setup.startswith("setup_s: base 0.5000 change 0.5000 ")
    assert setup.endswith(" wins 0/2 gain False within_bound True")
    assert rss == ("peak_rss_mb: base 60.0000 change 90.0000 base q1 60.0000 q3 60.0000 "
                   "wins 0/2 gain False within_bound False")
    assert checks == "digests_equal True all_correct True"
    record = json.loads((tmp_path / "BENCH.json").read_text())["train-infer"]["seed1"]
    assert trees == f"trees base {record['trees']['base']} change {record['trees']['change']}"
    assert [line.split(":")[0] for line in lines[4:7]] == list(bench_pairs.BOUND)


def write_tree(root, files):
    for name, data in files.items():
        path = root / "src" / "bytecap" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_tree_digest_names_the_source_each_side_measured(tmp_path):
    files = {"__init__.py": b"", "nn.py": b"x = 1\n", "sub/deep.py": b"y = 2\n"}
    one, two = (write_tree(tmp_path / name, files) for name in ("one", "two"))
    (two / "src" / "bytecap" / "notes.txt").write_text("not source")
    digest = bench_pairs.tree_digest(one)
    assert len(digest) == 64 and bench_pairs.tree_digest(two) == digest
    # one changed byte, in a file below a subdirectory too
    for name, data in (("nn.py", b"x = 2\n"), ("sub/deep.py", b"y = 3\n")):
        changed = write_tree(tmp_path / f"changed-{name[:3]}", {**files, name: data})
        assert bench_pairs.tree_digest(changed) != digest
    # a file's bytes cannot move into its neighbour's unnoticed
    moved = write_tree(tmp_path / "moved", {**files, "__init__.py": b"x", "nn.py": b" = 1\n"})
    assert bench_pairs.tree_digest(moved) != digest


def test_each_seed_records_both_trees(tmp_path, runs):
    write_tree(tmp_path / "base", {"nn.py": b"old\n"})
    write_tree(tmp_path / "this", {"nn.py": b"new\n"})
    assert main(tmp_path, "--pairs", "1") == 0
    trees = json.loads((tmp_path / "BENCH.json").read_text())["train-infer"]["seed1"]["trees"]
    assert trees == {side: bench_pairs.tree_digest(tmp_path / name)
                     for side, name in (("base", "base"), ("change", "this"))}
    assert trees["base"] != trees["change"]


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_refused_before_any_run(tmp_path, runs, capsys, pairs):
    with pytest.raises(SystemExit) as exit_info:
        main(tmp_path, "--pairs", pairs)
    assert exit_info.value.code == 2
    assert f"--pairs must be >= 1, got {pairs}" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "BENCH.json").exists()


def test_base_path_of_another_length_refused_before_any_run(tmp_path, runs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(tmp_path, base="parent")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"--base {tmp_path / 'parent'} and this checkout {tmp_path / 'this'}" in err
    assert "different lengths" in err
    assert runs == []
    assert not (tmp_path / "BENCH.json").exists()


def test_base_path_compared_after_resolving(tmp_path, runs):
    (tmp_path / "base").mkdir()
    (tmp_path / "ln").symlink_to(tmp_path / "base")
    # "ln" is shorter than "this" but resolves to the same-length "base"
    assert main(tmp_path, "--pairs", "1", base="ln") == 0
    assert runs == [("base", 1, 0), ("change", 1, 0)]


def fake_pairs(base, change, name="wall_ref_s", unit="s"):
    """Pairs of canned reports whose only metric `name` reads base[i] and change[i]."""
    def report(value):
        return {"metrics": {name: {"unit": unit, "value": value}},
                "digests": {}, "correct": True}
    return [{"base": report(b), "change": report(c)} for b, c in zip(base, change)]


BASE = [4.0, 4.1, 3.9, 4.0, 4.2, 3.8, 4.0, 4.1, 3.9, 4.0]  # median 4.0, q3 - q1 0.2


@pytest.mark.parametrize("change, gain", [
    ([b - 0.5 for b in BASE], True),  # 10 of 10 won, medians 0.5 apart
    ([b - 0.5 for b in BASE[:9]] + [9.0], True),  # 9 of 10 is enough
    ([b - 0.5 for b in BASE[:8]] + [9.0, 9.0], False),  # 8 of 10 is not
    ([b - 0.1 for b in BASE], False),  # 10 of 10, but inside the base's spread
    ([b + 0.5 for b in BASE], False)])  # worse on every pair
def test_gain_needs_nine_in_ten_wins_and_medians_apart_by_the_base_spread(change, gain):
    metric = bench_pairs.summary(fake_pairs(BASE, change))["metrics"]["wall_ref_s"]
    assert metric["gain"] is gain


@pytest.mark.parametrize("name, change, within", [
    ("wall_ref_s", [5.0] * 10, True),  # 25% worse: the bound itself
    ("wall_ref_s", [5.01] * 10, False),
    ("wall_ref_s", [1.0] * 10, True),  # better is always within
    ("peak_rss_mb", [4.6] * 10, True),  # 15% worse
    ("peak_rss_mb", [4.61] * 10, False)])
def test_within_bound_reads_each_metric_bound_from_the_benchmark(name, change, within):
    unit = "MB" if name == "peak_rss_mb" else "s"
    metric = bench_pairs.summary(fake_pairs([4.0] * 10, change, name, unit))["metrics"][name]
    assert metric["within_bound"] is within


def test_flags_only_on_end_to_end_metrics():
    metric = bench_pairs.summary(fake_pairs(BASE, BASE, "eval_samples_per_s", "1/s"))
    assert "gain" not in metric["metrics"]["eval_samples_per_s"]
    assert "within_bound" not in metric["metrics"]["eval_samples_per_s"]
