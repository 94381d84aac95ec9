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
            report["metrics"] = {"wall_ref_s": {"unit": "s", "value": wall},
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
