"""Alternating perfbench runs of a base checkout and this one, kept in one file.

    python3 scripts/bench_pairs.py --base ../parent --out BENCH_16.json \
        --workload train-infer --seed 1 --pairs 10 --traced

Each pair runs the benchmark command of `BENCHMARK.json` (`perfbench/run.py`)
with its `run_seconds` and `--trace 0`, once in the base checkout and
once in this one, alternating which side runs first, so a
drift in CPU speed falls on both sides alike. After every run the report
perfbench writes (`.perfbench_out/report-<workload>-seed<N>-trace0.json`)
is read, and its `environment`, `metrics`, `digests`, `rep_seconds` and
`setup_seconds` are kept under the workload and seed. The two checkouts'
resolved paths must have the same length, since perfbench's `peak_rss_mb`
moves with the directory name alone; the script exits naming both paths
before any run when they differ. `--traced` adds three more pairs run with
`--trace 1`, alternating the same way, and keeps each run's per-layer
metrics under the same seed as `traced: {"base": [...], "change": [...]}`,
since one traced run of one side cannot place a saving.
The output file is updated, not replaced: other workloads and seeds in it
stay, so one command per workload and seed builds up the record. Each
seed's `summary` gives, per metric, both medians, the base's quartiles and
how many pairs the change won: lower wins for the end-to-end metrics whose
`better` is "lower" in `BENCHMARK.json`, and for every other metric but a
rate (unit `1/s`). Each end-to-end metric also gets two flags: `gain`, the
change won at least 9 in 10 of the pairs and its median beats the base's
by more than the base's q3 - q1; and `within_bound`, the change's median
is no worse than the base's by more than the metric's `bound` times the
base's median. Each seed's `trees` records, per side, which source was
measured: a sha256 over the path and bytes of every `src/bytecap/**/*.py`
file of that checkout, in sorted path order, so a change not yet
committed is named too. The script ends by printing one line per
end-to-end metric (both medians, the base's quartiles, wins, `gain` and
`within_bound`), one with `digests_equal` and `all_correct`, and one with
both trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent.parent
KEPT = ("environment", "metrics", "digests", "rep_seconds", "setup_seconds")
TRACED_PAIRS = 3
BENCHMARK = json.loads((HERE / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def tree_digest(checkout: Path) -> str:
    """sha256 over each `src/bytecap/**/*.py` file of `checkout`, in sorted
    path order: its path below the checkout, its size and its bytes."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "bytecap").glob("**/*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(checkout).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in `checkout`; its report, or SystemExit if it failed."""
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((checkout / ".perfbench_out"
                         / f"report-{workload}-seed{seed}-trace{trace}.json").read_text())
    report["correct"] = result["correct"]
    return report


def run_pairs(checkouts: dict, workload: str, seed: int, count: int, trace: int) -> list[dict]:
    """`count` pairs of runs, each a {side: report}, alternating which of the
    `checkouts` ("base", "change") runs first."""
    pairs = []
    for i in range(count):
        pair = {}
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            pair[side] = run(checkouts[side], workload, seed, trace)
            wall = median(ref for ref, _ in pair[side]["rep_seconds"])
            print(f"{workload} seed {seed} trace {trace} pair {i + 1}/{count} "
                  f"{side}: wall_ref_s {wall:.4f}", flush=True)
        pairs.append(pair)
    return pairs


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        unit = pairs[0]["base"]["metrics"][name]["unit"]
        lower = BETTER.get(name, "higher" if unit == "1/s" else "lower") == "lower"
        sign = 1 if lower else -1
        q1, _, q3 = quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        out[name] = {"base_median": median(base), "change_median": median(change),
                     "base_q1": q1, "base_q3": q3, "change_wins": wins, "pairs": len(pairs)}
        if name in BOUND:
            # how much worse the change's median is than the base's (< 0: better)
            worse = sign * (median(change) - median(base))
            out[name]["gain"] = 10 * wins >= 9 * len(pairs) and -worse > q3 - q1
            out[name]["within_bound"] = worse <= BOUND[name] * median(base)
    digests_equal = all(p["base"]["digests"] == p["change"]["digests"] for p in pairs)
    return {"metrics": out, "digests_equal": digests_equal,
            "all_correct": all(p[side]["correct"] for p in pairs for side in ("base", "change"))}


def summary_lines(summ: dict, trees: dict) -> list[str]:
    """One line per end-to-end metric of `BENCHMARK.json`, then one with
    `digests_equal` and `all_correct`, then one with both sides' trees."""
    lines = []
    for name in BOUND:
        m = summ["metrics"][name]
        lines.append(f"{name}: base {m['base_median']:.4f} change {m['change_median']:.4f} "
                     f"base q1 {m['base_q1']:.4f} q3 {m['base_q3']:.4f} "
                     f"wins {m['change_wins']}/{m['pairs']} gain {m['gain']} "
                     f"within_bound {m['within_bound']}")
    lines.append(f"digests_equal {summ['digests_equal']} all_correct {summ['all_correct']}")
    lines.append(f"trees base {trees['base']} change {trees['change']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--out", type=Path, required=True, help="record file to update")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help=f"add {TRACED_PAIRS} pairs of --trace 1 runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    base = args.base.resolve()
    if len(str(base)) != len(str(HERE)):
        parser.error(f"--base {base} and this checkout {HERE} have resolved paths of "
                     f"different lengths ({len(str(base))} and {len(str(HERE))})")

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    entry = record.setdefault(args.workload, {})
    checkouts = {"base": base, "change": HERE}
    trees = {side: tree_digest(path) for side, path in checkouts.items()}
    pairs = [{side: {k: report[k] for k in KEPT + ("correct",)}
              for side, report in pair.items()}
             for pair in run_pairs(checkouts, args.workload, args.seed, args.pairs, 0)]
    seed_entry = entry[f"seed{args.seed}"] = {
        "seconds": BENCHMARK["run_seconds"], "pairs": pairs, "summary": summary(pairs),
        "trees": trees}
    if args.traced:
        traced = run_pairs(checkouts, args.workload, args.seed, TRACED_PAIRS, 1)
        seed_entry["traced"] = {side: [pair[side]["per_layer"] for pair in traced]
                                for side in checkouts}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(summary_lines(seed_entry["summary"], trees)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
