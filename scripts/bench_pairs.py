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
before any run when they differ. `--traced` adds one
`--trace 1` run of this checkout, whose per-layer metrics are kept under
the same seed.
The output file is updated, not replaced: other workloads and seeds in it
stay, so one command per workload and seed builds up the record. Each
seed's `summary` gives, per metric, both medians, the base's quartiles and
how many pairs the change won: lower wins for the end-to-end metrics whose
`better` is "lower" in `BENCHMARK.json`, and for every other metric but a
rate (unit `1/s`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent.parent
KEPT = ("environment", "metrics", "digests", "rep_seconds", "setup_seconds")
BENCHMARK = json.loads((HERE / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


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


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        unit = pairs[0]["base"]["metrics"][name]["unit"]
        lower = BETTER.get(name, "higher" if unit == "1/s" else "lower") == "lower"
        sign = 1 if lower else -1
        q1, _, q3 = quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
        out[name] = {"base_median": median(base), "change_median": median(change),
                     "base_q1": q1, "base_q3": q3,
                     "change_wins": sum(sign * (c - b) < 0 for b, c in zip(base, change)),
                     "pairs": len(pairs)}
    digests_equal = all(p["base"]["digests"] == p["change"]["digests"] for p in pairs)
    return {"metrics": out, "digests_equal": digests_equal,
            "all_correct": all(p[side]["correct"] for p in pairs for side in ("base", "change"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--out", type=Path, required=True, help="record file to update")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help="add one --trace 1 run of this checkout")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    base = args.base.resolve()
    if len(str(base)) != len(str(HERE)):
        parser.error(f"--base {base} and this checkout {HERE} have resolved paths of "
                     f"different lengths ({len(str(base))} and {len(str(HERE))})")

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    entry = record.setdefault(args.workload, {})
    pairs = []
    for i in range(args.pairs):
        sides = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in sides:
            report = run(base if side == "base" else HERE, args.workload, args.seed, 0)
            pair[side] = {k: report[k] for k in KEPT + ("correct",)}
            wall = report["metrics"]["wall_ref_s"]["value"]
            print(f"{args.workload} seed {args.seed} pair {i + 1}/{args.pairs} "
                  f"{side}: wall_ref_s {wall:.4f}", flush=True)
        pairs.append(pair)
    seed_entry = entry[f"seed{args.seed}"] = {
        "seconds": BENCHMARK["run_seconds"], "pairs": pairs, "summary": summary(pairs)}
    if args.traced:
        seed_entry["traced"] = run(HERE, args.workload, args.seed, 1)["per_layer"]
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(seed_entry["summary"]["metrics"]["wall_ref_s"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
