"""Smoke check of the benchmark: every workload at toy size, untraced and
traced, asserting that each run is correct and emits every metric name with
its unit.

    python3 perfbench/smoke.py

Exits 0 when every assertion holds; takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The workload-level end-to-end metrics each workload prints on its
# "metric" lines, beyond the BENCHMARK.json ones every workload reports.
COMMON = {"setup_s": "s", "wall_ref_s": "s", "setup_wall_s": "s", "wall_s": "s",
          "calibration_loop_ms": "ms", "peak_rss_mb": "MB", "error_rate": "ratio"}
WORKLOAD_METRICS = {
    "ingest-grid": {"ingest_pkts_per_s": "1/s", "load_samples_per_s": "1/s"},
    "train-infer": {"load_samples_per_s": "1/s", "train_samples_per_s": "1/s",
                    "eval_samples_per_s": "1/s", "predict_p50_us": "us",
                    "predict_p99_us": "us"},
    "short-sessions": {"baseline_units_per_s": "1/s", "train_samples_per_s": "1/s",
                       "eval_samples_per_s": "1/s"},
}
# FTLD/FTLW files whose sha256 each workload prints
DIGESTS = {"ingest-grid": 12, "train-infer": 2, "short-sessions": 0}


def require(ok: bool, message: str):
    """An assertion that still runs under `python -O`."""
    if not ok:
        raise AssertionError(message)


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(result: dict, declared: list[dict], where: str):
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    require(result["correct"] is True and result["failed"] == 0, f"{where}: {result}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, where)
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == want, f"{where}: metric names/units differ: {set(got) ^ set(want)}")
    for name, m in result["metrics"].items():
        require(isinstance(m["value"], (int, float)), f"{where}: {name} is not a number")


def metric_lines(lines: list[str]) -> dict[str, str]:
    """name -> unit from the 'metric <name> <value> <unit> n=<count>' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric":
            require(len(parts) == 5 and parts[4].startswith("n="), line)
            out[parts[1]] = parts[3]
    return out


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload, specific in WORKLOAD_METRICS.items():
        result, lines = run(workload, 0)
        check_result(result, declared["end_to_end"], f"{workload} trace=0")
        printed = metric_lines(lines)
        require(printed == {**COMMON, **specific}, f"{workload}: printed metrics {printed}")
        require(any(line.startswith("env nproc=") for line in lines), workload)
        digests = [line for line in lines if line.startswith("digest ")]
        require(len(digests) == DIGESTS[workload], f"{workload}: {digests}")
        result, _ = run(workload, 1)
        check_result(result, declared["per_layer"], f"{workload} trace=1")
        print(f"smoke ok: {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
