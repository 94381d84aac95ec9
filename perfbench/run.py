"""Seeded end-to-end benchmark of bytecap, one workload per run.

    python3 perfbench/run.py --workload ingest-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the workload's operation repeats for about --seconds
seconds, the first ones each followed by a fresh set-up, all timed by a
calibrated clock (see clock.py): the median repetition in reference seconds
is wall_ref_s and the median of three set-ups is setup_s; their raw
wall-clock medians are printed too. With --trace 1 it is set up once, run
once untraced and once traced in raw seconds, then every module is probed on
the same corpus (see layers.py). Human-readable lines come first; the last line of stdout is
the JSON result. Spans and a full report go to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: each workload is a single-threaded batch job, and fixing
# the count keeps runs comparable. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per untraced run; setup_s is their median


def import_program():
    """Put the checkout's src/ first on the path; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "bytecap" / "__init__.py").is_file():
        print(f"error: no bytecap package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bytecap
    if Path(bytecap.__file__).resolve().parent != (src / "bytecap").resolve():
        print(f"error: bytecap imported from {bytecap.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment(seed, corpus) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": int(BLAS_THREADS),
            "seed": seed, "corpus_packets": corpus.total_packets,
            "corpus_bytes": corpus.file_bytes, "corpus_frame_bytes": corpus.frame_bytes,
            "corpus_sessions": corpus.sessions}


def raw_seconds(clock, fn) -> float:
    """Wall seconds of fn(), the clock's calibration loops left out."""
    loops, start = clock.loop_s, time.perf_counter()
    fn()
    return time.perf_counter() - start - (clock.loop_s - loops)


def timed_setup(workload, work: Path, tracer) -> tuple[float, float]:
    """(clock seconds, raw wall seconds) of one fresh set-up."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    clock = workload.clock
    t0 = clock.now()
    with tracer.span("setup"):
        raw = raw_seconds(clock, lambda: workload.setup(work, tracer))
    return clock.now() - t0, raw


def run_rep(workload, tracer, rep_dir: Path, log):
    """One repetition; an exception counts as one failed operation."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    reps = []
    try:
        raw = raw_seconds(workload.clock, lambda: reps.append(workload.run(tracer, rep_dir)))
    except Exception:  # noqa: BLE001 - reported and counted, never hidden
        traceback.print_exc()
        log["op_errors"] += 1
        return None
    reps[0].raw_wall = raw
    return reps[0]


def score(reps, extra_checks, log) -> tuple[int, int, list]:
    """(attempted, failed, check lines) over operations and output checks."""
    checks = [c for r in reps for c in r.checks] + extra_checks
    first = reps[0].digests if reps else {}
    checks += [("digests repeat across repetitions", r.digests == first) for r in reps[1:]]
    attempted = sum(r.ops for r in reps) + log["op_errors"] + len(checks)
    failed = log["op_errors"] + sum(1 for _, ok in checks if not ok)
    return attempted, failed, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora and one set-up, for perfbench/smoke.py")
    args = parser.parse_args(argv)

    import_program()
    import layers
    from clock import Clock
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke, Clock(calibrated=not args.trace))
    run_id = f"{args.workload}:{args.seed}:{os.getpid()}"
    work = ROOT / ".perfbench_work" / run_id.replace(":", "-")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer(run_id, enabled=bool(args.trace))
    untraced = Tracer(run_id, enabled=False)
    log = {"op_errors": 0}
    try:
        setup_times = [timed_setup(workload, work / "setup", tracer)]
        reps = []
        if args.trace:
            plain = run_rep(workload, untraced, work / "rep-untraced", log)
            traced = run_rep(workload, tracer, work / "rep-traced", log)
            reps = [r for r in (plain, traced) if r is not None]
            if len(reps) == 2:
                with tracer.span("probe"):
                    layers.probe(tracer, workload, work)
        else:
            # The first repetitions alternate with the remaining set-ups, so
            # both sample the window; every set-up rewrites identical inputs
            # from the seed, and later repetitions reuse the last one.
            setups = 1 if args.smoke else SETUPS
            start = time.perf_counter()
            while True:
                rep = run_rep(workload, untraced, work / f"rep{len(reps)}", log)
                if rep is None:
                    break
                reps.append(rep)
                if len(setup_times) < setups:
                    setup_times.append(timed_setup(workload, work / "setup", tracer))
                # start another repetition only if it and the set-ups still
                # owed fit in the budget
                owed = (setups - len(setup_times)) * setup_times[-1][1]
                if time.perf_counter() - start + rep.raw_wall + owed > args.seconds:
                    break
            while len(setup_times) < setups:
                setup_times.append(timed_setup(workload, work / "setup", tracer))
        extra = workload.final_checks() if reps else []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    expected_reps = 2 if args.trace else 1
    if len(reps) < expected_reps:
        print("error: the workload operation failed; no result", file=sys.stderr)
        return 1
    attempted, failed, checks = score(reps, extra, log)
    env = environment(args.seed, workload.corpus)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    report = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "environment": env, "reps": len(reps), "attempted": attempted,
              "failed": failed, "checks": [{"check": n, "ok": ok} for n, ok in checks],
              "rep_seconds": [[r.wall, r.raw_wall] for r in reps],
              "setup_seconds": setup_times,
              "digests": reps[-1].digests}
    print(f"# bytecap benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}")
    for name, digest in reps[-1].digests.items():
        print(f"digest {name} sha256={digest}")

    if args.trace:
        metrics = layers.layer_metrics(tracer.spans, reps[0].wall)
        tracer.write_jsonl(out_dir / f"spans-{stem}.jsonl")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result = {m["name"]: report["per_layer"][m["name"]] for m in declared["per_layer"]}
    else:
        loops = workload.clock.loops
        run_metrics = {
            "setup_s": (median(t for t, _ in setup_times), "s", len(setup_times)),
            "wall_ref_s": (median(r.wall for r in reps), "s", len(reps)),
            "setup_wall_s": (median(raw for _, raw in setup_times), "s", len(setup_times)),
            "wall_s": (median(r.raw_wall for r in reps), "s", len(reps)),
            "calibration_loop_ms": (median(loops) * 1e3, "ms", len(loops)),
            **workload.metrics(reps),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB", 1),
            "error_rate": (failed / attempted, "ratio", attempted),
        }
        for name, (value, unit, n) in run_metrics.items():
            print(f"metric {name} {value:.6g} {unit} n={n}")
        report["metrics"] = {k: {"value": v, "unit": u, "n": n}
                             for k, (v, u, n) in run_metrics.items()}
        result = {m["name"]: {"value": run_metrics[m["name"]][0], "unit": m["unit"]}
                  for m in declared["end_to_end"]}
    (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
