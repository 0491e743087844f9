#!/usr/bin/env python3
"""Replan-latency benchmark for visiplan.

    python3 perfbench/run.py --workload forest --seed 0 --seconds 40 --trace 0

Runs one workload's tracking missions through `visiplan.sim`, one after
another in this process with one BLAS thread, checks every mission's report,
and prints the metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Details
(environment, per-mission results, spans) go to `.perfbench_out/`.

`--workload all` runs every workload in its own process and adds the
cross-workload check (forest tracks at least as long as forest_blind).
"""

from __future__ import annotations

import os

# before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 900


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_threads() -> None:
    raw = os.environ.get("VISIPLAN_THREADS")
    if raw is None:
        return
    try:
        ok = int(raw) <= 1
    except ValueError:
        ok = False
    if not ok:
        _fail(f"VISIPLAN_THREADS={raw!r}: the benchmark measures one "
              "process; unset it or set it to 1")


def _import_harness():
    if not (ROOT / "src" / "visiplan" / "__init__.py").is_file():
        _fail(f"no visiplan sources under {ROOT / 'src'}; run from the root "
              "of a visiplan checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    return harness


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def run_one(args) -> int:
    harness = _import_harness()
    workload = harness.WORKLOADS[args.workload]
    env_start = harness.environment()
    missions = harness.missions_for(workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    start = time.perf_counter()
    if args.trace:
        outcome = harness.trace(missions,
                                spans_path=OUT_DIR / f"{stem}-spans.npz")
    else:
        outcome = harness.measure(missions)
    elapsed = time.perf_counter() - start

    cycles = sum(len(r.replan_times) for r in outcome.results)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(outcome.results)} missions, {cycles} replan cycles, "
          f"{elapsed:.1f} s")
    print(f"environment: {json.dumps(env_start, sort_keys=True)}")
    _print_metrics(outcome.metrics)
    for name, value in outcome.extra.items():
        print(f"  {name:40s} {value:>14.6g} (not gated)")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for r in outcome.results:
        if r.error:
            print(f"MISSION FAILED: {r.index} (seed {r.seed}): {r.error}")

    detail = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": elapsed,
        "environment": env_start,
        "loadavg_end": list(os.getloadavg()),
        "cycles": cycles, "problems": outcome.problems, **outcome.extra,
        "missions": [r.summary() for r in outcome.results],
        "metrics": outcome.metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": len(outcome.results),
                      "failed": outcome.failed,
                      "metrics": outcome.metrics}))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload in a child process of its own (its own peak RSS)."""
    harness = _import_harness()
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})

    # criterion 7 on the benchmark's own seeds: over the missions both
    # workloads flew, visibility mode tracks at least as long as baseline
    means = {}
    flown = {}
    for name in ("forest", "forest_blind"):
        detail = json.loads((OUT_DIR / f"{name}-seed{args.seed}"
                             f"-trace{args.trace}.json").read_text())
        flown[name] = {m["seed"]: m["failure_time"]
                       for m in detail["missions"] if m["error"] is None}
    common = sorted(set(flown["forest"]) & set(flown["forest_blind"]))
    for name in flown:
        means[name] = sum(flown[name][s] for s in common) / max(len(common), 1)
    ordered = bool(common) and means["forest"] >= means["forest_blind"]
    print(f"criterion 7 ordering over {len(common)} shared missions: "
          f"forest {means['forest']:.2f} s >= forest_blind "
          f"{means['forest_blind']:.2f} s: {'ok' if ordered else 'FAILED'}")
    print("all workloads:")
    _print_metrics(merged)
    print(json.dumps({"correct": correct and ordered, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct and ordered else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["forest", "forest_blind", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _check_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
