"""Command-line entry point.

`visiplan run`   executes one scenario and writes report/trace/heatmap files,
                 and with --planner-traces the replan records' trace files.
`visiplan bench` sweeps seeds and modes over a scenario template and emits a
summary CSV. Tracking failure is data (exit 0); configuration and IO
problems exit 2 with a diagnostic naming the offending field or file.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .sim import RunReport, ScenarioError, load_scenario, run, write_outputs


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="visiplan")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a single scenario")
    pr.add_argument("--scenario", required=True, help="scenario JSON path")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--mode", choices=["visibility", "baseline"],
                    default="visibility")
    pr.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed")
    pr.add_argument("--planner-traces", action="store_true",
                    help="also write costs.json (final cost terms per "
                    "replan), opt_trace.csv (optimizer costs per iteration) "
                    "and search_trace.csv (expanded search nodes)")

    pb = sub.add_parser("bench", help="sweep seeds and modes")
    pb.add_argument("--scenario", required=True, help="scenario template JSON")
    pb.add_argument("--out", required=True, help="output directory")
    pb.add_argument("--seeds", required=True,
                    help="comma-separated seed list (may be empty)")
    pb.add_argument("--modes", default="both",
                    choices=["both", "visibility", "baseline"])
    return p


def _run_one(scenario_path: str, seed: int | None, mode: str,
             outdir: str, collect: bool) -> RunReport:
    scenario = load_scenario(scenario_path, mode=mode, seed=seed)
    report = run(scenario, collect_traces=collect)
    write_outputs(report, outdir)
    return report


def _bench_worker(args):
    scenario_path, seed, mode, outdir = args
    report = _run_one(scenario_path, seed, mode, outdir, collect=False)
    return {
        "seed": seed,
        "mode": mode,
        "failure_time": report.failure_time,
        "occlusion_events": report.occlusion_events,
        "mean_psi_err": report.mean_psi_err(),
    }


def cmd_run(args) -> int:
    report = _run_one(args.scenario, args.seed, args.mode, args.out,
                      args.planner_traces)
    print(f"termination={report.termination} "
          f"failure_time={report.failure_time:.17g}")
    return 0


def cmd_bench(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        workers = int(os.environ.get("VISIPLAN_THREADS", "1"))
    except ValueError as e:
        print(f"visiplan: --seeds takes comma-separated integers and "
              f"VISIPLAN_THREADS an integer: {e}", file=sys.stderr)
        return 2
    modes = ["visibility", "baseline"] if args.modes == "both" else [args.modes]
    outdir = Path(args.out)
    jobs = [(args.scenario, seed, mode, str(outdir / f"seed{seed}_{mode}"))
            for seed in seeds for mode in modes]
    # every seed loads before the first run flies, so that a malformed seed
    # or template writes nothing; a scenario loads alike in either mode
    for seed in seeds:
        load_scenario(args.scenario, seed=seed)
    outdir.mkdir(parents=True, exist_ok=True)
    if workers > 1 and len(jobs) > 1:
        # imported only where a pool runs: its modules cost about 1 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_bench_worker, jobs))
    else:
        results = [_bench_worker(j) for j in jobs]

    summary = outdir / "summary.csv"
    with summary.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "mode", "failure_time", "occlusion_events",
                         "mean_psi_err"])
        for r in results:
            writer.writerow([r["seed"], r["mode"],
                             f"{r['failure_time']:.17g}",
                             r["occlusion_events"],
                             f"{r['mean_psi_err']:.17g}"])
    for mode in modes:
        times = [r["failure_time"] for r in results if r["mode"] == mode]
        if times:
            print(f"mode={mode} mean_failure_time="
                  f"{sum(times) / len(times):.17g} runs={len(times)}")
    print(f"summary written to {summary}")
    return 0


def main(argv=None) -> int:
    """Run one command; a malformed scenario or a failed read or write of
    any file exits 2 with a one-line diagnostic."""
    args = _parser().parse_args(argv)
    command = cmd_run if args.command == "run" else cmd_bench
    try:
        return command(args)
    except ScenarioError as e:
        print(f"visiplan: scenario error: {e}", file=sys.stderr)
    except OSError as e:
        print(f"visiplan: io error: {e}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
