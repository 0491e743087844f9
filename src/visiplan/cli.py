"""Command-line entry point.

`visiplan run`   executes one scenario and writes report/trace/heatmap files.
`visiplan bench` sweeps seeds and modes over a scenario template and emits a
summary CSV. Tracking failure is data (exit 0); configuration and IO
problems exit nonzero with a diagnostic naming the offending field.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .costs import TERMS
from .sim import (RunReport, ScenarioError, dumps_canonical, load_scenario,
                  run, write_outputs)


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
    pr.add_argument("--dump-costs", action="store_true",
                    help="write per-replan cost breakdown JSON")
    pr.add_argument("--opt-trace", default=None, metavar="FILE",
                    help="write per-iteration optimizer cost CSV")
    pr.add_argument("--search-trace", default=None, metavar="FILE",
                    help="write expanded search nodes CSV")

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
    collect = bool(args.dump_costs or args.opt_trace or args.search_trace)
    try:
        report = _run_one(args.scenario, args.seed, args.mode, args.out,
                          collect)
    except ScenarioError as e:
        print(f"visiplan: scenario error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"visiplan: io error: {e}", file=sys.stderr)
        return 2

    out = Path(args.out)
    # the three trace files are views of the replan records
    optimized = [r for r in report.replans if r.result is not None]
    if args.dump_costs:
        dump = [{"t": r.t, "costs": r.result.final_report.term_values()}
                for r in optimized]
        (out / "costs.json").write_text(dumps_canonical(dump) + "\n")
    if args.opt_trace:
        columns = [t.column for t in TERMS] + ["total"]
        rows = ["t,iteration," + ",".join(columns)]
        for r in optimized:
            for it, vals in r.result.trace:
                rows.append(f"{r.t:.17g},{it}," + ",".join(
                    f"{vals[k]:.17g}" for k in columns))
        Path(args.opt_trace).write_text("\n".join(rows) + "\n")
    if args.search_trace:
        rows = ["t,x,y,z,vx,vy,vz,cost"]
        rows += [",".join(f"{v:.17g}" for v in node)
                 for r in report.replans for node in r.expanded]
        Path(args.search_trace).write_text("\n".join(rows) + "\n")

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
    try:
        # every run loads before the first flies, so that a malformed seed
        # or template writes nothing
        for path, seed, mode, _ in jobs:
            load_scenario(path, mode=mode, seed=seed)
        outdir.mkdir(parents=True, exist_ok=True)
        if workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_bench_worker, jobs))
        else:
            results = [_bench_worker(j) for j in jobs]
    except ScenarioError as e:
        print(f"visiplan: scenario error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"visiplan: io error: {e}", file=sys.stderr)
        return 2

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
    args = _parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
