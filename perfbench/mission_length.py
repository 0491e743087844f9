#!/usr/bin/env python3
"""Compares the replan-cycle mix of missions of different lengths.

    python3 perfbench/mission_length.py --mode visibility --durations 5,30 \
        --seeds 0-31

Flies the bundled `forest.json` scenario once per duration on each scenario
seed, the durations of one seed back to back so that the host's speed drifts
alike for all of them. It prints, per duration: replan cycles, p50 / p90 / p95
cycle time, the share of cycles over `replan_period`, the share of replan time
spent in `sim.search`, searches per cycle, and the tracked share of the
scheduled time. The benchmark's workloads fly shortened missions; this shows
whether their cycle mix matches full-length missions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import harness  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=["visibility", "baseline"],
                        default="visibility")
    parser.add_argument("--durations", default="5,30")
    parser.add_argument("--seeds", default="0-15", help="first-last")
    args = parser.parse_args(argv)
    durations = [float(d) for d in args.durations.split(",")]
    base = json.loads(harness.vp_sim.bundled_scenario("forest").read_text())

    search_s = [0.0]
    search_n = [0]
    original = harness.vp_sim.search

    def timed_search(*a, **kw):
        start = time.perf_counter()
        try:
            return original(*a, **kw)
        finally:
            search_s[0] += time.perf_counter() - start
            search_n[0] += 1

    rows = {d: {"rt": [], "missed": 0, "search_s": 0.0, "search_n": 0,
                "tracked": 0.0, "missions": 0} for d in durations}
    harness.vp_sim.search = timed_search
    try:
        for seed in _seeds(args.seeds):
            for d in durations:
                raw = dict(base, duration=d)
                search_s[0], search_n[0] = 0.0, 0
                r = harness.fly(harness.Mission(0, seed, args.mode, raw))
                if r.error is not None:
                    print(f"seed {seed} duration {d}: {r.error}")
                    return 1
                row = rows[d]
                row["rt"] += r.replan_times
                row["missed"] += sum(t > r.replan_period
                                     for t in r.replan_times)
                row["search_s"] += search_s[0]
                row["search_n"] += search_n[0]
                row["tracked"] += r.failure_time / d
                row["missions"] += 1
    finally:
        harness.vp_sim.search = original

    print(f"mode {args.mode}, seeds {args.seeds}")
    print("duration  cycles  p50_ms  p90_ms  p95_ms  miss   search_share"
          "  searches/cycle  tracked")
    for d, row in rows.items():
        rt = np.array(row["rt"])
        p50, p90, p95 = np.percentile(rt, [50, 90, 95]) * 1e3
        print(f"{d:6.0f} s  {rt.size:6d}  {p50:6.1f}  {p90:6.1f}  "
              f"{p95:6.1f}  {row['missed'] / rt.size:.3f}  "
              f"{row['search_s'] / rt.sum():12.3f}  "
              f"{row['search_n'] / rt.size:14.3f}  "
              f"{row['tracked'] / row['missions']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
