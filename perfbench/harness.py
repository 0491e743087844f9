"""Workloads, mission execution, end-to-end metrics and correctness checks.

A workload is a list of tracking missions built from the bundled
`forest.json` scenario and a seed. Missions run one after another in this
process through `visiplan.sim` (closed loop: the simulator starts a cycle
only after the previous replan returned). Import this module only after the
BLAS thread variables are set; `run.py` does that.

Only metrics that hold steady while the host's speed drifts are gated:
on a shared 2-core VM a fixed CPU loop ran up to 1.5x slower for minutes
at a time, so cycle-time percentiles are reported but not gated.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from visiplan import env as vp_env
from visiplan import sim as vp_sim

from .layers import layer_metrics
from .tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the order is the order of the printed report
END_TO_END = {
    "deadline_met_frac": ("fraction", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "tracked_time_frac": ("fraction", "higher"),
    "mission_ok_frac": ("fraction", "higher"),
}

MISSION_DURATION_S = 5.0
SETUP_BUILDS = 3        # scenario builds per mission; setup_s takes the median
TRACE_SHARE = 0.4       # share of the missions a traced run flies (twice)


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str              # "visibility" or "baseline"
    mission_wall: float    # wall seconds per mission, set-up included, on a
                           # 2-core x86 VM; sizes a run from --seconds
    why: str


WORKLOADS = {w.name: w for w in [
    Workload("forest", "visibility", 2.25,
             "random forests in visibility mode: search, LOS raycasts, "
             "cost_oe and ESDF queries are all heavy; search cycles set the "
             "tail"),
    Workload("forest_blind", "baseline", 0.58,
             "the same maps in baseline mode: search without LOS rejection, "
             "optimizer without the four visibility terms"),
]}


@dataclass(frozen=True)
class Mission:
    index: int
    seed: int
    mode: str
    raw: dict = field(repr=False)


def mission_seed(seed: int, index: int) -> int:
    """Scenario seed of a run's index-th mission. Workloads share it, so
    `forest` and `forest_blind` fly the same maps and target walks."""
    return seed * 10_000 + index


def missions_for(workload: Workload, seed: int,
                 seconds: float) -> list[Mission]:
    """The run's missions: a function of the workload, seed and --seconds
    only, so two versions of the program fly identical missions."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    base = json.loads(vp_sim.bundled_scenario("forest").read_text())
    base["duration"] = MISSION_DURATION_S
    count = max(1, round(seconds / workload.mission_wall))
    return [Mission(i, mission_seed(seed, i), workload.mode,
                    copy.deepcopy(base)) for i in range(count)]


# ---------------------------------------------------------------------------
# missions


@dataclass
class MissionResult:
    index: int
    seed: int
    setup_times: list = field(default_factory=list)
    wall_s: float = 0.0
    replan_times: list = field(default_factory=list)
    replan_period: float = 0.1
    duration: float = 0.0
    failure_time: float = 0.0
    termination: str = "error"
    steps: int = 0
    tracked_steps: int = 0
    min_clearance_m: float = math.nan
    fingerprint: str = ""
    error: str | None = None

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times) if self.setup_times \
            else math.nan

    @property
    def failed(self) -> bool:
        return self.error is not None or self.termination == "planner_failure"

    def summary(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "replan_times"}
        out["setup_s"] = self.setup_s
        out["cycles"] = len(self.replan_times)
        return out


def fingerprint(report: vp_sim.RunReport) -> str:
    """Digest of the report's deterministic fields and every executed step."""
    h = hashlib.sha256(vp_sim.dumps_canonical(report.to_json_dict()).encode())
    for s in report.steps:
        vals = (s.t, *s.p, s.yaw, *s.target, s.d, s.psi_err)
        h.update((",".join(f"{v:.17g}" for v in vals)
                  + f",{int(s.in_fov)},{int(s.occluded)}\n").encode())
    return h.hexdigest()


def _scenario(mission: Mission) -> vp_sim.Scenario:
    base_dir = vp_sim.bundled_scenario("forest").parent
    return vp_sim.scenario_from_dict(mission.raw, base_dir=base_dir,
                                     mode=mission.mode, seed=mission.seed)


def fly(mission: Mission, builds: int = 1,
        tracer: Tracer | None = None) -> MissionResult:
    """Set up (`builds` times) and run one mission; never raises for a
    planner error."""
    if tracer is not None:
        tracer.mission = mission.index
    setup_times = []
    try:
        for _ in range(builds):
            start = time.perf_counter()
            with tracer.span("setup") if tracer else nullcontext():
                scenario = _scenario(mission)
            setup_times.append(time.perf_counter() - start)
    except Exception as exc:   # a broken scenario is a failed mission
        return MissionResult(mission.index, mission.seed,
                             error=f"setup: {type(exc).__name__}: {exc}")
    result = MissionResult(mission.index, mission.seed, setup_times,
                           replan_period=scenario.replan_period,
                           duration=scenario.duration)
    start = time.perf_counter()
    try:
        with tracer.span("mission") if tracer else nullcontext():
            report = vp_sim.run(scenario)
    except Exception as exc:   # counted as a failed mission, run continues
        result.wall_s = time.perf_counter() - start
        result.error = f"run: {type(exc).__name__}: {exc}"
        return result
    result.wall_s = time.perf_counter() - start
    result.replan_times = list(report.replan_times)
    result.failure_time = report.failure_time
    result.termination = report.termination
    result.steps = len(report.steps)
    result.tracked_steps = report.tracked_steps
    result.fingerprint = fingerprint(report)
    if report.steps:
        # the original ESDF query, so the traced layers do not count it
        esdf = vp_env.build_esdf(scenario.grid, scenario.d_trunc)
        poses = np.stack([s.p for s in report.steps])
        query = getattr(vp_env.ESDFField.distance_at, "__wrapped__",
                        vp_env.ESDFField.distance_at)
        result.min_clearance_m = float(np.min(query(esdf, poses)))
    return result


def check(result: MissionResult) -> list[str]:
    """Invariants of a finished mission's report; empty when it holds."""
    if result.error is not None:
        # every mission must finish; `mission_ok_frac` counts it as well
        return [f"mission {result.index} (seed {result.seed}) did not "
                f"finish: {result.error}"]
    problems = []
    lost = result.termination == "target_lost"
    if result.termination not in ("completed", "target_lost",
                                  "planner_failure"):
        problems.append(f"unknown termination {result.termination!r}")
    if not 0.0 <= result.failure_time <= result.duration + 1e-9:
        problems.append(f"failure_time {result.failure_time} outside "
                        f"[0, {result.duration}]")
    # the step that loses the target is recorded but not tracked
    if result.tracked_steps != result.steps - int(lost):
        problems.append(f"tracked_steps {result.tracked_steps} != steps "
                        f"{result.steps} - {int(lost)}")
    if not result.replan_times:
        problems.append("no replan cycle ran")
    if not all(math.isfinite(t) and t > 0 for t in result.replan_times):
        problems.append("non-finite or non-positive replan time")
    if not math.isfinite(result.min_clearance_m):
        problems.append("no executed pose")
    return [f"mission {result.index} (seed {result.seed}): {p}"
            for p in problems]


# ---------------------------------------------------------------------------
# runs


@dataclass
class Outcome:
    metrics: dict              # name -> {"value", "unit"}
    results: list
    problems: list
    extra: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)


def end_to_end(results: list[MissionResult]) -> dict:
    cycles = np.array([t for r in results for t in r.replan_times])
    within = sum(sum(t <= r.replan_period for t in r.replan_times)
                 for r in results)
    flown = [r for r in results if r.error is None]
    values = {
        "deadline_met_frac": within / cycles.size,
        "setup_s": sum(r.setup_s for r in results
                       if math.isfinite(r.setup_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tracked_time_frac": sum(r.failure_time for r in flown)
        / sum(r.duration for r in flown),
        "mission_ok_frac": 1.0 - sum(r.failed for r in results) / len(results),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in END_TO_END}


def measure(missions: list[Mission]) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    results = [fly(m, builds=SETUP_BUILDS) for m in missions]
    problems = [p for r in results for p in check(r)]
    cycles = np.array([t for r in results for t in r.replan_times])
    if not cycles.size:
        problems.append("no replan cycle ran")
        return Outcome({}, results, problems)
    flown = [r for r in results if r.error is None]
    # reported, not gated: across seeds they spread wider than any bound,
    # the percentiles because the host's speed drifts for minutes at a time,
    # the tail and throughput also because a few missions carry most slow
    # searches
    extra = {"replan_p50_ms": float(np.percentile(cycles, 50)) * 1e3,
             "replan_p90_ms": float(np.percentile(cycles, 90)) * 1e3,
             "replan_p95_ms": float(np.percentile(cycles, 95)) * 1e3,
             "replan_max_ms": float(cycles.max()) * 1e3,
             "sim_rate": sum(r.failure_time for r in flown)
             / sum(r.wall_s for r in flown)}
    return Outcome(end_to_end(results), results, problems, extra)


def trace(missions: list[Mission], spans_path: Path | None = None) -> Outcome:
    """Untraced then traced flight of the first TRACE_SHARE of the missions:
    the per-layer metrics, the tracing overhead, and a check that tracing
    changed no output."""
    missions = missions[:max(1, round(len(missions) * TRACE_SHARE))]
    plain = [fly(m) for m in missions]
    tracer = Tracer()
    with tracer.installed():
        traced = [fly(m, tracer=tracer) for m in missions]
    problems = [p for r in plain + traced for p in check(r)]
    for a, b in zip(plain, traced):
        if a.fingerprint != b.fingerprint:
            problems.append(f"mission {a.index} (seed {a.seed}): traced run "
                            f"differs from untraced run")
    wall = [sum(r.wall_s + r.setup_s for r in rs if r.error is None)
            for rs in (plain, traced)]
    if wall[0] <= 0.0:
        problems.append("no mission finished")
        return Outcome({}, traced, problems)
    metrics = layer_metrics(tracer, traced, overhead=wall[1] / wall[0] - 1.0)
    if spans_path is not None:
        tracer.save(spans_path)
    return Outcome(metrics, traced, problems,
                   {"untraced_wall_s": wall[0], "traced_wall_s": wall[1]})


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "visiplan_threads": os.environ.get("VISIPLAN_THREADS"),
        "commit": _commit(),
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None

