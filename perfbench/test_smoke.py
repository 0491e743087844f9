"""Smoke test of the benchmark itself: a shortened `mini` mission through the
untraced and the traced path, plus the command line's refusals.

    python3 -m pytest -q perfbench/test_smoke.py     (from the repo root)
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from perfbench import harness  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.tracer import COST_TERMS, SIM_HOOKS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def mini_missions(duration: float = 1.5):
    raw = json.loads(harness.vp_sim.bundled_scenario("mini").read_text())
    raw["duration"] = duration
    return [harness.Mission(0, 5, "visibility", raw)]


def assert_metrics(metrics: dict, declared: list):
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_declared_names_match_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(harness.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} \
        == PER_LAYER


def test_untraced_mini_mission():
    outcome = harness.measure(mini_missions())
    assert outcome.correct, outcome.problems
    assert outcome.failed == 0
    assert_metrics(outcome.metrics, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in outcome.metrics.values())


def test_mission_that_raises_fails_the_run():
    good = mini_missions()[0]
    broken = dict(good.raw)
    del broken["duration"]
    outcome = harness.measure([good, harness.Mission(1, 6, "visibility",
                                                     broken)])
    assert not outcome.correct
    assert any("did not finish" in p for p in outcome.problems)
    assert outcome.failed == 1
    assert outcome.metrics["mission_ok_frac"]["value"] == 0.5


def test_traced_mini_mission_matches_untraced():
    outcome = harness.trace(mini_missions())
    assert outcome.correct, outcome.problems      # includes fingerprints
    assert_metrics(outcome.metrics, BENCH["per_layer"])
    m = {k: v["value"] for k, v in outcome.metrics.items()}
    assert m["optimizer.calls"] >= 10 and m["search.calls"] >= 1
    assert m["optimizer.solve.calls"] > 0 and m["costs.do_us_mean"] > 0
    assert m["env.distance_and_gradient.points"] > 0
    assert m["trace.stage_coverage"] >= 0.95


def test_tracer_restores_every_hook():
    before = {(mod, attr): getattr(importlib.import_module(mod), attr)
              for mod, attr, _ in SIM_HOOKS}
    costs = importlib.import_module("visiplan.costs")
    terms = {t: getattr(costs, f"cost_{t}") for t in COST_TERMS}
    esdf = importlib.import_module("visiplan.env").ESDFField
    query = esdf.distance_at
    harness.trace(mini_missions(duration=0.3))
    for (mod, attr), fn in before.items():
        assert getattr(importlib.import_module(mod), attr) is fn
    assert all(getattr(costs, f"cost_{t}") is fn for t, fn in terms.items())
    assert esdf.distance_at is query


def test_missions_depend_on_seed_only():
    a = harness.missions_for(harness.WORKLOADS["forest"], 3, 10)
    b = harness.missions_for(harness.WORKLOADS["forest_blind"], 3, 10)
    c = harness.missions_for(harness.WORKLOADS["forest"], 4, 10)
    assert [m.seed for m in a] == [m.seed for m in b[:len(a)]]
    assert not {m.seed for m in a} & {m.seed for m in c}


def _run_cli(cwd: Path, env_extra: dict) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forest",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_thread_pool():
    proc = _run_cli(ROOT, {"VISIPLAN_THREADS": "2"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, {"PYTHONPATH": ""})
    assert proc.returncode != 0 and proc.stdout == ""
