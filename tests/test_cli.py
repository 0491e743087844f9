import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import visiplan
from visiplan.cli import main
from visiplan.costs import TERMS
from visiplan.sim import bundled_scenario


def _row(scenario, path, value, named, tag):
    """A row of `test_malformed_value_exits_2_naming_it` whose value is a
    list or an object, with an id that does not change when a row is added
    before it: built from its dotted path and a tag that tells apart the
    rows that inject at one path (the tags keep the names these rows had
    when their ids counted rows)."""
    return pytest.param(scenario, path, value, named,
                        id=f"{scenario}-{path}-{tag}-{named}")


@pytest.fixture(scope="module")
def mini_path():
    return str(bundled_scenario("mini"))


@pytest.fixture
def never_replans(tmp_path):
    """mini.json shortened below half a replan period: it flies no
    replan."""
    raw = json.loads(bundled_scenario("mini").read_text())
    raw["duration"] = 0.04
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestRunCommand:
    def test_writes_report_with_failure_time(self, mini_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", mini_path, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "failure_time" in report
        # an untraced run writes none of the planner's trace files
        assert sorted(path.name for path in out.iterdir()) == [
            "heatmap.csv", "report.json", "trace.csv"]

    def test_baseline_mode_echoes_zero_weights(self, mini_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", mini_path, "--out", str(out),
                     "--mode", "baseline"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        w = report["scenario"]["weights"]
        assert w["w_do"] == w["w_ao"] == w["w_oe"] == w["w_v"] == 0.0

    def test_deterministic_bytes(self, mini_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", mini_path, "--out", str(out1)]) == 0
        assert main(["run", "--scenario", mini_path, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == \
            (out2 / "trace.csv").read_bytes()

    def test_missing_scenario_exits_2(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_scenario_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 1.0, "map": {
            "dims": [4, 4, 1], "resolution": 0.5, "occupied": []}}))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "robot_start" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, named", [
        ("limits", "bogus", 1.0, "limits.bogus"),
        ("limits", "v_m", -1, "v_m"),
        (None, "duration", "ten", "duration"),
        ("robot_start", "p", "abc", "robot_start.p"),
        # JSON's NaN and Infinity, one field per config section
        ("limits", "v_m", math.nan, "v_m"),
        ("search", "max_expansions", math.nan, "max_expansions"),
        # integer fields hold integral numbers, and no field is a boolean
        ("search", "max_expansions", 10.5, "max_expansions"),
        ("search", "max_expansions", True, "max_expansions"),
        # deleted settings are unknown fields, in bounds or out of them; a
        # deleted section is named as a whole
        (None, "d_trunc", 5.0, "d_trunc"),
        (None, "horizon", 3.0, "horizon"),
        (None, "replan_period", 0.1, "replan_period"),
        (None, "num_control_points", 33, "num_control_points"),
        ("predict", "ridge", 1e-4, "predict.ridge"),
        ("search", "horizon_slack", 1.5, "search.horizon_slack"),
        (None, "weights", {"w_do": 20.0}, "weights"),
        (None, "params", {"od_min": 2.5}, "params"),
        (None, "optimizer", {"max_iterations": 20}, "optimizer"),
        (None, "d_trunc", -1, "d_trunc"),
        (None, "num_control_points", math.inf, "num_control_points"),
        (None, "num_control_points", 33.9, "num_control_points"),
        ("predict", "ridge", -math.inf, "predict.ridge"),
        ("search", "horizon_slack", 0, "horizon_slack"),
        ("search", "horizon_slack", math.nan, "horizon_slack"),
        ("search", "horizon_slack", -1, "search.horizon_slack"),
        ("search", "horizon_slack", 0.5, "search.horizon_slack"),
        (None, "weights", {"w_do": math.nan}, "weights"),
        (None, "params", {"rho": math.inf}, "params"),
        (None, "params", {"m_balls": 2.5}, "params"),
        (None, "params", {"od_max": 2.0}, "params"),
        (None, "optimizer", {"max_iterations": math.nan}, "optimizer"),
        (None, "optimizer", {"max_iterations": 2.5}, "optimizer"),
        ("search", "occlusion_check", "no", "occlusion_check"),
        ("search", "occlusion_check", 1, "search.occlusion_check"),
        ("search", "occlusion_check", False, "search.occlusion_check"),
        ("search", "guided", True, "search.guided"),
        (None, "optimizer", {"wall_clock_budget": None}, "optimizer"),
        ("search", "standoff", 3.0, "search.standoff"),
        ("search", "goal_tolerance", 0.5, "search.goal_tolerance"),
        ("search", "tau", 0.25, "search.tau"),
        ("search", "prune_resolution", 0.3, "search.prune_resolution"),
        ("search", "heuristic_weight", 2.5, "search.heuristic_weight"),
        ("search", "effort_weight", 0.25, "search.effort_weight"),
        ("search", "tau", 0, "tau"),
        ("search", "tau", math.nan, "tau"),
        ("search", "tau", -0.25, "search.tau"),
        ("search", "prune_resolution", 0, "search.prune_resolution"),
        ("search", "heuristic_weight", -1.0, "search.heuristic_weight"),
        ("search", "effort_weight", -0.1, "search.effort_weight"),
        (None, "pose_noise_sigma", math.nan, "pose_noise_sigma"),
        # unknown keys in the sections outside the config dataclasses
        (None, "horizn", 5.0, "horizn"),
        ("map", "bogus", 1.0, "map.bogus"),
        ("target", "bogus", 1.0, "target.bogus"),
        ("robot_start", "bogus", 1.0, "robot_start.bogus"),
        ("predict", "bogus", 1.0, "predict.bogus"),
        # the search field's own bound
        ("search", "max_expansions", 0, "search.max_expansions"),
    ])
    def test_invalid_field_exits_2_naming_it(self, mini_path, tmp_path,
                                             capsys, section, key, value,
                                             named):
        raw = json.loads(open(mini_path).read())
        (raw.setdefault(section, {}) if section else raw)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        if section:
            assert f"'{section}.{key}'" in err

    @pytest.mark.parametrize("scenario, path, value, named", [
        _row("mini", "target.path", [["a", 1, 0], [8.0, 7.5, 0.0]],
             "target.path", "value0"),
        _row("mini", "target.path", [[4.0, 6.0], [8.0, 7.5]], "target.path",
             "value1"),
        # timed waypoints are a deleted target kind, so their key is unknown
        _row("mini", "target", {"waypoints": [[0.0, 4.0, 6.0, 0.0],
                                              [1.0, "x", 6.0, 0.0]]},
             "target.waypoints", "value2"),
        ("forest", "map.generator.area", "big", "map.generator.area"),
        ("mini", "target.speed", 0, "target.speed"),
        ("mini", "replan_period", 0, "replan_period"),
        ("mini", "num_control_points", 3, "num_control_points"),
        _row("forest", "map.generator.radius_range", [0.5],
             "map.generator.radius_range", "value7"),
        ("mini", "duration", -1, "duration"),
        _row("mini", "map.dims", [10, 10], "map.dims", "value9"),
        _row("mini", "map.dims", ["a", 10, 1], "map.dims", "value10"),
        ("mini", "map.resolution", "x", "map.resolution"),
        _row("mini", "map.occupied", [["a", 1, 0]], "map.occupied",
             "value12"),
        _row("mini", "map.occupied", [[1, 0]], "map.occupied", "value13"),
        ("case1", "map.resolution", "x", "map.resolution"),
        _row("forest", "map.generator.area", [-20, 20],
             "map.generator.area", "value15"),
        # unknown keys in the sections only a forest scenario has
        ("forest", "map.generator.bogus", 1.0, "map.generator.bogus"),
        ("forest", "target.random.start_hold", 1.0,
         "target.random.start_hold"),
        _row("case1", "map.dims", [10, 10, 1], "map.dims", "value22"),
        # a random walk that could never start, or a negative clearance
        _row("forest", "target.random.bounds",
             [[18.5, 1.5], [1.5, 18.5], [0.0, 0.0]], "target.random.bounds",
             "value23"),
        _row("forest", "target.random.start", [0.5, 10.0, 0.0],
             "target.random.start", "value24"),
        ("forest", "target.random.clearance", -0.1,
         "target.random.clearance"),
        ("forest", "map.generator.clearance", -0.5,
         "map.generator.clearance"),
        # values that crashed or ran, or a message that named no field
        ("mini", "seed", -1, "seed"),
        ("forest", "map.generator.kind", "rocks", "map.generator.kind"),
        ("mini", "predict.degree", -1, "predict.degree"),
        ("mini", "predict.window", -1.0, "predict.window"),
        ("mini", "predict.v_max", -1.0, "predict.v_max"),
        ("mini", "target.start_hold", -1.0, "target.start_hold"),
        # seeds of their own are deleted settings, so unknown fields
        ("forest", "map.generator.seed", -1, "map.generator.seed"),
        ("forest", "target.random.seed", -1, "target.random.seed"),
        # fields no row above covers
        ("mini", "horizon", 0, "horizon"),
        ("forest", "search_horizon", -1.0, "search_horizon"),
        ("forest", "map.generator.count", 2.5, "map.generator.count"),
        ("forest", "map.generator.resolution", 0, "map.generator.resolution"),
        ("forest", "target.random.speed", 0, "target.random.speed"),
        # a string or boolean grid resolution, a negative ridge
        ("mini", "map.resolution", "0.1", "map.resolution"),
        ("mini", "map.resolution", True, "map.resolution"),
        ("mini", "predict.ridge", -1.0, "predict.ridge"),
        # an ASCII grid file needs a resolution; waypoints are unknown even
        # when well formed
        _row("case1", "map", {"file": "case1_map.txt"}, "map.resolution",
             "value46"),
        _row("mini", "target", {"waypoints": [[0.0, 4.0, 6.0, 0.0],
                                              [0.0, 5.0, 6.0, 0.0]]},
             "target.waypoints", "value47"),
        # a finite duration whose step count overflows, and finite values
        # that crashed or hung a run: a search horizon past the spline's or
        # past what the expansion budget reaches, and deleted settings
        ("mini", "duration", 1e308, "duration"),
        ("mini", "replan_period", 1e-320, "replan_period"),
        ("mini", "horizon", 1e308, "horizon"),
        ("mini", "search_horizon", 1e308, "search_horizon"),
        ("mini", "search.horizon_slack", 1e308, "search.horizon_slack"),
        ("mini", "search_horizon", 1e300, "search_horizon"),
        ("mini", "search_horizon", 4.0, "search_horizon"),
        ("mini", "search.max_expansions", 5, "search.max_expansions"),
        ("mini", "horizon", 1e300, "horizon"),
        ("mini", "horizon", 1e-40, "horizon"),
        ("mini", "search.horizon_slack", 1e300, "search.horizon_slack"),
        ("mini", "num_control_points", 1e7, "num_control_points"),
        # a finite limit whose square overflows: the costs and the search
        # square every limit
        ("mini", "limits.v_m", 1e200, "limits.v_m"),
        ("mini", "limits.a_m", 1e200, "limits.a_m"),
        # the search sums a_m squared over up to three axes
        ("mini", "limits.a_m", 1.3e154, "limits.a_m"),
        # grids past the cell budget, refused before they are built; the
        # last one once crashed numpy with a side of 1e301 cells
        _row("mini", "map.dims", [5000, 5000, 1], "map.dims", "budget"),
        _row("forest", "map.generator.area", [1e300, 20],
             "map.generator.area", "huge"),
        # the values every mission flies at one setting are constants, so
        # their keys are unknown fields at that setting or any other, even
        # a generator resolution fine enough to break the cell budget
        _row("mini", "fov_h_deg", 80.0, "fov_h_deg", "removed"),
        _row("mini", "fov_v_deg", 65.0, "fov_v_deg", "removed"),
        _row("mini", "limits.v_phi_m", 3.0, "limits.v_phi_m", "removed"),
        _row("mini", "limits.a_phi_m", 6.0, "limits.a_phi_m", "removed"),
        _row("mini", "limits.d_thr", 0.4, "limits.d_thr", "removed"),
        _row("mini", "limits.psi_thr", 0.6, "limits.psi_thr", "removed"),
        _row("case1", "map.origin", [0, 0, 0], "map.origin", "removed"),
        _row("mini", "map.origin", [0, 0, 0], "map.origin", "removed"),
        _row("forest", "map.generator.resolution", 0.1,
             "map.generator.resolution", "removed"),
        ("mini", "robot_start.yaw", "north", "robot_start.yaw"),
        ("mini", "fov_h_deg", 200, "fov_h_deg"),
        ("mini", "fov_v_deg", 0, "fov_v_deg"),
        ("mini", "limits.v_phi_m", 1e200, "limits.v_phi_m"),
        ("mini", "limits.a_phi_m", 1e200, "limits.a_phi_m"),
        ("mini", "limits.d_thr", 1e200, "limits.d_thr"),
        ("mini", "limits.psi_thr", 1e200, "limits.psi_thr"),
        _row("mini", "map.origin", [0, 0], "map.origin", "value16"),
        _row("case1", "map.origin", [0, 0], "map.origin", "value17"),
        _row("mini", "map.origin", [0, float("nan"), 0], "map.origin",
             "value18"),
        _row("case1", "map.origin", [0, float("nan"), 0], "map.origin",
             "value19"),
        ("forest", "map.generator.resolution", 1e-3,
         "map.generator.resolution"),
    ])
    def test_malformed_value_exits_2_naming_it(self, tmp_path, capsys,
                                               scenario, path, value, named):
        raw = json.loads(bundled_scenario(scenario).read_text())
        if "file" in raw["map"]:
            # so that the injected value is the only fault
            shutil.copy(bundled_scenario(scenario).parent / raw["map"]["file"],
                        tmp_path)
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{named}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_limit_with_a_finite_square_flies(self, tmp_path):
        raw = json.loads(bundled_scenario("mini").read_text())
        raw["duration"] = 0.3
        raw["limits"] = {"v_m": 1.3e154}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_search_limit_with_a_finite_square_flies(self, tmp_path):
        """The largest `a_m` the loader admits flies with no overflow."""
        raw = json.loads(bundled_scenario("mini").read_text())
        raw["duration"] = 0.3
        raw["limits"] = {"a_m": 7.7e153}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", str(path),
                         "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("resolution", [1e-9, 5e-324])
    def test_start_a_billion_cells_off_the_map_flies(self, tmp_path,
                                                     resolution):
        """At a 1e-9 m resolution mini's start and target lie about 1e9
        cells off its grid, and at 5e-324 m every cell coordinate is
        infinite. A ray that misses the grid is clear without a walk over
        those cells, so the mission completes; it runs in a child process,
        so that a hang fails on the timeout."""
        raw = json.loads(bundled_scenario("mini").read_text())
        raw["duration"] = 0.3
        raw["map"]["resolution"] = resolution
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "visiplan.cli", "run", "--scenario",
             str(path), "--out", str(out)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] == "completed"

    def test_map_file_past_the_cell_budget_names_it(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario("case1").read_text())
        raw["map"]["file"] = "big.txt"
        (tmp_path / "big.txt").write_text(("." * 2049 + "\n") * 2048)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cannot load map 'big.txt': dims must hold at most" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_option_exits_2(self, mini_path, tmp_path, capsys):
        code = main(["run", "--scenario", mini_path, "--seed", "-1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'seed' must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_generator_area_below_one_cell(self, tmp_path, capsys):
        raw = json.loads(bundled_scenario("forest").read_text())
        raw["map"]["generator"]["area"] = [0.01, 20]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'map.generator.area': area must span at least one cell" \
            in err
        assert "dims" not in err

    def test_dump_flags(self, mini_path, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", mini_path, "--out", str(out),
                     "--planner-traces"])
        assert code == 0
        costs = json.loads((out / "costs.json").read_text())
        assert costs and {"t", "costs"} <= set(costs[0])
        assert set(costs[0]["costs"]) >= {"J_do", "J_oe", "total"}
        opt_trace = (out / "opt_trace.csv").read_text().splitlines()
        assert opt_trace[0].startswith("t,iteration,J_do") and opt_trace[1:]
        search_trace = (out / "search_trace.csv").read_text().splitlines()
        assert search_trace[0].startswith("t,x,y,z") and search_trace[1:]

    def test_traced_run_that_never_replans(self, never_replans, tmp_path):
        """The trace files hold no record, and each CSV keeps its
        header."""
        out = tmp_path / "out"
        assert main(["run", "--scenario", never_replans, "--out", str(out),
                     "--planner-traces"]) == 0
        assert (out / "costs.json").read_text() == "[]\n"
        columns = [term.column for term in TERMS] + ["total"]
        assert (out / "opt_trace.csv").read_text() == \
            "t,iteration," + ",".join(columns) + "\n"
        assert (out / "search_trace.csv").read_text() == \
            "t,x,y,z,vx,vy,vz,cost\n"

    def test_unwritable_out_exits_2(self, never_replans, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--scenario", never_replans,
                     "--out", str(blocker / "out"), "--planner-traces"])
        assert code == 2
        assert capsys.readouterr().err.startswith("visiplan: io error")


class TestBenchCommand:
    def test_one_seed_both_modes(self, mini_path, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", "5"])
        assert code == 0
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["mode"] for r in rows} == {"visibility", "baseline"}
        for r in rows:
            float(r["failure_time"])
            int(r["occlusion_events"])
        printed = capsys.readouterr().out
        assert "mean_failure_time" in printed

    def test_empty_seed_list(self, mini_path, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", ""])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("seed,mode,failure_time")

    def test_unwritable_summary_exits_2(self, mini_path, tmp_path, capsys):
        out = tmp_path / "bench"
        (out / "summary.csv").mkdir(parents=True)
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", ""])
        assert code == 2
        assert capsys.readouterr().err.startswith("visiplan: io error")

    def test_bad_template_aborts(self, tmp_path):
        code = main(["bench", "--scenario", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "b"), "--seeds", "1,2"])
        assert code == 2

    @pytest.mark.parametrize("seeds, threads, named, bad", [
        ("1,x", None, "--seeds", "'x'"),
        ("1.5", None, "--seeds", "'1.5'"),
        ("1", "abc", "VISIPLAN_THREADS", "'abc'"),
        # a bad seed after a good one: nothing flies, nothing is written
        ("5,-1", None, "'seed'", "-1"),
    ])
    def test_malformed_seeds_or_threads_exit_2(self, mini_path, tmp_path,
                                               capsys, monkeypatch, seeds,
                                               threads, named, bad):
        if threads is None:
            monkeypatch.delenv("VISIPLAN_THREADS", raising=False)
        else:
            monkeypatch.setenv("VISIPLAN_THREADS", threads)
        out = tmp_path / "bench"
        code = main(["bench", "--scenario", mini_path, "--out", str(out),
                     "--seeds", seeds])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("visiplan:") and named in err and bad in err
        assert not out.exists()

    def test_pool_writes_what_one_process_writes(self, mini_path, tmp_path,
                                                 monkeypatch):
        written = []
        for workers in ("1", "2"):
            monkeypatch.setenv("VISIPLAN_THREADS", workers)
            out = tmp_path / f"workers{workers}"
            assert main(["bench", "--scenario", mini_path, "--out", str(out),
                         "--seeds", "1,2"]) == 0
            written.append({path.relative_to(out).as_posix():
                            path.read_bytes()
                            for path in out.rglob("*") if path.is_file()})
        assert {"summary.csv", "seed2_baseline/report.json"} <= set(written[0])
        assert written[0] == written[1]


def _subprocess_env(**extra) -> dict:
    """The environment with `extra` set and this checkout's package first
    on the import path."""
    src = str(Path(visiplan.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def test_run_writes_the_same_bytes_under_two_blas_threads(mini_path,
                                                          tmp_path):
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "visiplan.cli", "run", "--scenario",
             mini_path, "--out", str(out), "--planner-traces"],
            env=_subprocess_env(OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written.append({path.name: path.read_bytes()
                        for path in out.iterdir()})
    assert set(written[0]) == {"report.json", "trace.csv", "heatmap.csv",
                               "costs.json", "opt_trace.csv",
                               "search_trace.csv"}
    assert written[0] == written[1]


def test_runtime_imports_no_scipy(tmp_path):
    """The planner and the CLI run on numpy alone, and without numpy's
    random package or a process pool: a fresh interpreter that flies a
    short random forest through `sim.run` and `visiplan run` on a short
    mini.json has loaded no scipy, `numpy.random` or
    `concurrent.futures.process` module. (This process cannot tell: test
    modules import them.)"""
    scenarios = {}
    for name in ("forest", "mini"):
        raw = json.loads(bundled_scenario(name).read_text())
        raw["duration"] = 0.3
        scenarios[name] = tmp_path / f"{name}.json"
        scenarios[name].write_text(json.dumps(raw))
    script = (
        "import sys\n"
        "from visiplan import cli, sim\n"
        f"sim.run(sim.load_scenario({str(scenarios['forest'])!r}))\n"
        f"code = cli.main(['run', '--scenario', {str(scenarios['mini'])!r},"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith(('numpy.random', 'concurrent.futures.process'))))"
    )
    done = subprocess.run([sys.executable, "-c", script],
                          env=_subprocess_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "report.json").exists()
