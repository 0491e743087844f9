import json
import math

import numpy as np
import pytest

from visiplan import sim
from visiplan.env import OccupancyGrid, build_esdf
from visiplan.search import raycast_occluded
from visiplan.sim import (HEATMAP_BIN, HEATMAP_WINDOW, ScenarioError,
                          WaypointScript, bundled_scenario, dumps_canonical,
                          generate_random_forest, in_fov, load_scenario,
                          random_target_script, run, scenario_from_dict,
                          write_outputs)


def mini_report(mode="visibility", seed=None):
    return run(load_scenario(bundled_scenario("mini"), mode=mode, seed=seed))


@pytest.fixture(scope="module")
def mini_vis():
    return mini_report()


class TestWaypointScript:
    def test_interpolation(self):
        s = WaypointScript([0.0, 2.0], [[0, 0, 0], [4.0, 0, 0]])
        assert np.allclose(s.at(1.0), [2.0, 0, 0])
        assert np.allclose(s.at(-1.0), [0, 0, 0])
        assert np.allclose(s.at(99.0), [4.0, 0, 0])

    def test_from_path_constant_speed(self):
        s = WaypointScript.from_path([[0, 0, 0], [3, 0, 0], [3, 4, 0]],
                                     speed=2.0, start_hold=1.0)
        assert s.end_time() == pytest.approx(1.0 + 1.5 + 2.0)
        assert np.allclose(s.at(0.5), [0, 0, 0])        # holding
        assert np.allclose(s.at(1.75), [1.5, 0, 0])

    def test_rejects_bad_times(self):
        with pytest.raises(ScenarioError):
            WaypointScript([0.0, 0.0], [[0, 0, 0], [1, 0, 0]])


class TestRandomTarget:
    def test_deterministic_and_clear(self):
        grid = generate_random_forest(3, (15, 15), 8, (0.3, 0.6),
                                      keep_clear=[[2, 7.5, 0]])
        esdf = build_esdf(grid, 5.0)
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        s1 = random_target_script(rng1, esdf, [2, 7.5, 0], 1.5, 20.0,
                                  [[1, 14], [1, 14], [0, 0]])
        s2 = random_target_script(rng2, esdf, [2, 7.5, 0], 1.5, 20.0,
                                  [[1, 14], [1, 14], [0, 0]])
        assert np.array_equal(s1.points, s2.points)
        for t in np.linspace(0, s1.end_time(), 120):
            assert esdf.distance_at(s1.at(t)) > 0.6


class TestForestGenerator:
    def test_zero_count_empty(self):
        grid = generate_random_forest(0, (10, 10), 0, (0.3, 0.5))
        assert not grid.occupancy.any()

    def test_deterministic(self):
        g1 = generate_random_forest(9, (12, 12), 10, (0.2, 0.5))
        g2 = generate_random_forest(9, (12, 12), 10, (0.2, 0.5))
        assert np.array_equal(g1.occupancy, g2.occupancy)

    def test_keep_clear(self):
        p = np.array([5.0, 5.0, 0.0])
        grid = generate_random_forest(4, (10, 10), 12, (0.3, 0.6),
                                      keep_clear=[p])
        esdf = build_esdf(grid, 5.0)
        assert esdf.distance_at(p) >= 1.0 - grid.resolution

    def test_density_matches_area(self):
        # sparse layout: overlap negligible, occupied fraction tracks the
        # analytic disc area
        rng = np.random.default_rng(0)
        frac_err = []
        for seed in range(5):
            r = 0.5
            count = 8
            grid = generate_random_forest(seed, (40, 40), count, (r, r))
            analytic = count * math.pi * r * r / (40.0 * 40.0)
            measured = grid.occupancy.mean()
            frac_err.append(abs(measured - analytic) / analytic)
        assert np.mean(frac_err) < 0.10


class TestInFov:
    GRID = OccupancyGrid.empty(0.5, (20, 20, 1))

    def test_straight_ahead(self):
        assert in_fov([1, 5, 0], 0.0, [4, 5, 0], 0.7, 0.55, self.GRID)

    def test_behind(self):
        assert not in_fov([5, 5, 0], 0.0, [2, 5, 0], 0.7, 0.55, self.GRID)

    def test_bearing_boundary(self):
        h = 0.7
        for sign, expect in ((h - 0.01, True), (h + 0.01, False)):
            target = [5 + 3 * math.cos(sign), 5 + 3 * math.sin(sign), 0]
            assert in_fov([5, 5, 0], 0.0, target, h, 0.55, self.GRID) is expect

    def test_occluded_not_in_fov(self):
        grid = OccupancyGrid.empty(0.5, (20, 20, 1))
        grid.occupancy[6, 10, 0] = True
        a = grid.center_of((2, 10, 0))
        b = grid.center_of((10, 10, 0))
        assert raycast_occluded(grid, a, b)
        assert not in_fov(a, 0.0, b, 0.7, 0.55, grid)


class TestScenarioLoading:
    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"map": {"dims": [4, 4, 1], "resolution": 0.5,
                                         "origin": [0, 0, 0], "occupied": []},
                                 "duration": 1.0}))
        with pytest.raises(ScenarioError, match="robot_start"):
            load_scenario(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_baseline_zeroes_visibility_weights(self):
        sc = load_scenario(bundled_scenario("mini"), mode="baseline")
        w = sc.effective_weights()
        assert w.w_do == w.w_ao == w.w_oe == w.w_v == 0.0
        assert w.w_s > 0.0

    def test_fov_degrees_to_half_radians(self):
        sc = load_scenario(bundled_scenario("mini"))
        assert sc.fov_h_half == pytest.approx(math.radians(40.0))
        assert sc.fov_v_half == pytest.approx(math.radians(32.5))

    def test_seed_override(self):
        sc = load_scenario(bundled_scenario("forest"), seed=77)
        assert sc.seed == 77

    def test_bundled_lookup_rejects_unknown(self):
        with pytest.raises(ScenarioError):
            bundled_scenario("nope")


class TestRun:
    def test_mini_tracks(self, mini_vis):
        assert mini_vis.termination == "completed"
        assert mini_vis.failure_time == pytest.approx(4.0)
        assert mini_vis.occlusion_events == 0
        assert mini_vis.max_psi_err() < math.radians(40.0)

    def test_static_target_steady_state(self):
        # open space, target sitting 3 m dead ahead: nothing is ever lost
        # and the pointing error settles out
        raw = {
            "map": {"resolution": 0.1, "origin": [0, 0, 0],
                    "dims": [100, 100, 1], "occupied": []},
            "robot_start": {"p": [2.0, 5.0, 0.0], "yaw": 0.0},
            "target": {"path": [[5.0, 5.0, 0.0]], "speed": 1.0},
            "duration": 5.0,
        }
        report = run(scenario_from_dict(raw))
        assert report.termination == "completed"
        assert report.failure_time == pytest.approx(5.0)
        tail = report.psi_err_series()[len(report.steps) // 2:]
        assert np.all(tail <= 1e-2)

    def test_metric_consistency_recomputable(self, mini_vis):
        sc = load_scenario(bundled_scenario("mini"))
        for s in mini_vis.steps:
            occ = raycast_occluded(sc.grid, s.p, s.target)
            assert occ == s.occluded
            fov = in_fov(s.p, s.yaw, s.target, sc.fov_h_half, sc.fov_v_half,
                         sc.grid)
            assert fov == s.in_fov
            assert not (s.in_fov and s.occluded)

    def test_heatmap_mass(self, mini_vis):
        assert mini_vis.heatmap.sum() == mini_vis.tracked_steps

    def test_replan_continuity(self):
        # consecutive committed trajectories agree on position/velocity/
        # acceleration at every handoff
        import visiplan.sim as sim_mod
        orig = sim_mod.optimize
        commits = []
        def spy(seed, track, *a, **k):
            res = orig(seed, track, *a, **k)
            commits.append(res.trajectory)
            return res
        sim_mod.optimize = spy
        try:
            sc = load_scenario(bundled_scenario("mini"))
            run(sc)
        finally:
            sim_mod.optimize = orig
        dt = sc.replan_period
        for prev, nxt in zip(commits[:-1], commits[1:]):
            p_prev, _ = prev.evaluate(dt)
            v_prev, _ = prev.evaluate_derivative(dt, 1)
            a_prev, _ = prev.evaluate_derivative(dt, 2)
            p_next, _ = nxt.evaluate(0.0)
            v_next, _ = nxt.evaluate_derivative(0.0, 1)
            a_next, _ = nxt.evaluate_derivative(0.0, 2)
            assert np.linalg.norm(p_prev - p_next) <= 1e-6
            assert np.linalg.norm(v_prev - v_next) <= 1e-6
            assert np.linalg.norm(a_prev - a_next) <= 1e-6

    def test_run_uses_the_scenarios_esdf(self, monkeypatch):
        sc = load_scenario(bundled_scenario("forest"), seed=3)
        assert sc.grid.occupancy.any()
        assert sc.esdf.grid is sc.grid
        assert sc.esdf.distance.tobytes() == \
            build_esdf(sc.grid, sc.d_trunc).distance.tobytes()
        sc.duration = 0.3

        def rebuild(*args):
            raise AssertionError("run built a second ESDF")
        monkeypatch.setattr(sim, "build_esdf", rebuild)
        assert run(sc).steps

    def test_deterministic_reports(self):
        r1 = mini_report()
        r2 = mini_report()
        assert dumps_canonical(r1.to_json_dict()) == \
            dumps_canonical(r2.to_json_dict())

    def test_planner_failure_when_boxed_in(self):
        # robot walled into a box with a single-cell window: the target is
        # visible through it but the goal annulus is unreachable, so the
        # first search exhausts with nothing committed
        grid = OccupancyGrid.empty(0.1, (80, 60, 1))
        grid.occupancy[20:41, 20, 0] = True
        grid.occupancy[20:41, 40, 0] = True
        grid.occupancy[20, 20:41, 0] = True
        grid.occupancy[40, 20:41, 0] = True
        grid.occupancy[40, 30, 0] = False        # see-through window
        raw = {
            "map": grid.to_json_dict(),
            "robot_start": {"p": [3.05, 3.05, 0.05], "yaw": 0.0},
            "target": {"path": [[7.55, 3.05, 0.05], [7.9, 3.05, 0.05]],
                       "speed": 0.2},
            "duration": 2.0,
            "search": {"max_expansions": 300},
        }
        sc = scenario_from_dict(raw)
        assert not raycast_occluded(sc.grid, [3.05, 3.05, 0.05],
                                    [7.55, 3.05, 0.05])
        report = run(sc)
        assert report.termination == "planner_failure"
        assert report.failure_time == 0.0

    def test_pose_noise_deterministic(self):
        sc1 = load_scenario(bundled_scenario("mini"))
        sc1.pose_noise_sigma = 0.01
        sc2 = load_scenario(bundled_scenario("mini"))
        sc2.pose_noise_sigma = 0.01
        r1, r2 = run(sc1), run(sc2)
        assert dumps_canonical(r1.to_json_dict()) == \
            dumps_canonical(r2.to_json_dict())


class TestOutputs:
    def test_write_outputs_files(self, mini_vis, tmp_path):
        paths = write_outputs(mini_vis, tmp_path)
        report = json.loads(paths["report"].read_text())
        assert "failure_time" in report
        assert report["termination"] == "completed"
        lines = paths["trace"].read_text().strip().split("\n")
        assert lines[0].startswith("t,x,y,z,yaw")
        assert len(lines) == len(mini_vis.steps) + 1
        hm = paths["heatmap"].read_text().strip().split("\n")
        assert len(hm) == int(HEATMAP_WINDOW / HEATMAP_BIN)

    def test_canonical_json_roundtrip(self, mini_vis):
        text = dumps_canonical(mini_vis.to_json_dict())
        parsed = json.loads(text)
        assert parsed["failure_time"] == mini_vis.failure_time
        assert parsed["tracked_steps"] == mini_vis.tracked_steps

    def test_canonical_float_17_digits(self):
        txt = dumps_canonical({"x": 0.1})
        assert txt == '{\n  "x": 0.1000000000000000056\n}' or "0.1" in txt
        assert json.loads(txt)["x"] == 0.1

    def test_canonical_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})
