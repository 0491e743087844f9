import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visiplan import sim
from visiplan.costs import CostWeights, DynamicLimits, VisibilityParams
from visiplan.env import FieldError, OccupancyGrid, build_esdf
from visiplan.optimizer import OptimizerConfig
from visiplan.rng import Rng
from visiplan.search import TAU, SearchConfig, raycast_occluded
from visiplan.sim import (HEATMAP_BIN, HEATMAP_WINDOW, Scenario,
                          ScenarioError, WaypointScript, _cone_contains,
                          bundled_scenario, dumps_canonical,
                          generate_random_forest, load_scenario,
                          random_target_script, run, scenario_from_dict,
                          write_outputs)


def in_fov(robot_p, yaw, target_p, fov_h_half, fov_v_half, grid):
    """The simulator's visibility test: the target lies inside the
    yaw-aligned cone and the ray to it is not occluded."""
    return _cone_contains(robot_p, yaw, target_p, fov_h_half, fov_v_half) \
        and not raycast_occluded(grid, robot_p, target_p)


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
        assert s.times[-1] == pytest.approx(1.0 + 1.5 + 2.0)
        assert np.allclose(s.at(0.5), [0, 0, 0])        # holding
        assert np.allclose(s.at(1.75), [1.5, 0, 0])

    @settings(max_examples=200)
    @given(start=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
           steps=st.lists(st.one_of(
               st.just([0.0, 0.0, 0.0]),                # a repeated point
               st.sampled_from([[5e-16, 0.0, 0.0], [0.0, -5e-16, 0.0]]),
               st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)),
               max_size=8),
           speed=st.floats(1e-300, 1e300),
           start_hold=st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    def test_from_path_times_increase(self, start, steps, speed, start_hold):
        """Whatever the path, every kept point gets one time, and the times
        increase strictly: the script needs no check of its own."""
        pts = [np.array(start)]
        for step in steps:
            pts.append(pts[-1] + step)
        script = WaypointScript.from_path(pts, speed, start_hold)
        assert script.times.shape == (script.points.shape[0],)
        assert script.times[0] == 0.0
        assert (np.diff(script.times) > 0).all()

    @pytest.mark.parametrize("tail", [[4.0, 6.0, 0.0], [4 + 5e-16, 6.0, 0.0]])
    def test_path_skips_a_leg_too_short_to_advance_time(self, tail):
        # the last leg is zero, or shorter than the float spacing of its end
        # time; either way the script ends where the leg before it ends
        raw = json.loads(bundled_scenario("mini").read_text())
        raw["target"] = {"path": [[4, 6, 0], [10, 6, 0], [4, 6, 0], tail]}
        script = scenario_from_dict(raw).target
        assert script.times.tolist() == [0.0, 6.0, 12.0]
        assert script.points.tolist() == [[4, 6, 0], [10, 6, 0], [4, 6, 0]]


class TestRandomTarget:
    def test_deterministic_and_clear(self):
        grid = generate_random_forest(3, (15, 15), 8, (0.3, 0.6),
                                      keep_clear=[[2, 7.5, 0]])
        esdf = build_esdf(grid, 5.0)
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        s1 = random_target_script(rng1, esdf, [2, 7.5, 0], 1.5, 20.0,
                                  [[1, 14], [1, 14], [0, 0]], clearance=0.6)
        s2 = random_target_script(rng2, esdf, [2, 7.5, 0], 1.5, 20.0,
                                  [[1, 14], [1, 14], [0, 0]], clearance=0.6)
        assert np.array_equal(s1.points, s2.points)
        for t in np.linspace(0, s1.times[-1], 120):
            assert esdf.distance_at(s1.at(t)) > 0.6


class TestBuildersNameBadArguments:
    """The forest generator and both target-script builders check their
    own arguments: a bad one is a FieldError that names it."""

    @pytest.mark.parametrize("bad", [
        {"radius_range": (-0.5, -0.2)}, {"radius_range": (0.5, 0.2)},
        {"area": (0.01, 20)}, {"area": (20, -20)}, {"area": (1e300, 20)},
        {"area": (math.nan, 20)}, {"count": -1}, {"clearance": -0.5}])
    def test_forest(self, bad):
        args = {"seed": 0, "area": (20, 20), "count": 4,
                "radius_range": (0.3, 0.5), "clearance": 1.0, **bad}
        [name] = bad
        with pytest.raises(FieldError, match=f"^{name} must ") as e:
            generate_random_forest(**args)
        assert e.value.field == name

    @pytest.mark.parametrize("bad", [
        {"bounds": [[18.5, 1.5], [1.5, 18.5], [0.0, 0.0]]},
        {"start": [0.5, 10.0, 0.0]}, {"speed": 0.0}, {"speed": -1.0},
        {"clearance": -0.1}])
    def test_random_walk(self, bad):
        esdf = build_esdf(OccupancyGrid.empty(0.1, (200, 200, 1)), 5.0)
        args = {"start": [3.0, 3.0, 0.0], "speed": 1.5, "duration": 10.0,
                "bounds": [[1.5, 18.5], [1.5, 18.5], [0.0, 0.0]],
                "clearance": 0.6, **bad}
        [name] = bad
        with pytest.raises(FieldError, match=f"^{name} must ") as e:
            random_target_script(Rng(1), esdf, **args)
        assert e.value.field == name

    @pytest.mark.parametrize("bad", [{"speed": 0.0}, {"start_hold": -1}])
    def test_path(self, bad):
        args = {"speed": 1.0, "start_hold": 0.0, **bad}
        [name] = bad
        with pytest.raises(FieldError, match=f"^{name} must ") as e:
            WaypointScript.from_path([[0, 0, 0], [1, 0, 0]], **args)
        assert e.value.field == name


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
        a, b = grid.origin + (np.array([[2, 10, 0], [10, 10, 0]]) + 0.5) \
            * grid.resolution
        assert raycast_occluded(grid, a, b)
        assert not in_fov(a, 0.0, b, 0.7, 0.55, grid)


class TestScenarioLoading:
    def test_missing_field_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"map": {"dims": [4, 4, 1], "resolution": 0.5,
                                         "occupied": []},
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

    @settings(max_examples=150)
    @given(data=st.data())
    def test_config_field_bound_is_the_dataclass_bound(self, data):
        """A config section's settable field accepts a value exactly when
        its dataclass does, and a rejection names the section and the
        field; a budget too small to reach mini's 3 s search horizon in
        `TAU` depths is rejected too."""
        section, cls, key = data.draw(st.sampled_from(
            [("limits", DynamicLimits, "v_m"), ("limits", DynamicLimits, "a_m"),
             ("search", SearchConfig, "max_expansions")]), label="field")
        value = data.draw(st.one_of(
            st.just(getattr(cls(), key)), st.sampled_from(
                [0, 0.0, -1, -0.5, 0.5, 2.5, True, False, math.nan]),
            st.floats(-10.0, 10.0), st.integers(-10, 20)), label="value")
        raw = json.loads(bundled_scenario("mini").read_text())
        raw[section] = {**raw.get(section, {}), key: value}
        try:
            cls(**raw[section])
        except FieldError as e:
            assert e.field == key
            with pytest.raises(ScenarioError) as info:
                scenario_from_dict(raw)
            assert f"'{section}.{e.field}'" in str(info.value)
        else:
            if section == "search" and value * TAU < Scenario.horizon:
                with pytest.raises(ScenarioError,
                                   match="'search.max_expansions'"):
                    scenario_from_dict(raw)
                return
            loaded = scenario_from_dict(raw)
            config = getattr(loaded, {"search": "search_config"}
                             .get(section, section))
            assert getattr(config, key) == value

    def test_integral_float_loads_as_int(self):
        raw = json.loads(bundled_scenario("mini").read_text())
        raw["search"] = {"max_expansions": 4000.0}
        value = scenario_from_dict(raw).search_config.max_expansions
        assert type(value) is int and value == 4000

    def test_planner_settings_are_constants_not_fields(self):
        """A Scenario's fields are what the loader fills from a file, the
        mode and the seed; the planner's fixed settings are class constants
        that every scenario reads alike and no caller can set."""
        assert [f.name for f in dataclasses.fields(Scenario)] == [
            "name", "esdf", "start", "target", "duration",
            "search_horizon", "seed", "limits", "search_config",
            "predict_degree", "predict_window", "predict_v_max", "mode"]
        flown = {"fov_h_half": math.radians(40.0),
                 "fov_v_half": math.radians(32.5),
                 "replan_period": 0.1, "horizon": 3.0,
                 "num_control_points": 33, "d_trunc": 5.0,
                 "predict_ridge": 1e-4, "params": VisibilityParams(),
                 "weights": CostWeights()}
        sc = load_scenario(bundled_scenario("mini"))
        for name, value in flown.items():
            assert getattr(Scenario, name) == value
            assert getattr(sc, name) == value
            with pytest.raises(TypeError):
                dataclasses.replace(sc, **{name: value})
        with pytest.raises(TypeError):
            dataclasses.replace(sc, optimizer_config=OptimizerConfig())
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.params.od_min = 1.0

    @pytest.mark.parametrize("name", ["case1", "case2", "mini", "forest"])
    def test_defaults_are_the_flown_values(self, name):
        """A bundled scenario states only what differs from the defaults:
        dropping any one of its keys makes it fail to load, or changes the
        scenario it loads under its own seed or one of 31 others (a forest's
        obstacle clearance shows only in some draws). Only forest's search
        budget and each file's speed and acceleration bounds differ in the
        config sections."""
        path = bundled_scenario(name)
        raw = json.loads(path.read_text())
        sc = load_scenario(path)
        assert sc.search_config == (SearchConfig(max_expansions=1200)
                                    if name == "forest" else SearchConfig())
        assert sc.limits == DynamicLimits(v_m=raw["limits"]["v_m"],
                                          a_m=raw["limits"]["a_m"])
        seeds = [None, *range(1, 32)]
        flown = [pickle.dumps(load_scenario(path, seed=s)) for s in seeds]

        def keys(section, prefix=()):
            for key, value in section.items():
                yield prefix + (key,)
                if isinstance(value, dict):
                    yield from keys(value, prefix + (key,))

        def changes(smaller):
            for seed, want in zip(seeds, flown):
                try:
                    loaded = scenario_from_dict(smaller, base_dir=path.parent,
                                                seed=seed)
                except ScenarioError:
                    return True
                if pickle.dumps(loaded) != want:
                    return True
            return False

        for dotted in keys(raw):
            smaller = copy.deepcopy(raw)
            section = smaller
            for key in dotted[:-1]:
                section = section[key]
            del section[dotted[-1]]
            assert changes(smaller), \
                f"{name}.json restates the default of {'.'.join(dotted)}"

    @pytest.mark.parametrize("mode", ["visibility", "baseline"])
    @pytest.mark.parametrize("name, full_name, seed, duration, v_m, a_m", [
        ("case1", "case1_two_corners", 1, 19.0, 2.5, 4.0),
        ("case2", "case2_zigzag", 2, 17.0, 3.0, 5.0),
        ("mini", "mini_open", 5, 4.0, 2.5, 4.0),
        ("forest", "random_forest", 0, 30.0, 3.0, 5.0)])
    def test_config_echo_is_frozen(self, name, full_name, seed, duration,
                                   v_m, a_m, mode):
        """The report's echo of every bundled scenario, in key order,
        against literal values: the field of view, the limits, the weights
        and the params are the ones every mission flies."""
        w_do, w_ao, w_oe, w_v = (20.0, 10.0, 20.0, 2.0) \
            if mode == "visibility" else (0.0, 0.0, 0.0, 0.0)
        want = {
            "name": full_name, "mode": mode, "seed": seed,
            "duration": duration, "replan_period": 0.1, "horizon": 3.0,
            "num_control_points": 33,
            "fov_h_half_rad": 0.6981317007977318,
            "fov_v_half_rad": 0.5672320068981571,
            "weights": {"w_do": w_do, "w_ao": w_ao, "w_oe": w_oe,
                        "w_f": 0.1, "w_f_phi": 0.1, "w_s": 1e-05,
                        "w_s_phi": 0.0001, "w_c": 100.0, "w_v": w_v},
            "limits": {"v_m": v_m, "a_m": a_m, "v_phi_m": 3.0,
                       "a_phi_m": 6.0, "d_thr": 0.4, "psi_thr": 0.6},
            "params": {"od_min": 2.5, "od_max": 3.5, "rho": 0.8,
                       "m_balls": 10},
        }
        echo = load_scenario(bundled_scenario(name), mode=mode).config_echo()
        assert echo == want
        assert dumps_canonical(echo) == dumps_canonical(want)


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
            "map": {"resolution": 0.1, "dims": [100, 100, 1],
                    "occupied": []},
            "robot_start": {"p": [2.0, 5.0, 0.0]},
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
        # the ESDF holds the map, so no copy can pair it with another grid
        with pytest.raises(TypeError):
            dataclasses.replace(sc, grid=OccupancyGrid.empty(0.1, (2, 2, 1)))
        with pytest.raises(AttributeError):
            sc.grid = sc.grid
        sc.duration = 0.3

        def rebuild(*args):
            raise AssertionError("run built a second ESDF")
        monkeypatch.setattr(sim, "build_esdf", rebuild)
        assert run(sc).steps

    @pytest.mark.parametrize("mode", ["visibility", "baseline"])
    @pytest.mark.parametrize("name", ["case1", "case2", "mini", "forest"])
    def test_bundled_runs_raise_no_runtime_warning(self, name, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sc = load_scenario(bundled_scenario(name), mode=mode)
            sc.duration = 2.0
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
            "map": {"resolution": grid.resolution, "dims": list(grid.dims),
                    "occupied": grid.occupied_cells().tolist()},
            "robot_start": {"p": [3.05, 3.05, 0.05]},
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


# finite floats with the edges a writer can lose: the sign of zero, the
# smallest subnormal, the largest magnitudes and integral values
json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 20.0, -3.0, 1e16]),
    st.integers(-2 ** 53, 2 ** 53).map(float))
json_keys = st.text(alphabet=st.sampled_from('ab"\\/\n\u00e9'), max_size=4)
json_values = st.recursive(
    st.one_of(json_floats, st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=20)


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

    @settings(max_examples=200)
    @given(obj=json_values)
    @example(obj={'"q\\': [-0.0, 5e-324, 1e308, 20.0, 0.1, 0, "s"]})
    def test_canonical_reads_back_as_itself(self, obj):
        # a float's repr names its bits (and the sign of zero), an int's
        # repr differs from the equal float's, and a dict's keeps key order
        assert repr(json.loads(dumps_canonical(obj))) == repr(obj)

    def test_canonical_rejects_nan(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                dumps_canonical({"x": bad})
