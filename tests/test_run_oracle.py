"""Oracle tests: `run` against the simulator loop it replaced.

`reference_run` is `run` as it was before the replan pipeline moved into
`Planner`, kept verbatim (only renamed, without the pose noise of the since
deleted `pose_noise_sigma`, which no scenario set, passing the
occlusion check as a flag, which the search config no longer holds, and
keeping the target's observations in two lists cut to the prediction
window, the rows the deleted observation buffer and the fit's window kept)
together with its path check and rotation helper; `reference_config_echo`
is the scenario echo as it was before the weight keys came from the
cost-term table. The simulator must record the same steps, report and
traces bit for bit, in both modes. The reference keeps its three trace
lists beside the report; the simulator's are built from its replan records.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from visiplan import optimizer, sim
from visiplan.env import OccupancyGrid, build_esdf
from visiplan.optimizer import OptimizerConfig, optimize
from visiplan.predict import fit, predict_track
from visiplan.search import (GOAL_TOLERANCE, SearchError, raycast_occluded,
                             search)
from visiplan.sim import (HEATMAP_BIN, HEATMAP_WINDOW, RunReport, Scenario,
                          StepRecord, _cone_contains, bundled_scenario,
                          dumps_canonical, load_scenario, run)
from visiplan.spline import initialize_from_path, wrap_angle


def reference_config_echo(self) -> dict:
    w = self.effective_weights()
    return {
        "name": self.name,
        "mode": self.mode,
        "seed": self.seed,
        "duration": self.duration,
        "replan_period": self.replan_period,
        "horizon": self.horizon,
        "num_control_points": self.num_control_points,
        "fov_h_half_rad": self.fov_h_half,
        "fov_v_half_rad": self.fov_v_half,
        "weights": {k: getattr(w, k) for k in
                    ("w_do", "w_ao", "w_oe", "w_f", "w_f_phi", "w_s",
                     "w_s_phi", "w_c", "w_v")},
        "limits": {k: getattr(self.limits, k) for k in
                   ("v_m", "a_m", "v_phi_m", "a_phi_m", "d_thr", "psi_thr")},
        "params": {k: getattr(self.params, k) for k in
                   ("od_min", "od_max", "rho", "m_balls")},
    }


def reference_run(scenario: Scenario, collect_traces: bool = False):
    sc = scenario
    esdf = sc.esdf
    obs_times, obs_points = [], []  # the target seen in the fit window
    report = RunReport(scenario_echo=sc.config_echo(), duration=sc.duration)
    search_trace, opt_trace, cost_dumps = [], [], []

    dt_knot = sc.horizon / (sc.num_control_points - 3)
    wp_offsets = np.arange(sc.num_control_points - 2) * dt_knot
    standoff = 0.5 * (sc.params.od_min + sc.params.od_max)
    weights = sc.effective_weights()
    search_cfg = sc.search_config
    # visibility-blind: the front-end stops rejecting sight-losing nodes
    occlusion_check = sc.mode != "baseline"
    half_bins = report.heatmap.shape[0] // 2

    committed = None        # (trajectory, start time)
    held_path = None        # (abs_points, abs_times) of the last search
    n_steps = int(round(sc.duration / sc.replan_period))
    failure_latched = False

    for i in range(n_steps + 1):
        t = i * sc.replan_period
        target_p = sc.target.at(t)

        # robot state from the committed plan (exact tracking)
        if committed is None:
            state = sc.start
        else:
            traj, t0 = committed
            if t - t0 > traj.duration() + 1e-9:
                report.termination = "planner_failure"
                report.failure_time = t
                break
            state = traj.state_at(min(t - t0, traj.duration()))

        pose_p = state.p
        pose_yaw = state.yaw

        rel = target_p - pose_p
        d = float(np.linalg.norm(rel))
        psi_best = math.atan2(rel[1], rel[0])
        psi_err = abs(wrap_angle(pose_yaw - psi_best))
        occluded = raycast_occluded(sc.grid, pose_p, target_p)
        fov = (not occluded) and _cone_contains(
            pose_p, pose_yaw, target_p, sc.fov_h_half, sc.fov_v_half)

        prev_occluded = report.steps[-1].occluded if report.steps else False
        if occluded and not prev_occluded:
            report.occlusion_events += 1
        report.steps.append(StepRecord(t, pose_p.copy(), pose_yaw,
                                       target_p.copy(), d, psi_err, fov,
                                       occluded))
        if fov:
            report.tracked_steps += 1
            rx, ry = _rot(rel, -pose_yaw)
            ix = min(max(int((rx + HEATMAP_WINDOW / 2) // HEATMAP_BIN), 0),
                     2 * half_bins - 1)
            iy = min(max(int((ry + HEATMAP_WINDOW / 2) // HEATMAP_BIN), 0),
                     2 * half_bins - 1)
            report.heatmap[ix, iy] += 1
        else:
            report.termination = "target_lost"
            report.failure_time = t
            failure_latched = True
            break

        obs_times.append(t)
        obs_points.append(target_p)
        while obs_times[0] < t - sc.predict_window:
            del obs_times[0], obs_points[0]
        if i == n_steps:
            break

        # --- replan ---------------------------------------------------------
        t_wall = time.perf_counter()
        model = fit(obs_times, obs_points, degree=sc.predict_degree,
                    ridge=sc.predict_ridge, horizon=sc.horizon,
                    v_max=sc.predict_v_max)
        s_horizon = sc.search_horizon if sc.search_horizon is not None \
            else sc.horizon
        track_all = predict_track(model, t + np.arange(
            0, sc.search_config.horizon_slack * max(s_horizon, sc.horizon)
            + dt_knot, dt_knot / 2.0))

        def target_at(s, _track=track_all, _dt=dt_knot / 2.0):
            idx = min(int(round(s / _dt)), len(_track) - 1)
            return _track.c[idx]

        # the previous front-end path usually still checks out against the
        # fresh prediction; re-searching every cycle would dominate latency
        reused = _reference_revalidate_path(held_path, t, state, target_at, sc.grid,
                                  esdf, sc.limits, occlusion_check, s_horizon,
                                  standoff)
        if reused is not None:
            pts, times = reused
        else:
            try:
                pts, times = search(state, target_at, sc.grid, esdf,
                                    sc.limits, search_cfg, horizon=s_horizon,
                                    standoff=standoff,
                                    occlusion_check=occlusion_check,
                                    trace=search_trace
                                    if collect_traces else None)
                held_path = (pts + 0.0, times + t)
            except SearchError:
                held_path = None
                report.replan_times.append(time.perf_counter() - t_wall)
                if committed is None:
                    report.termination = "planner_failure"
                    report.failure_time = t
                    break
                continue    # keep flying the committed trajectory

        if sc.mode == "baseline":
            yaw_targets = None
        else:
            future = predict_track(model, t + times).c
            look = future - pts
            yaw_targets = np.arctan2(look[:, 1], look[:, 0])
            hdeg = np.hypot(look[:, 0], look[:, 1]) < 1e-6
            yaw_targets[hdeg] = state.yaw

        seed_traj = initialize_from_path(pts, times, state, dt_knot,
                                         sc.num_control_points,
                                         yaw_targets=yaw_targets)
        track = predict_track(model, t + wp_offsets)
        result = optimize(seed_traj, track, esdf, sc.params, weights,
                          sc.limits, OptimizerConfig())
        committed = (result.trajectory, t)
        report.replan_times.append(time.perf_counter() - t_wall)
        if collect_traces:
            opt_trace.append((t, result.trace))
            cost_dumps.append((t, result.final_report.term_values()))

    if not failure_latched and report.termination == "completed":
        report.failure_time = sc.duration
    return report, (search_trace, opt_trace, cost_dumps)


def _reference_revalidate_path(held, t, state, target_at, grid, esdf,
                               limits, occlusion_check, horizon, standoff):
    """Check the previous search path against the fresh prediction; returns
    relative (points, times) when it still serves, else None."""
    if held is None:
        return None
    pts_abs, times_abs = held
    # the near-term is owned by the boundary conditions; a stale node only
    # fractions of a second ahead would fight them in the fit
    keep = times_abs >= t + 0.35
    if keep.sum() < 3:
        return None
    pts, times = pts_abs[keep], times_abs[keep] - t
    if times[-1] < 0.55 * horizon:
        return None
    if np.linalg.norm(pts[0] - state.p) > 1.2:
        return None
    pts = np.vstack([state.p, pts])
    times = np.concatenate([[0.0], times])
    goal = np.asarray(target_at(times[-1]), float)
    if abs(np.linalg.norm(pts[-1] - goal) - standoff) > GOAL_TOLERANCE + 0.3:
        return None
    if np.min(esdf.distance_at(pts)) <= limits.d_thr / 2.0:
        return None
    if occlusion_check:
        for p, s in zip(pts, times):
            if raycast_occluded(grid, p, np.asarray(target_at(s), float)):
                return None
    return pts, times


def _rot(rel, ang):
    c, s = math.cos(ang), math.sin(ang)
    return np.array([c * rel[0] - s * rel[1], s * rel[0] + c * rel[1]])


# ---------------------------------------------------------------------------
# tests


def scenario(name, mode, seed=None, duration=None) -> Scenario:
    sc = load_scenario(bundled_scenario(name), mode=mode, seed=seed)
    if duration is not None:
        sc.duration = duration
    return sc


def traces(report: RunReport):
    """The reference's three trace lists, built from the replan records:
    expanded search nodes, optimizer costs per iteration, final costs."""
    replans = report.replans or []
    optimized = [r for r in replans if r.costs is not None]
    return ([node for r in replans for node in r.expanded],
            [(r.t, r.trace) for r in optimized],
            [(r.t, r.costs) for r in optimized])


def recorded(report: RunReport, trace_lists) -> str:
    """Every deterministic output of a run, floats by their exact repr."""
    steps = [(s.t, s.p.tolist(), s.yaw, s.target.tolist(), s.d, s.psi_err,
              s.in_fov, s.occluded) for s in report.steps]
    return repr((dumps_canonical(report.to_json_dict()), steps,
                 report.heatmap.tolist(), len(report.replan_times),
                 *trace_lists))


# short missions: mini loses the target in baseline mode, and the visibility
# front end fails and the robot flies on for forest seeds 2 (the search
# exhausts) and 17 (the start lies inside the clearance band); case1 in
# baseline mode loses the target to an occlusion at 7.7 s
CASES = [("mini", None, 2.5), ("case1", None, 2.5), ("forest", 2, 3.0),
         ("forest", 17, 3.0), ("case1", None, 8.0)]


@pytest.mark.parametrize("mode", ["visibility", "baseline"])
@pytest.mark.parametrize("name, seed, duration", CASES)
def test_run_matches_reference(name, seed, duration, mode):
    want = reference_run(scenario(name, mode, seed, duration),
                         collect_traces=True)
    sc = scenario(name, mode, seed, duration)
    got = run(sc, collect_traces=True)
    assert all(traces(got))
    assert recorded(got, traces(got)) == recorded(*want)
    assert dumps_canonical(sc.config_echo()) == \
        dumps_canonical(reference_config_echo(sc))


def test_untraced_run_matches_reference(monkeypatch):
    rows = []   # the `trace` argument of every search the planner runs

    def recording(*args, trace, **kwargs):
        rows.append(trace)
        return search(*args, trace=trace, **kwargs)

    monkeypatch.setattr(sim, "search", recording)
    want = reference_run(scenario("mini", "visibility", duration=1.5))
    got = run(scenario("mini", "visibility", duration=1.5))
    assert not got.replans
    assert recorded(got, traces(got)) == recorded(*want)
    # an untraced run builds no expansion rows; a traced one does
    assert rows and all(r is None for r in rows)
    del rows[:]
    run(scenario("mini", "visibility", duration=1.5), collect_traces=True)
    assert rows and all(isinstance(r, list) for r in rows)


# ---------------------------------------------------------------------------
# per-scenario constants


def test_constants_are_built_once_per_run(monkeypatch):
    tables = []     # every summed-volume table the searches read
    occupied_counts = OccupancyGrid.occupied_counts

    def counting(grid):
        tables.append(occupied_counts(grid))
        return tables[-1]

    monkeypatch.setattr(OccupancyGrid, "occupied_counts", counting)
    optimizer.whitening_factors.cache_clear()
    sc = scenario("forest", "visibility", seed=3, duration=1.0)
    assert sc.grid._summed_volume is None   # not built with the scenario
    assert len(run(sc).replan_times) > 1
    assert len(tables) > 1 and all(t is tables[0] for t in tables)
    info = optimizer.whitening_factors.cache_info()
    assert info.misses == 1 and info.hits > 0

    # a second run of the same scenario builds neither again
    run(sc)
    assert all(t is tables[0] for t in tables)
    assert optimizer.whitening_factors.cache_info().misses == 1

    # the visibility-blind front end casts no rays, so it reads no table
    del tables[:]
    run(scenario("forest", "baseline", seed=3, duration=1.0))
    assert not tables
    assert optimizer.whitening_factors.cache_info().misses == 2


def test_reused_constants_are_read_only():
    sc = scenario("mini", "visibility")
    w = sc.effective_weights()
    n = sc.num_control_points
    dt = sc.horizon / (n - 3)
    first = optimizer.whitening_factors(n, dt, w, sc.params.od_max)
    again = optimizer.whitening_factors(n, dt, w, sc.params.od_max)
    table = sc.grid.occupied_counts()
    assert sc.grid.occupied_counts() is table
    for a, b in zip(first, again):
        assert a is b
    for array in (*first, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_a_measured_grid_is_read_only():
    """A cell write after the ESDF or the summed-volume table exists
    raises, so the ESDF, the table and the rays read one map."""
    sc = scenario("mini", "visibility")
    with pytest.raises(ValueError):
        sc.grid.occupancy[5, 5, 0] = True
    assert sc.grid.occupied_counts()[-1, -1, -1] == 0
    assert sc.esdf.distance[5, 5, 0] == sc.d_trunc
    assert not raycast_occluded(sc.grid, [0.05, 0.55, 0.0], [1.05, 0.55, 0.0])

    grid = OccupancyGrid.empty(0.1, (10, 10, 1))
    grid.occupancy[5, 5, 0] = True      # free to change until measured
    assert grid.occupied_counts()[-1, -1, -1] == 1
    with pytest.raises(ValueError):
        grid.occupancy[5, 5, 0] = False


@pytest.mark.parametrize("measure", [
    lambda grid: build_esdf(grid, 5.0), OccupancyGrid.occupied_counts],
    ids=["esdf", "table"])
def test_no_earlier_view_or_rebinding_reaches_a_measured_grid(measure):
    """Measuring a grid binds it for good to a copy: a view taken before
    writes only the old array, and the occupancy cannot be rebound, so the
    ESDF, the summed-volume table and the rays still read one map."""
    grid = OccupancyGrid.empty(0.1, (10, 10, 1))
    layer = grid.occupancy[:, :, 0]
    measure(grid)
    layer[5, 5] = True
    assert not grid.occupancy.any()
    with pytest.raises(AttributeError):
        grid.occupancy = np.ones((10, 10, 1), dtype=bool)
    assert not grid.occupancy.any()
    assert grid.occupied_counts()[-1, -1, -1] == 0
    assert build_esdf(grid, 5.0).distance[5, 5, 0] == 5.0
    assert not raycast_occluded(grid, [0.05, 0.55, 0.0], [1.05, 0.55, 0.0])
