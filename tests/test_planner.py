"""Planner tests that fly no mission.

A replan is a function of its inputs: the time, the robot state, the
target's observations and the front-end path the last cycle returned. Every
replan of a flown mission is recorded with those inputs and replayed on a
fresh `Planner`, which must give the same trajectory, record and held path
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from visiplan.sim import Planner, bundled_scenario, load_scenario, run
from visiplan.spline import RobotState


def same_held(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return [x.tobytes() for x in a] == [y.tobytes() for y in b]


def same_trajectory(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.dt == b.dt and same_held((a.q, a.phi), (b.q, b.phi))


def record_replans(monkeypatch, sc):
    """Every replan of a traced run of `sc`: its inputs, copied before the
    run's loop moves on, and what it returned."""
    calls = []
    replan = Planner.replan

    def recording(self, t, state, obs_times, obs_points, held):
        inputs = (t, state, list(obs_times), [p.copy() for p in obs_points],
                  held and tuple(a.copy() for a in held))
        out = replan(self, t, state, obs_times, obs_points, held)
        calls.append((inputs, out))
        return out

    monkeypatch.setattr(Planner, "replan", recording)
    run(sc, collect_traces=True)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("mode", ["visibility", "baseline"])
def test_replan_replays_from_its_inputs(monkeypatch, mode):
    sc = load_scenario(bundled_scenario("forest"), mode=mode, seed=0)
    sc.duration = 5.0
    calls = record_replans(monkeypatch, sc)
    assert len(calls) > 10
    # the mission both reuses a held path and searches a new one
    assert any(out[1].expanded for _, out in calls)
    assert any(not out[1].expanded for _, out in calls)
    for inputs, (traj, cycle, held) in calls:
        planner = Planner(sc, traced=True)
        attrs = {name: id(value) for name, value in vars(planner).items()}
        got_traj, got_cycle, got_held = planner.replan(*inputs)
        assert same_trajectory(got_traj, traj)
        assert repr(got_cycle) == repr(cycle)
        assert same_held(got_held, held)
        # the planner keeps nothing of the cycle
        assert {name: id(value)
                for name, value in vars(planner).items()} == attrs


def test_failed_search_returns_no_trajectory_and_no_held_path(monkeypatch):
    sc = load_scenario(bundled_scenario("forest"), seed=0)
    sc.duration = 1.0
    (t, _, obs_times, obs_points, _), (_, _, held) = \
        record_replans(monkeypatch, sc)[-1]
    assert held is not None
    # a start inside an obstacle: the held path no longer serves and the
    # search rejects the start
    inside = np.argwhere(sc.grid.occupancy)[0]
    state = RobotState.at_rest(sc.grid.origin
                               + (inside + 0.5) * sc.grid.resolution, 0.0)
    assert sc.esdf.distance_at(state.p[None, :])[0] <= 0.0
    traj, cycle, held = Planner(sc, traced=True).replan(
        t, state, obs_times, obs_points, held)
    assert traj is None and held is None
    assert cycle.t == t and cycle.trace is None and cycle.costs is None
