from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visiplan import sim
from visiplan.predict import PredictionModel, fit, predict_track
from visiplan.search import TAU, SearchConfig
from visiplan.sim import Planner, Scenario, bundled_scenario, load_scenario


def obs(times, fn):
    """The observation times and the positions `fn` gives at them."""
    return [float(t) for t in times], [fn(t) for t in times]


def normal_equations_oracle(times, pts, degree, ridge):
    """Independent dense solve of the damped normal equations."""
    s = np.asarray(times) - times[-1]
    basis = np.vander(s, degree + 1, increasing=True)
    damp = np.eye(degree + 1)
    damp[0, 0] = 0.0
    return np.linalg.inv(basis.T @ basis + ridge * damp) @ basis.T @ np.asarray(pts)


class TestFit:
    def test_line_reproduced(self):
        v = np.array([0.5, -0.2, 0.0])
        p0 = np.array([1.0, 2.0, 0.0])
        history = obs(np.linspace(0, 2, 21), lambda t: p0 + v * t)
        model = fit(*history, degree=2, ridge=1e-9, horizon=3.0,
                    v_max=2.5)
        for t in np.linspace(2.0, 5.0, 7):
            assert np.linalg.norm(model.position(t) - (p0 + v * t)) < 1e-6

    def test_constant_history(self):
        history = obs(np.linspace(0, 1, 11), lambda t: np.array([3.0, 1.0, 0.0]))
        model = fit(*history, degree=3, ridge=1e-4, horizon=3.0,
                    v_max=2.5)
        track = predict_track(model, [1.5, 2.0, 2.5])
        assert np.allclose(track.c, [3.0, 1.0, 0.0])
        assert np.linalg.norm(model.velocity(1.0)) < 1e-9

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 2, 25)
        truth = lambda t: np.array([0.3 * t * t, 1.0 - 0.5 * t, 0.0])
        pts = np.stack([truth(t) + rng.normal(0, 0.01, 3) for t in times])
        model = fit(times, pts, degree=2, ridge=1e-4, horizon=3.0,
                    v_max=2.5)
        oracle = normal_equations_oracle(times, pts, 2, 1e-4)
        assert np.max(np.abs(model.coeffs - oracle)) < 1e-8

    def test_degree_capped_by_count(self):
        history = obs([0.0, 0.1], lambda t: np.array([t, 0.0, 0.0]))
        model = fit(*history, degree=3, ridge=1e-4, horizon=3.0,
                    v_max=2.5)
        assert model.degree == 1

    def test_single_observation_constant(self):
        model = fit(*obs([0.0], lambda t: np.array([1.0, 2.0, 3.0])),
                    degree=3, ridge=1e-4, horizon=3.0, v_max=2.5)
        assert model.degree == 0
        assert np.allclose(model.position(4.0), [1.0, 2.0, 3.0])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            fit([], [], degree=3, ridge=1e-4, horizon=3.0, v_max=2.5)

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.1], [0.0, 0.2, 0.1]],
                             ids=["equal", "decreasing"])
    def test_non_increasing_times_rejected(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit(times, np.zeros((3, 3)), degree=1, ridge=1e-4, horizon=3.0,
                v_max=2.5)

    def test_window_restricts_fit(self, monkeypatch):
        # the run cuts the window: every fit reads the target at each step
        # of the last `predict_window` seconds, and nothing older
        calls = []

        def recording(times, points, **kwargs):
            calls.append((list(times), np.array(points)))
            return fit(times, points, **kwargs)

        monkeypatch.setattr(sim, "fit", recording)
        sc = replace(load_scenario(bundled_scenario("mini")), duration=3.0,
                     predict_window=0.75)
        report = sim.run(sc)
        assert len(calls) == len(report.replan_times) > 10
        seen = [(s.t, s.target) for s in report.steps]
        for times, points in calls:
            want = [(t, p) for t, p in seen
                    if times[-1] - sc.predict_window <= t <= times[-1]]
            assert times == [t for t, _ in want]
            assert np.array_equal(points, [p for _, p in want])


class TestPredictTrack:
    def test_linear_model_track(self):
        history = obs(np.linspace(0, 2, 21), lambda t: np.array([t, 0.0, 0.0]))
        model = fit(*history, degree=1, ridge=1e-9, horizon=4.0,
                    v_max=10.0)
        track = predict_track(model, [1.0, 2.0, 3.0])
        assert np.allclose(track.c, [[1, 0, 0], [2, 0, 0], [3, 0, 0]],
                           atol=1e-6)

    def test_speed_saturation(self):
        # fitted speed 4 m/s against a 2.5 m/s bound: the tail must move at
        # exactly the bound
        history = obs(np.linspace(0, 1, 11), lambda t: np.array([4.0 * t, 0, 0]))
        model = fit(*history, degree=1, ridge=1e-12, horizon=5.0,
                    v_max=2.5)
        times = np.arange(1.0, 5.0, 0.25)
        track = predict_track(model, times)
        speeds = np.linalg.norm(np.diff(track.c, axis=0), axis=1) / 0.25
        assert speeds[-1] == pytest.approx(2.5, rel=1e-6)
        assert np.all(speeds <= 2.5 + 1e-6)

    def test_extrapolation_beyond_horizon(self):
        history = obs(np.linspace(0, 1, 11), lambda t: np.array([t, 0, 0]))
        model = fit(*history, degree=1, ridge=1e-9, horizon=2.0,
                    v_max=10.0)
        track = predict_track(model, [1.5, 2.5, 6.0])
        # constant-velocity tail: equal spacing after the horizon
        gap1 = track.c[2] - track.c[1]
        assert gap1[0] == pytest.approx(3.5 * 1.0, rel=1e-6)

    def test_continuity_at_last_observation(self):
        rng = np.random.default_rng(2)
        history = obs(np.linspace(0, 2, 30),
                      lambda t: np.array([np.sin(t), 0.5 * t, 0])
                      + rng.normal(0, 0.005, 3))
        model = fit(*history, degree=3, ridge=1e-4, horizon=3.0,
                    v_max=2.5)
        track = predict_track(model, [2.0])
        times, points = history
        gap = np.linalg.norm(track.c[0] - points[-1])
        # the fit reads the whole history
        resid = [model.position(t) - p for t, p in zip(times, points)]
        rms = float(np.sqrt(np.mean(np.square(resid))))
        assert gap <= 5 * max(rms, 1e-9)

    def test_track_smooth_acceleration(self):
        history = obs(np.linspace(0, 2, 30),
                      lambda t: np.array([np.sin(0.8 * t), 0.3 * t, 0]))
        model = fit(*history, degree=3, ridge=1e-4, horizon=3.0,
                    v_max=2.5)
        ts = np.arange(2.0, 5.0, 0.1)
        track = predict_track(model, ts)
        vel = np.diff(track.c, axis=0) / 0.1
        acc = np.linalg.norm(np.diff(vel, axis=0), axis=1) / 0.1
        assert np.all(acc < 10.0)


@settings(max_examples=300)
@given(data=st.data())
def test_knot_track_is_every_second_half_knot_row(data):
    """The planner hands the optimizer every second row of the half-knot
    track the search reads; that slice is the track at the knot times bit
    for bit, for models that saturate before the horizon or never. Every
    row of the planner's other query, the yaw targets at a path's times,
    is the one-row track at its time bit for bit."""
    n = data.draw(st.integers(4, 60), label="num_control_points")
    horizon = data.draw(st.floats(0.3, 8.0), label="horizon")
    sc = replace(
        load_scenario(bundled_scenario("mini")),
        search_horizon=data.draw(st.floats(0.3, horizon),
                                 label="search_horizon"),
        search_config=SearchConfig(horizon_slack=data.draw(
            st.floats(1.0, 3.0), label="horizon_slack")))
    # the planner's sizes are Scenario constants; the planner reads them
    # once, when it is built
    with mock.patch.multiple(Scenario, num_control_points=n,
                             horizon=horizon):
        planner = Planner(sc)
    degree = data.draw(st.integers(0, 5), label="degree")
    scale = data.draw(st.sampled_from([0.01, 0.3, 1.0, 5.0]), label="scale")
    coeffs = np.array(data.draw(st.lists(
        st.floats(-scale, scale), min_size=3 * (degree + 1),
        max_size=3 * (degree + 1)), label="coeffs")).reshape(degree + 1, 3)
    t = data.draw(st.integers(0, 300), label="step") * 0.1
    model = PredictionModel(degree, coeffs, t, horizon,
                            data.draw(st.floats(0.05, 3.0), label="v_max"))

    half_knots = predict_track(model, t + planner.track_offsets)
    knots = predict_track(model, t + np.arange(n - 2) * planner.dt_knot)
    sliced = half_knots.c[:2 * n - 5:2]
    assert sliced.shape == knots.c.shape
    assert sliced.tobytes() == knots.c.tobytes()

    # a searched path's times, on the tau lattice as the search adds them
    # up, and a revalidated path's: a path searched some cycles earlier,
    # less its near-term nodes, from the current time
    cfg = sc.search_config
    path = [0.0]
    while path[-1] + TAU <= cfg.horizon_slack * sc.search_horizon:
        path.append(path[-1] + TAU)
    held = np.array(path) + (t - data.draw(st.integers(1, 10), label="lag")
                             * sc.replan_period)
    revalidated = np.concatenate([[0.0], held[held >= t + 0.35] - t])
    for times in (np.array(path), revalidated):
        rows = predict_track(model, t + times).c
        for s, row in zip(t + times, rows):
            assert row.tobytes() == predict_track(model, [s]).c[0].tobytes()
