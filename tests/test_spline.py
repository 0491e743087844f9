import numpy as np
import pytest
from scipy.interpolate import BSpline as SciSpline

from visiplan.spline import (RobotState, TrajectoryBSpline,
                             initialize_from_path, wrap_angle)


def deboor_curve(ctrl: np.ndarray, dt: float):
    """Independent oracle: scipy B-spline on the uniform unclamped knot
    vector. Valid parameter range is [0, (N-3) dt]."""
    n = ctrl.shape[0]
    knots = np.arange(-3, n + 1) * dt
    return SciSpline(knots, ctrl, 3, extrapolate=False)


def random_traj(rng, n=8, dt=0.5) -> TrajectoryBSpline:
    return TrajectoryBSpline(dt, rng.normal(size=(n, 3)),
                             np.cumsum(rng.normal(scale=0.3, size=n)))


class TestWaypoint:
    def test_constant_polygon(self):
        q = np.tile([2.0, 3.0, 1.0], (5, 1))
        traj = TrajectoryBSpline(0.5, q, np.zeros(5))
        p, _ = traj.waypoints()
        assert p.shape == (3, 3)
        assert np.allclose(p, [2.0, 3.0, 1.0])

    def test_affine_precision(self):
        q = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        traj = TrajectoryBSpline(1.0, q, np.zeros(4))
        assert np.allclose(traj.waypoints()[0][0], [1.0, 0, 0])

    def test_stencil_arithmetic(self):
        q = np.array([[0.0, 0, 0], [0.0, 0, 0], [6.0, 0, 0], [0.0, 0, 0]])
        traj = TrajectoryBSpline(1.0, q, np.zeros(4))
        assert np.allclose(traj.waypoints()[0][0], [1.0, 0, 0])


class TestEvaluate:
    def test_constant(self):
        q = np.tile([1.0, 2.0, 3.0], (6, 1))
        traj = TrajectoryBSpline(0.5, q, np.full(6, 0.7))
        for t in np.linspace(0, traj.duration(), 13):
            p, psi = traj.evaluate(t)
            assert np.allclose(p, [1.0, 2.0, 3.0])
            assert psi == pytest.approx(0.7)

    def test_knot_identity(self):
        traj = random_traj(np.random.default_rng(4), n=9, dt=0.3)
        wp_p, wp_psi = traj.waypoints()
        for m in range(traj.num_control_points - 3 + 1):
            t = min(m * traj.dt, traj.duration())
            p, psi = traj.evaluate(t)
            assert np.allclose(p, wp_p[m], atol=1e-12)
            assert psi == pytest.approx(wp_psi[m], abs=1e-12)

    def test_matches_deboor(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            traj = random_traj(rng, n=int(rng.integers(4, 12)),
                               dt=float(rng.uniform(0.1, 0.8)))
            spl = deboor_curve(traj.q, traj.dt)
            spl_yaw = deboor_curve(traj.phi[:, None], traj.dt)
            for t in rng.uniform(0, traj.duration(), size=20):
                p, psi = traj.evaluate(t)
                assert np.allclose(p, spl(t), atol=1e-9)
                assert psi == pytest.approx(float(spl_yaw(t)[0]), abs=1e-9)

    def test_derivatives_match_deboor(self):
        rng = np.random.default_rng(6)
        traj = random_traj(rng, n=9, dt=0.35)
        for order in (1, 2):
            spl = deboor_curve(traj.q, traj.dt).derivative(order)
            for t in rng.uniform(0, traj.duration(), size=10):
                v, _ = traj.evaluate_derivative(t, order)
                assert np.allclose(v, spl(t), atol=1e-8)

    def test_domain_checked(self):
        traj = random_traj(np.random.default_rng(7))
        with pytest.raises(ValueError):
            traj.evaluate(-0.5)
        with pytest.raises(ValueError):
            traj.evaluate(traj.duration() + 0.5)

    def test_duration(self):
        traj = random_traj(np.random.default_rng(8), n=12, dt=0.2)
        assert traj.duration() == pytest.approx(9 * 0.2)


class TestProperties:
    def test_convex_hull(self):
        rng = np.random.default_rng(9)
        traj = random_traj(rng, n=10, dt=0.5)
        for t in rng.uniform(0, traj.duration(), size=100):
            s = min(int(t / traj.dt), traj.num_control_points - 4)
            active = traj.q[s:s + 4]
            p, _ = traj.evaluate(t)
            # membership via least squares over the 4 active control points
            from scipy.optimize import nnls
            A = np.vstack([active.T, np.ones(4)])
            b = np.append(p, 1.0)
            _, resid = nnls(A, b)
            assert resid <= 1e-9

    def test_velocity_bound_sufficiency(self):
        rng = np.random.default_rng(10)
        v_m = 2.0
        n, dt = 10, 0.3
        v_ctrl = rng.normal(size=(n - 1, 3))
        v_ctrl *= (v_m * rng.uniform(0.2, 1.0, size=(n - 1, 1))
                   / np.linalg.norm(v_ctrl, axis=1, keepdims=True))
        q = np.vstack([np.zeros(3), np.cumsum(v_ctrl * dt, axis=0)])
        traj = TrajectoryBSpline(dt, q, np.zeros(n))
        for t in np.linspace(0, traj.duration(), 400):
            v, _ = traj.evaluate_derivative(t, 1)
            assert np.linalg.norm(v) <= v_m + 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        traj = random_traj(rng, n=8, dt=0.4)
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        mapped = TrajectoryBSpline(traj.dt, traj.q @ A.T + b, traj.phi)
        for t in rng.uniform(0, traj.duration(), size=25):
            p, _ = traj.evaluate(t)
            pm, _ = mapped.evaluate(t)
            assert np.allclose(A @ p + b, pm, atol=1e-9)

    def test_yaw_continuity(self):
        traj = random_traj(np.random.default_rng(12), n=9)
        t0 = 0.37 * traj.duration()
        psi0 = traj.evaluate(t0)[1]
        for h in (1e-3, 1e-5, 1e-7):
            assert abs(traj.evaluate(t0 + h)[1] - psi0) < 10 * h + 1e-12


class TestWrap:
    def test_wrap_range(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert wrap_angle(0.25) == pytest.approx(0.25)


class TestInitializeFromPath:
    def test_single_point_hover(self):
        state = RobotState.at_rest([1.0, 2.0, 3.0], 0.4)
        traj = initialize_from_path([[1.0, 2.0, 3.0]], [0.0], state, 0.1, 8)
        assert np.allclose(traj.q, [1.0, 2.0, 3.0])
        assert np.allclose(traj.phi, 0.4)

    def test_straight_line_reproduced(self):
        dt = 0.1
        n = 12
        v = np.array([1.0, 0.5, 0.0])
        state = RobotState([0.0, 0.0, 1.0], v, np.zeros(3),
                           float(np.arctan2(v[1], v[0])))
        times = np.arange(0.0, (n - 3) * dt + 1e-9, dt)
        pts = state.p + times[:, None] * v
        traj = initialize_from_path(pts, times, state, dt, n)
        p0, _ = traj.evaluate(0.0)
        v0, _ = traj.evaluate_derivative(0.0, 1)
        assert np.linalg.norm(p0 - state.p) <= 1e-9
        assert np.linalg.norm(v0 - v) <= 1e-9
        for t in times:
            p, _ = traj.evaluate(float(t))
            assert np.linalg.norm(p - (state.p + t * v)) < 1e-6

    def test_boundary_conditions_always_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            state = RobotState(rng.normal(size=3), rng.normal(size=3),
                               rng.normal(size=3), float(rng.normal()),
                               float(rng.normal(scale=0.3)))
            times = np.sort(rng.uniform(0.0, 1.0, size=6))
            times[0] = 0.0
            pts = rng.normal(size=(6, 3))
            traj = initialize_from_path(pts, times, state, 0.1, 10)
            p0, psi0 = traj.evaluate(0.0)
            v0, dpsi0 = traj.evaluate_derivative(0.0, 1)
            a0, _ = traj.evaluate_derivative(0.0, 2)
            assert np.linalg.norm(p0 - state.p) <= 1e-9
            assert np.linalg.norm(v0 - state.v) <= 1e-9
            assert np.linalg.norm(a0 - state.a) <= 1e-9
            assert psi0 == pytest.approx(state.yaw, abs=1e-9)
            assert dpsi0 == pytest.approx(state.yaw_rate, abs=1e-9)

    def test_rejects_bad_timestamps(self):
        state = RobotState.at_rest([0, 0, 0], 0.0)
        with pytest.raises(ValueError):
            initialize_from_path([[0, 0, 0], [1, 0, 0]], [0.5, 0.5], state,
                                 0.1, 8)
