import time

import numpy as np
import pytest

from visiplan.costs import (CostWeights, DynamicLimits, TargetTrack,
                            VisibilityParams, total_cost)
from visiplan.env import OccupancyGrid, build_esdf
from visiplan.optimizer import OptimizerConfig, Termination, optimize
from visiplan.spline import TrajectoryBSpline

PARAMS = VisibilityParams()
LIMITS = DynamicLimits(v_m=5.0, a_m=6.0, v_phi_m=3.0, a_phi_m=6.0,
                       d_thr=0.4, psi_thr=0.6)


def open_field(d_trunc=50.0):
    return build_esdf(OccupancyGrid.empty(0.5, (20, 20, 1)), d_trunc)


def static_track(n_ctrl, c):
    return TargetTrack(np.tile(np.asarray(c, float), (n_ctrl - 2, 1)))


def hover_traj(p, yaw, n=12, dt=0.1):
    q = np.tile(np.asarray(p, float), (n, 1))
    return TrajectoryBSpline(dt, q, np.full(n, yaw))


class TestOptimize:
    def test_zero_weights_identity(self):
        traj = hover_traj([1.0, 1.0, 0.0], 0.2)
        field = open_field()
        track = static_track(traj.num_control_points, [4.0, 1.0, 0.0])
        w = CostWeights(0, 0, 0, 0, 0, 0, 0, 0, 0)
        res = optimize(traj, track, field, PARAMS, w, LIMITS)
        assert res.termination is Termination.CONVERGED
        assert res.iterations == 0
        assert np.array_equal(res.trajectory.q, traj.q)
        assert np.array_equal(res.trajectory.phi, traj.phi)

    def test_one_hot_smoothness_quadratic(self):
        rng = np.random.default_rng(0)
        base = np.array([1.0, 1.0, 0.0])
        line = base + np.outer(np.linspace(0, 1, 10), [0.5, 0.2, 0.0])
        q = line.copy()
        q[3:] += rng.normal(scale=0.4, size=(7, 3))
        traj = TrajectoryBSpline(0.1, q, np.zeros(10))
        field = open_field()
        track = static_track(10, [4.0, 1.0, 0.0])
        w = CostWeights(0, 0, 0, 0, 0, 1.0, 0, 0, 0)
        cfg = OptimizerConfig(max_iterations=400, gradient_tolerance=1e-10,
                              relative_cost_tolerance=1e-16)
        res = optimize(traj, track, field, PARAMS, w, LIMITS, cfg)
        assert res.final_report.terms["smoothness"] <= 1e-8

    def test_open_space_joint_optimum(self):
        # start in the distance band facing the target; the free control
        # points drift smoothly out of band with the yaw veering away, and
        # the optimizer must pull every knot back in band and realign
        rng = np.random.default_rng(1)
        n = 14
        target = np.array([6.0, 5.0, 0.0])
        start = np.array([3.0, 5.0, 0.0])       # distance 3.0, in band
        traj = hover_traj(start, 0.0, n=n, dt=0.1)
        ramp = np.clip((np.arange(n) - 2) / (n - 3), 0, 1) ** 2
        traj.q[:, 0] -= 1.2 * ramp              # drifts out to d = 4.2
        traj.phi += 0.35 * ramp
        traj.q[3:] += rng.normal(scale=0.2, size=(n - 3, 3))
        traj.phi[3:] += rng.normal(scale=0.1, size=n - 3)
        field = open_field()
        track = static_track(n, target)
        cfg = OptimizerConfig(max_iterations=200, gradient_tolerance=1e-9,
                              relative_cost_tolerance=1e-15)
        res = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS, cfg)
        p, psi = res.trajectory.waypoints()
        d = np.linalg.norm(p - target, axis=1)
        assert np.all(d >= PARAMS.od_min - 1e-3)
        assert np.all(d <= PARAMS.od_max + 1e-3)
        best = np.arctan2(target[1] - p[:, 1], target[0] - p[:, 0])
        err = np.abs((psi - best + np.pi) % (2 * np.pi) - np.pi)
        assert np.all(err <= 1e-3)

    def test_monotone_accepted_costs(self):
        rng = np.random.default_rng(2)
        traj = hover_traj([2.0, 2.0, 0.0], 0.0, n=10)
        traj.q[3:] += rng.normal(scale=1.0, size=(7, 3))
        field = open_field()
        track = static_track(10, [5.0, 2.0, 0.0])
        res = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS,
                       OptimizerConfig())
        totals = [vals["total"] for _, vals in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_report_describes_the_returned_trajectory(self):
        rng = np.random.default_rng(2)
        traj = hover_traj([2.0, 2.0, 0.0], 0.0, n=10)
        traj.q[3:] += rng.normal(scale=1.0, size=(7, 3))
        track = static_track(10, [5.0, 2.0, 0.0])
        field = open_field()
        res = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS)
        rep = total_cost(res.trajectory, track, field, PARAMS, CostWeights(),
                         LIMITS)
        assert res.iterations > 0
        assert rep.total == res.final_report.total
        assert res.trace[-1][1]["total"] == res.final_report.total

    def test_fixed_points_bit_exact(self):
        rng = np.random.default_rng(3)
        traj = hover_traj([2.0, 2.0, 0.0], 0.1, n=10)
        traj.q[:] += rng.normal(scale=0.3, size=traj.q.shape)
        q_head = traj.q[:3].copy()
        phi_head = traj.phi[:3].copy()
        field = open_field()
        track = static_track(10, [5.0, 2.0, 0.0])
        res = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS,
                       OptimizerConfig())
        assert np.array_equal(res.trajectory.q[:3], q_head)
        assert np.array_equal(res.trajectory.phi[:3], phi_head)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        traj = hover_traj([2.0, 2.0, 0.0], 0.0, n=10)
        traj.q[3:] += rng.normal(scale=0.5, size=(7, 3))
        field = open_field()
        track = static_track(10, [5.0, 2.0, 0.0])
        cfg = OptimizerConfig()
        r1 = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS, cfg)
        r2 = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS, cfg)
        assert np.array_equal(r1.trajectory.q, r2.trajectory.q)
        assert np.array_equal(r1.trajectory.phi, r2.trajectory.phi)
        assert r1.iterations == r2.iterations

    def test_returns_not_worse_than_initial(self):
        rng = np.random.default_rng(5)
        field = open_field()
        for _ in range(5):
            traj = hover_traj([2.0, 2.0, 0.0], 0.0, n=10)
            traj.q[3:] += rng.normal(scale=2.0, size=(7, 3))
            traj.phi[3:] += rng.normal(scale=1.0, size=7)
            track = static_track(10, rng.uniform(1.0, 8.0, size=3) * [1, 1, 0])
            rep0 = total_cost(traj, track, field, PARAMS, CostWeights(), LIMITS)
            res = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS,
                           OptimizerConfig(max_iterations=50))
            assert res.final_report.total <= rep0.total + 1e-12

    def test_independent_of_the_clock(self, monkeypatch):
        # the default config, on a clock that jumps 1 s per reading
        rng = np.random.default_rng(6)
        traj = hover_traj([2.0, 2.0, 0.0], 0.0, n=10)
        traj.q[3:] += rng.normal(scale=1.0, size=(7, 3))
        field = open_field()
        track = static_track(10, [5.0, 2.0, 0.0])
        plain = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS)
        ticks = iter(range(10 ** 9))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        jumpy = optimize(traj, track, field, PARAMS, CostWeights(), LIMITS)
        assert plain.iterations > 0
        assert jumpy.iterations == plain.iterations
        assert jumpy.trajectory.q.tobytes() == plain.trajectory.q.tobytes()
        assert jumpy.trajectory.phi.tobytes() == plain.trajectory.phi.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
