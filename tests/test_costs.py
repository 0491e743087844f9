import numpy as np
import pytest

from visiplan.costs import (TERMS, CostWeights, DynamicLimits, TargetTrack,
                            VisibilityParams, _best_yaw_array, cost_ao,
                            cost_collision, cost_do, cost_feasibility,
                            cost_oe, cost_safe_tracking, cost_smoothness,
                            cost_yaw_feasibility, cost_yaw_smoothness,
                            penalty, penalty_derivative, total_cost)
from visiplan.env import OccupancyGrid, build_esdf
from visiplan.spline import TrajectoryBSpline

PARAMS = VisibilityParams()                     # od 2.5..3.5, rho 0.8, M 10
LIMITS = DynamicLimits(v_m=2.0, a_m=3.0, v_phi_m=1.5, a_phi_m=3.0,
                       d_thr=0.5, psi_thr=0.5)


def make_field(rng=None, dims=(24, 24, 1), resolution=0.25, p_occ=0.04,
               d_trunc=5.0):
    grid = OccupancyGrid.empty(resolution, dims)
    if rng is not None:
        grid.occupancy[:] = rng.random(dims) < p_occ
    return build_esdf(grid, d_trunc)


def make_traj(rng, n=7, dt=0.4, center=(3.0, 3.0, 0.0), spread=1.0):
    q = np.asarray(center) + rng.normal(scale=spread, size=(n, 3))
    phi = np.cumsum(rng.normal(scale=0.3, size=n))
    return TrajectoryBSpline(dt, q, phi)


def make_track(rng, traj, dist=3.0):
    p, _ = traj.waypoints()
    offs = rng.normal(size=(p.shape[0], 3))
    offs /= np.linalg.norm(offs, axis=1, keepdims=True)
    return TargetTrack(p + dist * offs)


def fd_gradient(fn, traj, h=1e-5):
    """Central finite differences of a scalar cost over all control-point
    coordinates (positions and yaw)."""
    gq = np.zeros_like(traj.q)
    gphi = np.zeros_like(traj.phi)
    for i in range(traj.num_control_points):
        for d in range(3):
            for sign, acc in ((1, 1.0), (-1, -1.0)):
                t2 = traj.copy()
                t2.q[i, d] += sign * h
                gq[i, d] += acc * fn(t2)
        t2 = traj.copy()
        t2.phi[i] += h
        up = fn(t2)
        t2 = traj.copy()
        t2.phi[i] -= h
        dn = fn(t2)
        gphi[i] = (up - dn) / (2 * h)
    gq /= 2 * h
    return gq, gphi


def assert_grad_close(analytic, fd, rel=1e-4, abs_floor=1e-8):
    err = np.linalg.norm(np.asarray(analytic) - np.asarray(fd))
    scale = max(np.linalg.norm(fd), np.linalg.norm(analytic))
    assert err <= max(rel * scale, abs_floor), \
        f"gradient mismatch: |err|={err:.3e} scale={scale:.3e}"


class TestVisibilityParams:
    def test_takes_no_arguments(self):
        assert VisibilityParams() == PARAMS
        with pytest.raises(TypeError):
            VisibilityParams(od_min=1.0)
        with pytest.raises(TypeError):
            VisibilityParams(2.5, 3.5, 0.8, 10)

    def test_derived_constants_are_the_per_call_expressions(self):
        """The ball fractions and the standoff, bit for bit, as cost_oe and
        the planner formed them on every call."""
        lam = np.arange(1, PARAMS.m_balls + 1) / PARAMS.m_balls
        assert PARAMS.ball_fractions.tobytes() == lam.tobytes()
        assert PARAMS.ball_fractions.dtype == lam.dtype
        assert not PARAMS.ball_fractions.flags.writeable
        standoff = 0.5 * (PARAMS.od_min + PARAMS.od_max)
        assert np.float64(PARAMS.standoff).tobytes() == \
            np.float64(standoff).tobytes()


class TestPenalty:
    def test_inactive(self):
        assert penalty(-1.0) == 0.0
        assert penalty_derivative(-1.0) == 0.0

    def test_cubic(self):
        assert penalty(2.0) == 8.0
        assert penalty_derivative(2.0) == 12.0

    def test_c2_at_kink(self):
        h = 1e-5
        d1 = (penalty(h) - penalty(-h)) / (2 * h)
        assert d1 == pytest.approx(0.0, abs=1e-9)
        d2 = (penalty_derivative(h) - penalty_derivative(-h)) / (2 * h)
        assert d2 == pytest.approx(0.0, abs=1e-4)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 0.5, 2.0])
        assert np.allclose(penalty(x), [0.0, 0.0, 0.125, 8.0])


class TestBestYaw:
    def test_axes(self):
        # default orientation: sensor looks from p toward c
        p = np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
        c = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        psi, ok = _best_yaw_array(p, c)
        assert np.allclose(psi, [np.pi, 0.0, np.pi / 2, np.pi / 4])
        assert ok.all()

    def test_degenerate(self):
        p = np.array([[0, 0, 1.0], [0, 0, 0]])
        c = np.array([[0.0, 0, 0], [1, 0, 0]])
        _, ok = _best_yaw_array(p, c)
        assert ok.tolist() == [False, True]


class TestCostDO:
    def test_inside_band_zero(self):
        rng = np.random.default_rng(0)
        traj = make_traj(rng)
        track = make_track(rng, traj, dist=3.0)
        v, gq, gphi = cost_do(traj, track, PARAMS)
        assert v == 0.0
        assert np.all(gq == 0.0) and np.all(gphi == 0.0)

    def test_single_violation_value(self):
        # one waypoint at distance 2.0: g(2.5^2 - 2^2) = 2.25^3
        q = np.tile([0.0, 0.0, 0.0], (4, 1))
        traj = TrajectoryBSpline(0.5, q, np.zeros(4))
        track = TargetTrack(np.array([[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]))
        v, _, _ = cost_do(traj, track, PARAMS)
        assert v == pytest.approx(2.25 ** 3)

    def test_gradient_fd(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            traj = make_traj(rng)
            dist = float(rng.choice([1.8, 3.0, 4.5]))
            track = make_track(rng, traj, dist=dist)
            v, gq, gphi = cost_do(traj, track, PARAMS)
            fq, fphi = fd_gradient(lambda t: cost_do(t, track, PARAMS)[0],
                                   traj)
            assert_grad_close(gq, fq)
            assert np.all(gphi == 0.0) and np.allclose(fphi, 0.0, atol=1e-6)


class TestCostAO:
    def test_aligned_zero(self):
        q = np.tile([0.0, 0.0, 0.0], (5, 1))
        track = TargetTrack(np.tile([3.0, 0.0, 0.0], (3, 1)))
        traj = TrajectoryBSpline(0.5, q, np.zeros(5))   # yaw 0 = facing +x
        v, gq, gphi = cost_ao(traj, track, PARAMS)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(gq, 0.0) and np.allclose(gphi, 0.0)

    def test_offset_value_and_yaw_gradient(self):
        q = np.tile([0.0, 0.0, 0.0], (4, 1))
        track = TargetTrack(np.tile([3.0, 0.0, 0.0], (2, 1)))
        traj = TrajectoryBSpline(0.5, q, np.full(4, 0.3))
        v, _, gphi = cost_ao(traj, track, PARAMS)
        assert v == pytest.approx(2 * 0.09)     # two waypoints at 0.3 offset
        # each waypoint contributes 2*0.3 through the stencil
        assert gphi.sum() == pytest.approx(2 * 0.6)

    def test_degenerate_skipped(self):
        q = np.tile([0.0, 0.0, 0.0], (4, 1))
        track = TargetTrack(np.array([[0.0, 0.0, 1.0], [3.0, 0.0, 0.0]]))
        traj = TrajectoryBSpline(0.5, q, np.zeros(4))
        v, gq, gphi = cost_ao(traj, track, PARAMS)
        assert np.isfinite(v) and np.isfinite(gq).all()

    def test_gradient_fd(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 5:
            traj = make_traj(rng)
            track = make_track(rng, traj, dist=3.0)
            p, psi = traj.waypoints()
            diff = psi - np.arctan2(track.c[:, 1] - p[:, 1],
                                    track.c[:, 0] - p[:, 0])
            # stay away from the wrap boundary
            if np.any(np.abs(np.abs((diff + np.pi) % (2 * np.pi) - np.pi)
                             - np.pi) < 0.05):
                continue
            v, gq, gphi = cost_ao(traj, track, PARAMS)
            fq, fphi = fd_gradient(lambda t: cost_ao(t, track, PARAMS)[0],
                                   traj)
            assert_grad_close(gq, fq)
            assert_grad_close(gphi, fphi)
            checked += 1

    def test_z_gradient_zero(self):
        rng = np.random.default_rng(3)
        traj = make_traj(rng)
        track = make_track(rng, traj)
        _, gq, _ = cost_ao(traj, track, PARAMS)
        assert np.all(gq[:, 2] == 0.0)


class TestCostOE:
    def test_empty_map_zero(self):
        rng = np.random.default_rng(4)
        field = make_field(None, d_trunc=50.0)
        traj = make_traj(rng)
        track = make_track(rng, traj)
        v, gq, _ = cost_oe(traj, track, PARAMS, field)
        assert v == 0.0 and np.all(gq == 0.0)

    def test_ball_geometry(self):
        # p=(0,0,0), c=(3,0,0), rho=0.8, M=10: ball 5 center (1.5,0,0), r=1.2
        p = np.zeros(3)
        c = np.array([3.0, 0.0, 0.0])
        lam = 5 / 10
        center = p + lam * (c - p)
        r = 0.8 * lam * np.linalg.norm(p - c)
        assert np.allclose(center, [1.5, 0.0, 0.0])
        assert r == pytest.approx(1.2)

    def test_gradient_fd(self):
        rng = np.random.default_rng(5)
        h = 1e-4
        checked = 0
        while checked < 5:
            field = make_field(rng, p_occ=0.08, d_trunc=3.0)
            traj = make_traj(rng, center=(3.0, 3.0, 0.0), spread=0.8)
            track = make_track(rng, traj, dist=2.0)
            if not _oe_boundary_safe(traj, track, field, margin=20 * h):
                continue
            v, gq, _ = cost_oe(traj, track, PARAMS, field)
            fq, _ = fd_gradient(
                lambda t: cost_oe(t, track, PARAMS, field)[0], traj, h=h)
            assert_grad_close(gq, fq, rel=1e-3)
            checked += 1


def _lattice_margin(field, pts):
    """Distance of each point to the nearest interpolation-lattice plane."""
    g = field.grid
    u = (np.atleast_2d(pts) - g.origin) / g.resolution - 0.5
    frac = u % 1.0
    return np.min(np.minimum(frac, 1.0 - frac) * g.resolution)


def _oe_boundary_safe(traj, track, field, margin):
    p, _ = traj.waypoints()
    lam = np.arange(1, PARAMS.m_balls + 1) / PARAMS.m_balls
    centers = p[:, None, :] + lam[None, :, None] * (track.c - p)[:, None, :]
    if _lattice_margin(field, centers.reshape(-1, 3)) < margin:
        return False
    # also keep clear of the penalty kink
    d = np.linalg.norm(p - track.c, axis=1)
    radii = PARAMS.rho * lam[None, :] * d[:, None]
    xi = field.distance_at(centers.reshape(-1, 3)).reshape(radii.shape)
    return np.all(np.abs(radii ** 2 - xi ** 2) > 1e-2)


class TestFeasibility:
    def test_hover_zero(self):
        q = np.tile([1.0, 1.0, 1.0], (6, 1))
        traj = TrajectoryBSpline(0.5, q, np.zeros(6))
        v, gq, _ = cost_feasibility(traj, LIMITS)
        assert v == 0.0 and np.all(gq == 0.0)

    def test_velocity_violation_value(self):
        # two points 3 m apart, dt=1, v_m=2: g(9-4) = 125
        q = np.array([[0.0, 0, 0], [3.0, 0, 0], [3.0, 0, 0], [3.0, 0, 0]])
        lim = DynamicLimits(v_m=2.0, a_m=100.0, v_phi_m=1.0, a_phi_m=1.0,
                            d_thr=0.5, psi_thr=0.5)
        traj = TrajectoryBSpline(1.0, q, np.zeros(4))
        v, _, _ = cost_feasibility(traj, lim)
        assert v == pytest.approx(125.0)

    def test_gradient_fd(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            traj = make_traj(rng, spread=1.5, dt=0.5)
            v, gq, _ = cost_feasibility(traj, LIMITS)
            fq, _ = fd_gradient(lambda t: cost_feasibility(t, LIMITS)[0], traj)
            assert_grad_close(gq, fq)

    def test_yaw_gradient_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            traj = make_traj(rng)
            traj.phi = np.cumsum(rng.normal(scale=1.0, size=traj.phi.shape))
            _, _, gphi = cost_yaw_feasibility(traj, LIMITS)
            _, fphi = fd_gradient(
                lambda t: cost_yaw_feasibility(t, LIMITS)[0], traj)
            assert_grad_close(gphi, fphi)


class TestSmoothness:
    def test_constant_accel_zero_jerk(self):
        # quadratic control polygon: constant second difference
        i = np.arange(6, dtype=float)
        q = np.stack([i ** 2, np.zeros(6), np.zeros(6)], axis=1)
        traj = TrajectoryBSpline(0.5, q, np.zeros(6))
        v, _, _ = cost_smoothness(traj)
        assert v == pytest.approx(0.0, abs=1e-18)

    def test_single_jerk_value(self):
        q = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0], [6.0, 0, 0]])
        traj = TrajectoryBSpline(1.0, q, np.zeros(4))
        v, _, _ = cost_smoothness(traj)
        assert v == pytest.approx(36.0)

    def test_gradient_fd(self):
        rng = np.random.default_rng(8)
        traj = make_traj(rng)
        _, gq, _ = cost_smoothness(traj)
        fq, _ = fd_gradient(lambda t: cost_smoothness(t)[0], traj)
        assert_grad_close(gq, fq, rel=1e-6)
        _, _, gphi = cost_yaw_smoothness(traj)
        _, fphi = fd_gradient(lambda t: cost_yaw_smoothness(t)[0], traj)
        assert_grad_close(gphi, fphi, rel=1e-6)


class TestCollision:
    def test_clear_zero(self):
        field = make_field(None, d_trunc=5.0)
        rng = np.random.default_rng(9)
        traj = make_traj(rng)
        v, gq, _ = cost_collision(traj, LIMITS, field)
        assert v == 0.0 and np.all(gq == 0.0)

    def test_violation_value(self):
        # Xi = 0.2, d_thr = 0.5: g(0.25 - 0.04) = 0.21^3
        arg = 0.5 ** 2 - 0.2 ** 2
        assert penalty(arg) == pytest.approx(0.009261)

    def test_gradient_fd(self):
        rng = np.random.default_rng(10)
        h = 1e-4
        checked = 0
        while checked < 5:
            field = make_field(rng, p_occ=0.25, d_trunc=2.0)
            lim = DynamicLimits(v_m=2.0, a_m=3.0, v_phi_m=1.5, a_phi_m=3.0,
                                d_thr=1.0, psi_thr=0.5)
            traj = make_traj(rng, spread=0.8)
            if _lattice_margin(field, traj.q) < 20 * h:
                continue
            xi = field.distance_at(traj.q)
            if np.any(np.abs(lim.d_thr ** 2 - xi ** 2) < 1e-2):
                continue
            _, gq, _ = cost_collision(traj, lim, field)
            fq, _ = fd_gradient(
                lambda t: cost_collision(t, lim, field)[0], traj, h=h)
            assert_grad_close(gq, fq, rel=1e-3)
            checked += 1


class TestSafeTracking:
    def test_aligned_zero(self):
        # straight line along +x with yaw 0
        q = np.outer(np.arange(6, dtype=float), [1.0, 0.0, 0.0])
        traj = TrajectoryBSpline(0.5, q, np.zeros(6))
        v, gq, gphi = cost_safe_tracking(traj, PARAMS, LIMITS)
        assert v == 0.0 and np.all(gq == 0.0) and np.all(gphi == 0.0)

    def test_violation_value(self):
        assert penalty(0.6 ** 2 - 0.5 ** 2) == pytest.approx(0.001331)

    def test_hover_skipped(self):
        q = np.tile([1.0, 2.0, 0.0], (5, 1))
        traj = TrajectoryBSpline(0.5, q, np.linspace(0, 2.0, 5))
        v, _, _ = cost_safe_tracking(traj, PARAMS, LIMITS)
        assert v == 0.0

    def test_gradient_fd(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 5:
            traj = make_traj(rng, spread=1.2, dt=0.5)
            v_wp = (traj.q[2:] - traj.q[:-2]) / (2 * traj.dt)
            if np.any(np.hypot(v_wp[:, 0], v_wp[:, 1]) < 0.15):
                continue
            _, psi = traj.waypoints()
            diff = np.arctan2(v_wp[:, 1], v_wp[:, 0]) - psi
            wrapped = np.abs((diff + np.pi) % (2 * np.pi) - np.pi)
            if np.any(np.abs(wrapped - np.pi) < 0.05) or \
                    np.any(np.abs(wrapped ** 2 - LIMITS.psi_thr ** 2) < 1e-2):
                continue
            _, gq, gphi = cost_safe_tracking(traj, PARAMS, LIMITS)
            fq, fphi = fd_gradient(
                lambda t: cost_safe_tracking(t, PARAMS, LIMITS)[0], traj)
            assert_grad_close(gq, fq, rel=1e-3)
            assert_grad_close(gphi, fphi, rel=1e-3)
            checked += 1

    def test_gradient_fd_in_gate_band(self):
        # speeds inside the low-speed fade: the gate factor contributes to
        # the position gradient
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 5:
            traj = make_traj(rng, spread=0.02, dt=1.0)
            traj.phi = rng.normal(scale=0.8, size=traj.phi.shape)
            v_wp = (traj.q[2:] - traj.q[:-2]) / (2 * traj.dt)
            hor = np.hypot(v_wp[:, 0], v_wp[:, 1])
            if np.any(hor < 5e-3) or np.any(hor > 0.09) or \
                    np.any(np.abs(hor - 0.1) < 0.01):
                continue
            val, gq, gphi = cost_safe_tracking(traj, PARAMS, LIMITS)
            if val == 0.0:
                continue
            fq, fphi = fd_gradient(
                lambda t: cost_safe_tracking(t, PARAMS, LIMITS)[0], traj,
                h=1e-7)
            assert_grad_close(gq, fq, rel=1e-3)
            assert_grad_close(gphi, fphi, rel=1e-3)
            checked += 1


class TestTotalCost:
    def test_all_zero_weights(self):
        rng = np.random.default_rng(12)
        traj = make_traj(rng)
        track = make_track(rng, traj)
        field = make_field(rng)
        w = CostWeights(0, 0, 0, 0, 0, 0, 0, 0, 0)
        rep = total_cost(traj, track, field, PARAMS, w, LIMITS)
        assert rep.total == 0.0
        assert np.all(rep.grad_q == 0.0) and np.all(rep.grad_phi == 0.0)

    def test_one_hot_smoothness(self):
        rng = np.random.default_rng(13)
        traj = make_traj(rng)
        track = make_track(rng, traj)
        field = make_field(rng)
        w = CostWeights(0, 0, 0, 0, 0, 1.0, 0, 0, 0)
        rep = total_cost(traj, track, field, PARAMS, w, LIMITS)
        assert rep.total == pytest.approx(cost_smoothness(traj)[0])

    def test_gradient_fd_free_points(self):
        rng = np.random.default_rng(15)
        field = make_field(rng, p_occ=0.05, d_trunc=3.0)
        weights = CostWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1e-3, 1e-3, 1.0, 1.0)
        checked = 0
        while checked < 3:
            traj = make_traj(rng, n=8, spread=0.7)
            track = make_track(rng, traj, dist=2.8)
            if not _oe_boundary_safe(traj, track, field, margin=2e-3):
                continue
            if _lattice_margin(field, traj.q) < 2e-3:
                continue
            rep = total_cost(traj, track, field, PARAMS, weights, LIMITS)

            def total_of(t):
                return total_cost(t, track, field, PARAMS, weights,
                                  LIMITS).total

            fq, fphi = fd_gradient(total_of, traj, h=1e-5)
            assert_grad_close(rep.grad_q, fq, rel=1e-3)
            assert_grad_close(rep.grad_phi, fphi, rel=1e-3)
            checked += 1

    def test_total_is_the_weighted_sum_in_term_order(self):
        """The total, bit for bit, as a second pass over every term in TERMS
        order gives it, a zero-weighted term adding 0.0."""
        rng = np.random.default_rng(14)
        for weights in (CostWeights(), CostWeights().baseline()):
            traj = make_traj(rng)
            track = make_track(rng, traj)
            rep = total_cost(traj, track, make_field(rng), PARAMS, weights,
                             LIMITS)
            total = sum(getattr(weights, t.weight) * rep.terms[t.name]
                        for t in TERMS)
            assert np.float64(rep.total).tobytes() == \
                np.float64(total).tobytes()

    def test_report_serializes(self):
        rng = np.random.default_rng(16)
        traj = make_traj(rng)
        track = make_track(rng, traj)
        field = make_field(rng)
        rep = total_cost(traj, track, field, PARAMS, CostWeights(), LIMITS)
        parsed = rep.term_values()
        assert set(parsed) == {"J_do", "J_ao", "J_oe", "J_f", "J_f_phi",
                               "J_s", "J_s_phi", "J_c", "J_v", "total"}


class TestInvariances:
    def test_translation(self):
        rng = np.random.default_rng(17)
        traj = make_traj(rng)
        track = make_track(rng, traj, dist=2.0)
        shift = rng.normal(size=3)
        traj2 = TrajectoryBSpline(traj.dt, traj.q + shift, traj.phi.copy())
        track2 = TargetTrack(track.c + shift)
        for fn in (lambda t, c: cost_do(t, c, PARAMS)[0],
                   lambda t, c: cost_ao(t, c, PARAMS)[0]):
            assert fn(traj, track) == pytest.approx(fn(traj2, track2), abs=1e-9)
        assert cost_feasibility(traj, LIMITS)[0] == pytest.approx(
            cost_feasibility(traj2, LIMITS)[0], abs=1e-9)
        assert cost_smoothness(traj)[0] == pytest.approx(
            cost_smoothness(traj2)[0], abs=1e-9)

    def test_z_rotation(self):
        rng = np.random.default_rng(18)
        traj = make_traj(rng)
        track = make_track(rng, traj, dist=2.0)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th), 0],
                      [np.sin(th), np.cos(th), 0], [0, 0, 1.0]])
        traj2 = TrajectoryBSpline(traj.dt, traj.q @ R.T, traj.phi + th)
        track2 = TargetTrack(track.c @ R.T)
        assert cost_do(traj, track, PARAMS)[0] == pytest.approx(
            cost_do(traj2, track2, PARAMS)[0], abs=1e-9)
        assert cost_ao(traj, track, PARAMS)[0] == pytest.approx(
            cost_ao(traj2, track2, PARAMS)[0], abs=1e-9)
        assert cost_feasibility(traj, LIMITS)[0] == pytest.approx(
            cost_feasibility(traj2, LIMITS)[0], abs=1e-9)
        assert cost_smoothness(traj)[0] == pytest.approx(
            cost_smoothness(traj2)[0], abs=1e-9)
        assert cost_safe_tracking(traj, PARAMS, LIMITS)[0] == pytest.approx(
            cost_safe_tracking(traj2, PARAMS, LIMITS)[0], abs=1e-9)

    def test_strictly_feasible_zero_gradient(self):
        # in band, aligned yaw, slow, clear of obstacles: every hinge off
        field = make_field(None, d_trunc=5.0)
        q = np.tile([2.0, 2.0, 0.0], (6, 1))
        track = TargetTrack(np.tile([5.0, 2.0, 0.0], (4, 1)))
        traj = TrajectoryBSpline(0.5, q, np.zeros(6))
        rep = total_cost(traj, track, field, PARAMS, CostWeights(), LIMITS)
        assert rep.total == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(rep.grad_q, 0.0) and np.allclose(rep.grad_phi, 0.0)
