"""Uniform unclamped cubic B-spline over position (R^3) and yaw.

Control points live on a uniform knot lattice with span dt; the curve spans
t in [0, (N - 3) * dt]. Yaw control points are kept unwrapped (cumulative
angle) so stencils and squared differences stay continuous; wrap to
(-pi, pi] only when presenting angles externally.

Index convention: the 1-based knot-point index k in 1..N-2 maps to 0-based
control points (k-1, k, k+1). evaluate(m * dt) equals row m of waypoints().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# uniform cubic basis, rows multiply [u^3, u^2, u, 1]
_BASIS = np.array([[-1.0, 3.0, -3.0, 1.0],
                   [3.0, -6.0, 3.0, 0.0],
                   [-3.0, 0.0, 3.0, 0.0],
                   [1.0, 4.0, 1.0, 0.0]]) / 6.0
# ridge of the seed fit in `initialize_from_path`
_SEED_RIDGE = 1e-6


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    w = -((-np.asarray(a) + np.pi) % (2.0 * np.pi) - np.pi)
    return float(w) if np.isscalar(a) else w


@dataclass
class RobotState:
    """Flat-output state used to pin trajectory boundary conditions."""

    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    yaw: float
    yaw_rate: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)

    @classmethod
    def at_rest(cls, p, yaw: float) -> "RobotState":
        return cls(np.asarray(p, float), np.zeros(3), np.zeros(3), float(yaw))


@dataclass
class TrajectoryBSpline:
    dt: float
    q: np.ndarray = field(repr=False)      # (N, 3) position control points
    phi: np.ndarray = field(repr=False)    # (N,) yaw control points, unwrapped

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.q.ndim != 2 or self.q.shape[1] != 3:
            raise ValueError("q must be (N, 3)")
        if self.phi.shape != (self.q.shape[0],):
            raise ValueError("phi must align with q")
        if self.num_control_points < 4:
            raise ValueError("need at least 4 control points")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def num_control_points(self) -> int:
        return self.q.shape[0]

    def duration(self) -> float:
        return (self.num_control_points - 3) * self.dt

    def copy(self) -> "TrajectoryBSpline":
        return TrajectoryBSpline(self.dt, self.q.copy(), self.phi.copy())

    # --- knot points ---------------------------------------------------------

    def waypoints(self) -> tuple[np.ndarray, np.ndarray]:
        """All knot points at once: positions (N-2, 3) and yaws (N-2,),
        row r holding waypoint index k = r + 1.
        """
        q, phi = self.q, self.phi
        p = (q[:-2] + 4.0 * q[1:-1] + q[2:]) / 6.0
        psi = (phi[:-2] + 4.0 * phi[1:-1] + phi[2:]) / 6.0
        return p, psi

    # --- evaluation ------------------------------------------------------------

    def _segment(self, t: float) -> tuple[int, float]:
        dur = self.duration()
        if not -1e-9 <= t <= dur + 1e-9:
            raise ValueError(f"t={t} outside [0, {dur}]")
        s = int(np.floor(min(max(t, 0.0), dur) / self.dt))
        s = min(s, self.num_control_points - 4)
        return s, t / self.dt - s

    def evaluate(self, t: float) -> tuple[np.ndarray, float]:
        """Curve value at time t: (position, yaw)."""
        s, u = self._segment(t)
        w = np.array([u ** 3, u ** 2, u, 1.0]) @ _BASIS
        return w @ self.q[s:s + 4], float(w @ self.phi[s:s + 4])

    def evaluate_derivative(self, t: float, order: int = 1):
        """Time derivative of (position, yaw) at t for order 1 or 2."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        s, u = self._segment(t)
        if order == 1:
            poly = np.array([3 * u ** 2, 2 * u, 1.0, 0.0])
        else:
            poly = np.array([6 * u, 2.0, 0.0, 0.0])
        w = (poly @ _BASIS) / self.dt ** order
        return w @ self.q[s:s + 4], float(w @ self.phi[s:s + 4])

    def state_at(self, t: float) -> RobotState:
        p, psi = self.evaluate(t)
        v, dpsi = self.evaluate_derivative(t, 1)
        a, _ = self.evaluate_derivative(t, 2)
        return RobotState(p, v, a, psi, dpsi)


def boundary_control_points(state: RobotState, dt: float):
    """First three position and yaw control points pinning the spline's
    initial position/velocity/acceleration and yaw/yaw-rate.
    """
    p0, v0, a0 = state.p, state.v, state.a
    q1 = p0 - a0 * dt * dt / 6.0
    q0 = p0 + a0 * dt * dt / 3.0 - v0 * dt
    q2 = p0 + a0 * dt * dt / 3.0 + v0 * dt
    phi = np.array([state.yaw - state.yaw_rate * dt,
                    state.yaw,
                    state.yaw + state.yaw_rate * dt])
    return np.stack([q0, q1, q2]), phi


def _basis_row(t: float, dt: float, n: int) -> np.ndarray:
    """Row of basis weights over all n control points at time t."""
    s = min(int(np.floor(t / dt)), n - 4)
    u = t / dt - s
    row = np.zeros(n)
    row[s:s + 4] = np.array([u ** 3, u ** 2, u, 1.0]) @ _BASIS
    return row


def initialize_from_path(path_points, path_times, state: RobotState, dt: float,
                         num_control_points: int,
                         yaw_targets=None) -> TrajectoryBSpline:
    """Seed a trajectory from a timestamped front-end path.

    The first three control points are solved from `state` (exact boundary
    conditions); the rest are fitted to the path by least squares with
    ridge `_SEED_RIDGE`. The ridge pulls toward a nominal guess (each free
    control point at the path position nearest its knot time) rather than
    zero, so unconstrained directions fall back to something sensible.

    yaw_targets optionally overrides the per-path-point heading used to fit
    yaw control points (default: direction of motion along the path).
    """
    n = int(num_control_points)
    if n < 4:
        raise ValueError("need at least 4 control points")
    pts = np.atleast_2d(np.asarray(path_points, dtype=np.float64))
    times = np.asarray(path_times, dtype=np.float64)
    if pts.shape[0] != times.shape[0] or pts.shape[0] == 0:
        raise ValueError("path points and times must align and be nonempty")
    if np.any(np.diff(times) <= 0) and times.shape[0] > 1:
        raise ValueError("path timestamps must be strictly increasing")

    q_fix, phi_fix = boundary_control_points(state, dt)
    duration = (n - 3) * dt

    spread = float(np.max(np.linalg.norm(pts - pts[0], axis=1))) if len(pts) > 1 else 0.0
    if len(pts) == 1 or spread < 1e-12:
        # degenerate path: hover at the point, keep boundary conditions
        q = np.vstack([q_fix, np.tile(pts[0], (n - 3, 1))])
        phi = np.concatenate([phi_fix, np.full(n - 3, state.yaw)])
        return TrajectoryBSpline(dt, q, phi)

    keep = times <= duration + 1e-9
    pts, times = pts[keep], np.minimum(times[keep], duration)
    if yaw_targets is not None:
        yaw_targets = np.asarray(yaw_targets, dtype=np.float64)[keep]

    # nominal guess: path position at each free control point's knot time
    knot_t = np.clip((np.arange(3, n) - 1) * dt, times[0], times[-1])
    guess = np.stack([np.interp(knot_t, times, pts[:, d]) for d in range(3)], axis=1)

    B = np.stack([_basis_row(t, dt, n) for t in times])
    B_fix, B_free = B[:, :3], B[:, 3:]
    resid = pts - B_fix @ q_fix
    lhs = B_free.T @ B_free + _SEED_RIDGE * np.eye(n - 3)
    q_free = np.linalg.solve(lhs, B_free.T @ resid + _SEED_RIDGE * guess)
    q = np.vstack([q_fix, q_free])

    if yaw_targets is None:
        # face the direction of motion of the fitted curve (raw primitive
        # segments zigzag too much to steer yaw); hold the last heading
        # through slow phases where the direction is numerically meaningless
        v = (q[2:] - q[:-2]) / (2.0 * dt)
        speed = np.hypot(v[:, 0], v[:, 1])
        yaw_fit = np.empty(n - 2)
        prev = state.yaw
        for r in range(n - 2):
            if speed[r] >= 0.6:
                delta = wrap_angle(np.arctan2(v[r, 1], v[r, 0]) - prev)
                # backward drift flips the heading by pi; fly backward
                # instead of spinning around, and rate-limit the swing so
                # braking-phase direction noise cannot whip the yaw
                if abs(delta) <= np.pi / 2:
                    prev = prev + np.clip(delta, -0.15, 0.15)
            yaw_fit[r] = prev
        knot_times = np.arange(n - 2) * dt
        yaw_guess = np.interp(knot_t, knot_times, yaw_fit)
        S = np.zeros((n - 2, n))
        for r in range(n - 2):
            S[r, r:r + 3] = [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0]
        S_fix, S_free = S[:, :3], S[:, 3:]
        lhs_phi = S_free.T @ S_free + _SEED_RIDGE * np.eye(n - 3)
        resid_phi = yaw_fit - S_fix @ phi_fix
        phi_free = np.linalg.solve(lhs_phi,
                                   S_free.T @ resid_phi
                                   + _SEED_RIDGE * yaw_guess)
    else:
        yaw_targets = np.asarray(yaw_targets, dtype=np.float64)
        # keep the fit continuous with the current yaw
        yaw_fit = np.unwrap(np.concatenate([[state.yaw], yaw_targets]))[1:]
        yaw_guess = np.interp(knot_t, times, yaw_fit)
        resid_phi = yaw_fit - B_fix @ phi_fix
        phi_free = np.linalg.solve(lhs,
                                   B_free.T @ resid_phi
                                   + _SEED_RIDGE * yaw_guess)
    phi = np.concatenate([phi_fix, phi_free])
    return TrajectoryBSpline(dt, q, phi)
