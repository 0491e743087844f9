"""Objective terms for visibility-aware trajectory optimization.

Every term returns (value, grad_q, grad_phi) with grad_q shaped (N, 3) and
grad_phi shaped (N,), N the number of control points. Terms defined on knot
points propagate their gradients back through the (1/6, 4/6, 1/6) stencil;
derivative-bound terms propagate through the finite-difference stencils.

Inequality constraints enter through the C2 hinge penalty(x) = max(0, x)^3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .env import ESDFField
from .spline import TrajectoryBSpline, wrap_angle

DEGENERATE_EPS = 1e-6      # min horizontal robot-target distance for yaw terms
HOVER_EPS = 1e-3           # horizontal speed below which tracking is skipped
TRACKING_GATE_SPEED = 0.1  # full tracking-term strength above this speed


class DegenerateGeometryError(ValueError):
    """Robot and target horizontally coincident: best yaw undefined."""


@dataclass
class VisibilityParams:
    od_min: float = 2.5
    od_max: float = 3.5
    rho: float = 0.8
    m_balls: int = 10
    # literal published orientation of the best-yaw formula (target-to-robot);
    # default faces the sensor at the target instead
    ao_sign_as_printed: bool = False

    def __post_init__(self):
        if not 0 < self.od_min < self.od_max:
            raise ValueError("need 0 < od_min < od_max")
        if self.rho <= 0 or self.m_balls < 1:
            raise ValueError("rho must be positive and m_balls >= 1")


@dataclass
class CostWeights:
    w_do: float = 20.0
    w_ao: float = 10.0
    w_oe: float = 20.0
    w_f: float = 0.1
    w_f_phi: float = 0.1
    w_s: float = 1e-5
    w_s_phi: float = 1e-4
    w_c: float = 100.0
    w_v: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    def baseline(self) -> "CostWeights":
        """Visibility-blind variant: DO/AO/OE/safe-tracking zeroed."""
        return CostWeights(0.0, 0.0, 0.0, self.w_f, self.w_f_phi,
                           self.w_s, self.w_s_phi, self.w_c, 0.0)


@dataclass
class DynamicLimits:
    v_m: float = 5.0
    a_m: float = 6.0
    v_phi_m: float = 2.5
    a_phi_m: float = 5.0
    d_thr: float = 0.5
    psi_thr: float = 0.6

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


@dataclass
class TargetTrack:
    """Predicted target positions aligned with waypoint indices 1..N-2."""

    c: np.ndarray = field(repr=False)
    extrapolated: bool = False

    def __post_init__(self):
        self.c = np.atleast_2d(np.asarray(self.c, dtype=np.float64))

    def __len__(self):
        return self.c.shape[0]


@dataclass
class CostReport:
    do: float
    ao: float
    oe: float
    feasibility: float
    feasibility_yaw: float
    smoothness: float
    smoothness_yaw: float
    collision: float
    safe_tracking: float
    total: float
    grad_q: np.ndarray = field(repr=False)
    grad_phi: np.ndarray = field(repr=False)

    def term_values(self) -> dict[str, float]:
        return {
            "J_do": self.do, "J_ao": self.ao, "J_oe": self.oe,
            "J_f": self.feasibility, "J_f_phi": self.feasibility_yaw,
            "J_s": self.smoothness, "J_s_phi": self.smoothness_yaw,
            "J_c": self.collision, "J_v": self.safe_tracking,
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.term_values(), indent=2)


def penalty(x):
    """C2 hinge: 0 for x <= 0, x^3 beyond."""
    return np.maximum(0.0, x) ** 3


def penalty_derivative(x):
    return 3.0 * np.maximum(0.0, x) ** 2


def _check_track(traj: TrajectoryBSpline, target: TargetTrack):
    k = traj.num_control_points - 2
    if len(target) != k:
        raise ValueError(f"target track has {len(target)} entries, need {k}")


def _scatter_waypoint_grad(grad_wp: np.ndarray, n: int) -> np.ndarray:
    """Transpose of the knot-point stencil: waypoint gradients -> control
    point gradients."""
    out = np.zeros((n,) + grad_wp.shape[1:])
    out[:-2] += grad_wp / 6.0
    out[1:-1] += grad_wp * (4.0 / 6.0)
    out[2:] += grad_wp / 6.0
    return out


def best_yaw(p, c, as_printed: bool = False) -> float:
    """Yaw aligning the sensor axis with the target seen from p.

    With as_printed=True the angle points from target to robot instead
    (differs by pi); the gradient is identical either way.
    """
    d = (np.asarray(p, float) - np.asarray(c, float)) if as_printed \
        else (np.asarray(c, float) - np.asarray(p, float))
    if d[0] ** 2 + d[1] ** 2 < DEGENERATE_EPS ** 2:
        raise DegenerateGeometryError("robot and target horizontally coincident")
    return float(np.arctan2(d[1], d[0]))


def _best_yaw_array(p: np.ndarray, c: np.ndarray, as_printed: bool):
    d = (p - c) if as_printed else (c - p)
    ok = d[:, 0] ** 2 + d[:, 1] ** 2 >= DEGENERATE_EPS ** 2
    psi = np.arctan2(d[:, 1], d[:, 0])
    return psi, ok


def cost_do(traj: TrajectoryBSpline, target: TargetTrack,
            params: VisibilityParams):
    """Observation-distance band penalty on each knot point."""
    _check_track(traj, target)
    p, _ = traj.waypoints()
    rel = p - target.c
    d2 = (rel ** 2).sum(axis=1)
    lo = params.od_min ** 2 - d2
    hi = d2 - params.od_max ** 2
    value = float(penalty(lo).sum() + penalty(hi).sum())
    coeff = (penalty_derivative(hi) - penalty_derivative(lo))[:, None]
    grad_wp = coeff * 2.0 * rel
    n = traj.num_control_points
    return value, _scatter_waypoint_grad(grad_wp, n), np.zeros(n)


def cost_ao(traj: TrajectoryBSpline, target: TargetTrack,
            params: VisibilityParams):
    """Squared wrapped error between knot yaw and the best yaw; couples
    yaw and position control points."""
    _check_track(traj, target)
    p, psi = traj.waypoints()
    psi_best, ok = _best_yaw_array(p, target.c, params.ao_sign_as_printed)
    diff = wrap_angle(psi - psi_best)
    diff = np.where(ok, diff, 0.0)
    value = float((diff ** 2).sum())

    L = p - target.c
    hor = L[:, 0] ** 2 + L[:, 1] ** 2
    hor = np.where(ok, hor, 1.0)
    grad_wp = np.zeros_like(p)
    grad_wp[:, 0] = 2.0 * diff / hor * L[:, 1]
    grad_wp[:, 1] = -2.0 * diff / hor * L[:, 0]
    grad_wp[~ok] = 0.0
    grad_psi_wp = 2.0 * diff

    n = traj.num_control_points
    return value, _scatter_waypoint_grad(grad_wp, n), \
        _scatter_waypoint_grad(grad_psi_wp, n)


def cost_oe(traj: TrajectoryBSpline, target: TargetTrack,
            params: VisibilityParams, esdf: ESDFField):
    """Occlusion penalty: the confident-FOV balls between each knot point
    and its target must stay inside free space."""
    _check_track(traj, target)
    p, _ = traj.waypoints()
    c = target.c
    rel = p - c                                   # (K, 3)
    d = np.linalg.norm(rel, axis=1)
    safe_d = np.where(d < 1e-12, 1.0, d)

    lam = np.arange(1, params.m_balls + 1) / params.m_balls     # (M,)
    centers = p[:, None, :] + lam[None, :, None] * (c - p)[:, None, :]
    radii = params.rho * lam[None, :] * d[:, None]              # (K, M)

    k, m = radii.shape
    flat = centers.reshape(-1, 3)
    xi, xi_grad = esdf.distance_and_gradient(flat)
    xi = xi.reshape(k, m)
    xi_grad = xi_grad.reshape(k, m, 3)

    f_oe = radii ** 2 - xi ** 2
    value = float(penalty(f_oe).sum())

    dpen = penalty_derivative(f_oe)                             # (K, M)
    dd_dp = rel / safe_d[:, None]                               # (K, 3)
    # d(r^2)/dp = 2 rho r lam * dd/dp ; d(-xi^2)/dp = -2 (1-lam) xi grad_xi
    term_r = (2.0 * params.rho * radii * lam[None, :])[:, :, None] * dd_dp[:, None, :]
    term_x = -2.0 * ((1.0 - lam)[None, :] * xi)[:, :, None] * xi_grad
    grad_wp = (dpen[:, :, None] * (term_r + term_x)).sum(axis=1)

    n = traj.num_control_points
    return value, _scatter_waypoint_grad(grad_wp, n), np.zeros(n)


def _feasibility(ctrl: np.ndarray, dt: float, v_max: float, a_max: float):
    """Shared position/yaw derivative-bound penalty over control points.
    ctrl is (N, D); returns value and (N, D) gradient."""
    v = np.diff(ctrl, axis=0) / dt
    a = np.diff(v, axis=0) / dt
    v2 = (v ** 2).sum(axis=-1)
    a2 = (a ** 2).sum(axis=-1)
    value = float(penalty(v2 - v_max ** 2).sum() + penalty(a2 - a_max ** 2).sum())

    grad = np.zeros_like(ctrl)
    gv = penalty_derivative(v2 - v_max ** 2)[:, None] * 2.0 * v / dt
    grad[:-1] -= gv
    grad[1:] += gv
    ga = penalty_derivative(a2 - a_max ** 2)[:, None] * 2.0 * a / dt ** 2
    grad[:-2] += ga
    grad[1:-1] -= 2.0 * ga
    grad[2:] += ga
    return value, grad


def cost_feasibility(traj: TrajectoryBSpline, limits: DynamicLimits):
    value, grad = _feasibility(traj.q, traj.dt, limits.v_m, limits.a_m)
    return value, grad, np.zeros(traj.num_control_points)


def cost_yaw_feasibility(traj: TrajectoryBSpline, limits: DynamicLimits):
    value, grad = _feasibility(traj.phi[:, None], traj.dt,
                               limits.v_phi_m, limits.a_phi_m)
    return value, np.zeros_like(traj.q), grad[:, 0]


def _smoothness(ctrl: np.ndarray, dt: float):
    j = np.diff(ctrl, n=3, axis=0) / dt ** 3
    value = float((j ** 2).sum())
    grad = np.zeros_like(ctrl)
    gj = 2.0 * j / dt ** 3
    grad[:-3] -= gj
    grad[1:-2] += 3.0 * gj
    grad[2:-1] -= 3.0 * gj
    grad[3:] += gj
    return value, grad


def cost_smoothness(traj: TrajectoryBSpline):
    """Sum of squared jerk control points."""
    value, grad = _smoothness(traj.q, traj.dt)
    return value, grad, np.zeros(traj.num_control_points)


def cost_yaw_smoothness(traj: TrajectoryBSpline):
    value, grad = _smoothness(traj.phi[:, None], traj.dt)
    return value, np.zeros_like(traj.q), grad[:, 0]


def cost_collision(traj: TrajectoryBSpline, limits: DynamicLimits,
                   esdf: ESDFField):
    """Clearance penalty on every control point.

    The published expression carries a trailing obstacle-distance factor that
    would null the force exactly in contact; the plain hinge on
    d_thr^2 - Xi^2 is used instead (see VisibilityParams.ao_sign_as_printed
    for the same spirit of switchable literalism; here the literal variant is
    not offered because it inverts the repulsion).
    """
    xi, xi_grad = esdf.distance_and_gradient(traj.q)
    arg = limits.d_thr ** 2 - xi ** 2
    value = float(penalty(arg).sum())
    grad = penalty_derivative(arg)[:, None] * (-2.0 * xi[:, None]) * xi_grad
    return value, grad, np.zeros(traj.num_control_points)


def cost_safe_tracking(traj: TrajectoryBSpline, params: VisibilityParams,
                       limits: DynamicLimits):
    """Keeps the knot-point velocity direction within psi_thr of the yaw so
    the vehicle flies into seen space.

    The velocity direction is meaningless near hover, so the penalty fades
    smoothly to zero below TRACKING_GATE_SPEED (a hard skip would make the
    objective discontinuous exactly where smoothing drives trajectories).
    Above the gate the term equals the plain penalty.
    """
    q, phi = traj.q, traj.phi
    n = traj.num_control_points
    # knot velocity: average of the two adjacent velocity control points
    v = (q[2:] - q[:-2]) / (2.0 * traj.dt)            # (K, 3)
    _, psi = traj.waypoints()
    hor2 = v[:, 0] ** 2 + v[:, 1] ** 2
    ok = hor2 >= HOVER_EPS ** 2

    lo = HOVER_EPS ** 2
    hi = TRACKING_GATE_SPEED ** 2
    u = np.clip((hor2 - lo) / (hi - lo), 0.0, 1.0)
    gate = u * u * (3.0 - 2.0 * u)
    dgate = np.where((u > 0.0) & (u < 1.0), 6.0 * u * (1.0 - u) / (hi - lo), 0.0)

    psi_v = np.arctan2(v[:, 1], v[:, 0])
    diff = np.where(ok, wrap_angle(psi_v - psi), 0.0)
    arg = diff ** 2 - limits.psi_thr ** 2
    pen = penalty(arg)
    value = float((gate * pen).sum())

    coeff = gate * penalty_derivative(arg) * 2.0 * diff     # dJ/d(diff)
    safe_hor2 = np.where(ok, hor2, 1.0)
    # d psi_v / dv = (-vy, vx, 0) / |v_xy|^2, v depends on q[k-1], q[k+1]
    gv = np.zeros((n - 2, 3))
    gv[:, 0] = coeff * (-v[:, 1] / safe_hor2) + dgate * pen * 2.0 * v[:, 0]
    gv[:, 1] = coeff * (v[:, 0] / safe_hor2) + dgate * pen * 2.0 * v[:, 1]
    gv[~ok] = 0.0
    grad_q = np.zeros_like(q)
    grad_q[2:] += gv / (2.0 * traj.dt)
    grad_q[:-2] -= gv / (2.0 * traj.dt)

    grad_phi = _scatter_waypoint_grad(np.where(ok, -coeff, 0.0), n)
    return value, grad_q, grad_phi


def total_cost(traj: TrajectoryBSpline, target: TargetTrack, esdf: ESDFField,
               params: VisibilityParams, weights: CostWeights,
               limits: DynamicLimits, fix_boundary: bool = True) -> CostReport:
    """Weighted sum of all terms. With fix_boundary the first three position
    and yaw control points carry zero gradient (they encode the current
    robot state and are held fixed by the optimizer).
    """
    n = traj.num_control_points
    grad_q = np.zeros((n, 3))
    grad_phi = np.zeros(n)
    vals = {}

    terms = [
        ("do", weights.w_do, lambda: cost_do(traj, target, params)),
        ("ao", weights.w_ao, lambda: cost_ao(traj, target, params)),
        ("oe", weights.w_oe, lambda: cost_oe(traj, target, params, esdf)),
        ("feasibility", weights.w_f, lambda: cost_feasibility(traj, limits)),
        ("feasibility_yaw", weights.w_f_phi,
         lambda: cost_yaw_feasibility(traj, limits)),
        ("smoothness", weights.w_s, lambda: cost_smoothness(traj)),
        ("smoothness_yaw", weights.w_s_phi, lambda: cost_yaw_smoothness(traj)),
        ("collision", weights.w_c, lambda: cost_collision(traj, limits, esdf)),
        ("safe_tracking", weights.w_v,
         lambda: cost_safe_tracking(traj, params, limits)),
    ]
    for name, w, fn in terms:
        if w == 0.0:
            vals[name] = 0.0
            continue
        v, gq, gp = fn()
        vals[name] = v
        grad_q += w * gq
        grad_phi += w * gp

    if fix_boundary:
        grad_q[:3] = 0.0
        grad_phi[:3] = 0.0

    total = sum(w * vals[name] for name, w, _ in terms)
    return CostReport(vals["do"], vals["ao"], vals["oe"], vals["feasibility"],
                      vals["feasibility_yaw"], vals["smoothness"],
                      vals["smoothness_yaw"], vals["collision"],
                      vals["safe_tracking"], float(total), grad_q, grad_phi)
