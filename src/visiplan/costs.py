"""Objective terms for visibility-aware trajectory optimization.

Every term returns (value, grad_q, grad_phi) with grad_q shaped (N, 3) and
grad_phi shaped (N,), N the number of control points. Terms defined on knot
points propagate their gradients back through the (1/6, 4/6, 1/6) stencil;
derivative-bound terms propagate through the finite-difference stencils.

Inequality constraints enter through the C2 hinge penalty(x) = max(0, x)^3.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .env import ESDFField, require, require_valid_fields
from .spline import TrajectoryBSpline, wrap_angle

DEGENERATE_EPS = 1e-6      # min horizontal robot-target distance for yaw terms
HOVER_EPS = 1e-3           # horizontal speed below which tracking is skipped
TRACKING_GATE_SPEED = 0.1  # full tracking-term strength above this speed


@dataclass(frozen=True)
class VisibilityParams:
    """The camera's fixed visibility model; it takes no arguments."""
    od_min = 2.5                # observation-distance band (m)
    od_max = 3.5
    rho = 0.8                   # confident-FOV ball radius ratio
    m_balls = 10                # balls per sight line, centered at:
    ball_fractions = np.arange(1, m_balls + 1) / m_balls
    ball_fractions.setflags(write=False)
    standoff = 0.5 * (od_min + od_max)      # the search's goal distance
    echoed = ("od_min", "od_max", "rho", "m_balls")     # into report.json


@dataclass(frozen=True)
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
        require_valid_fields(self, nonnegative={f.name for f in fields(self)})

    def baseline(self) -> "CostWeights":
        """Visibility-blind variant: DO/AO/OE/safe-tracking zeroed."""
        return replace(self, w_do=0.0, w_ao=0.0, w_oe=0.0, w_v=0.0)


@dataclass
class DynamicLimits:
    v_m: float = 5.0
    a_m: float = 6.0
    v_phi_m: float = 3.0
    a_phi_m: float = 6.0
    d_thr: float = 0.4
    psi_thr: float = 0.6

    def __post_init__(self):
        require_valid_fields(self)
        # the costs and the search square every limit
        for f in fields(self):
            value = float(getattr(self, f.name))
            require(math.isfinite(value * value), f.name,
                    "have a finite square", value)
        # the search sums a_m squared over up to three axes
        require(math.isfinite(3.0 * float(self.a_m) ** 2), "a_m",
                "have a finite square times 3", self.a_m)


@dataclass
class TargetTrack:
    """Predicted target positions aligned with waypoint indices 1..N-2."""

    c: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.c = np.atleast_2d(np.asarray(self.c, dtype=np.float64))

    def __len__(self):
        return self.c.shape[0]


@dataclass
class CostReport:
    terms: dict[str, float]     # unweighted value by term name, TERMS order
    total: float
    grad_q: np.ndarray = field(repr=False)
    grad_phi: np.ndarray = field(repr=False)

    def term_values(self) -> dict[str, float]:
        """Term values by column name, in TERMS order, then the total."""
        values = {t.column: self.terms[t.name] for t in TERMS}
        values["total"] = self.total
        return values


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


def _best_yaw_array(p: np.ndarray, c: np.ndarray):
    """Yaws (N,) aligning the sensor axis with the targets c seen from the
    points p, and a mask (N,) that is false where robot and target are
    horizontally coincident and the yaw is undefined.

    The published formula measures the opposite ray, from target to robot,
    which differs by pi and has the same gradient.
    """
    d = c - p
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
    psi_best, ok = _best_yaw_array(p, target.c)
    diff = wrap_angle(psi - psi_best)
    diff = np.where(ok, diff, 0.0)
    value = float((diff ** 2).sum())

    L = p - target.c
    hor = L[:, 0] ** 2 + L[:, 1] ** 2
    hor = np.where(ok, hor, 1.0)
    grad_wp = np.zeros_like(p)
    grad_wp[:, 0] = 2.0 * diff / hor * L[:, 1]
    grad_wp[:, 1] = -2.0 * diff / hor * L[:, 0]
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

    lam = params.ball_fractions                                 # (M,)
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

    The published expression carries a trailing obstacle-distance factor
    that nulls the force exactly in contact and inverts the repulsion; the
    plain hinge on d_thr^2 - Xi^2 is used instead.
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
    grad_q = np.zeros_like(q)
    grad_q[2:] += gv / (2.0 * traj.dt)
    grad_q[:-2] -= gv / (2.0 * traj.dt)

    return value, grad_q, _scatter_waypoint_grad(-coeff, n)


# Every objective term, in evaluation order: its key in `CostReport.terms`,
# its CostWeights field, and the arguments its function cost_<name> takes.
Term = namedtuple("Term", "name weight args")
# its column in `CostReport.term_values` and the trace files: J_do for w_do
Term.column = property(lambda term: "J" + term.weight[1:])
TERMS = (
    Term("do", "w_do", ("traj", "target", "params")),
    Term("ao", "w_ao", ("traj", "target", "params")),
    Term("oe", "w_oe", ("traj", "target", "params", "esdf")),
    Term("feasibility", "w_f", ("traj", "limits")),
    Term("yaw_feasibility", "w_f_phi", ("traj", "limits")),
    Term("smoothness", "w_s", ("traj",)),
    Term("yaw_smoothness", "w_s_phi", ("traj",)),
    Term("collision", "w_c", ("traj", "limits", "esdf")),
    Term("safe_tracking", "w_v", ("traj", "params", "limits")),
)


def weighted_terms(traj, target, esdf, params, weights, limits):
    """(term, weight, (value, grad_q, grad_phi)) for each term of TERMS with
    a nonzero weight, in order. Term functions are looked up when called, so
    a replaced module attribute is the one that runs."""
    args = {"traj": traj, "target": target, "esdf": esdf, "params": params,
            "limits": limits}
    for term in TERMS:
        w = getattr(weights, term.weight)
        if w != 0.0:
            yield term, w, globals()["cost_" + term.name](
                *[args[a] for a in term.args])


def total_cost(traj: TrajectoryBSpline, target: TargetTrack, esdf: ESDFField,
               params: VisibilityParams, weights: CostWeights,
               limits: DynamicLimits) -> CostReport:
    """Weighted sum of all terms, with the gradient over every position and
    yaw control point."""
    n = traj.num_control_points
    grad_q = np.zeros((n, 3))
    grad_phi = np.zeros(n)
    vals = dict.fromkeys([t.name for t in TERMS], 0.0)
    total = 0.0
    for term, w, (v, gq, gp) in weighted_terms(traj, target, esdf, params,
                                               weights, limits):
        vals[term.name] = v
        total += w * v
        grad_q += w * gq
        grad_phi += w * gp
    return CostReport(vals, float(total), grad_q, grad_phi)
