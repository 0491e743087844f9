"""Quasi-Newton minimization of the total cost over free control points.

Decision variables are the free position control points (index 3 onward,
three scalars each) followed by the free yaw control points, yaw scaled to
meters so the two blocks are comparably conditioned. The first three
position and yaw control points encode the robot's current state and are
never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .costs import (CostReport, CostWeights, DynamicLimits, TargetTrack,
                    VisibilityParams, total_cost, weighted_terms)
from .env import ESDFField, require_valid_fields
from .spline import TrajectoryBSpline

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_HISTORY_SIZE = 8            # curvature pairs kept by the L-BFGS update
_MAX_LINE_SEARCH_STEPS = 40


class Termination(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    LINE_SEARCH_FAILURE = "line_search_failure"


class NumericError(RuntimeError):
    """Non-finite value or gradient in a cost term."""


@dataclass
class OptimizerConfig:
    max_iterations: int = 20
    gradient_tolerance: float = 1e-5
    relative_cost_tolerance: float = 1e-8

    def __post_init__(self):
        require_valid_fields(self)


@dataclass
class OptimizeResult:
    trajectory: TrajectoryBSpline
    final_report: CostReport
    iterations: int
    termination: Termination
    # (iteration, term values) of the seed and of each accepted iterate
    trace: list = field(repr=False)


def _find_nonfinite_term(traj, target, esdf, params, weights, limits) -> str:
    for term, _, (v, gq, gp) in weighted_terms(traj, target, esdf, params,
                                               weights, limits):
        if not (np.isfinite(v) and np.isfinite(gq).all() and np.isfinite(gp).all()):
            return f"cost_{term.name}"
    return "unknown term"


def optimize(initial: TrajectoryBSpline, target: TargetTrack, esdf: ESDFField,
             params: VisibilityParams, weights: CostWeights,
             limits: DynamicLimits,
             config: OptimizerConfig | None = None) -> OptimizeResult:
    """Minimize the weighted total cost; returns the last accepted iterate,
    whose cost is the lowest among the seed and the accepted iterates.

    Guarantees: the accepted cost sequence is non-increasing, the first three
    position/yaw control points are returned bit-identical, and the result is
    deterministic for identical inputs.
    """
    cfg = config or OptimizerConfig()
    traj = initial.copy()
    n = traj.num_control_points
    nf = n - 3                       # free control points per block
    w_q, w_phi = whitening_factors(n, traj.dt, weights, params.od_max)

    def pack(t: TrajectoryBSpline) -> np.ndarray:
        return np.concatenate([solve_triangular(w_q, t.q[3:]).ravel(),
                               solve_triangular(w_phi, t.phi[3:])])

    def unpack_into(x: np.ndarray, t: TrajectoryBSpline):
        t.q[3:] = w_q @ x[:3 * nf].reshape(nf, 3)
        t.phi[3:] = w_phi @ x[3 * nf:]

    def eval_at(x: np.ndarray):
        # the gradient is pulled back through the exact transpose of the
        # map unpack_into applied
        unpack_into(x, traj)
        rep = total_cost(traj, target, esdf, params, weights, limits)
        g = np.concatenate([(w_q.T @ rep.grad_q[3:]).ravel(),
                            w_phi.T @ rep.grad_phi[3:]])
        return rep, g

    x = pack(traj)
    report, grad = eval_at(x)
    if not (np.isfinite(report.total) and np.isfinite(grad).all()):
        raise NumericError("non-finite initial cost in "
                           + _find_nonfinite_term(traj, target, esdf, params,
                                                  weights, limits))

    trace = [(0, report.term_values())]

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    termination = Termination.MAX_ITER
    iteration = 0

    while iteration < cfg.max_iterations:
        if np.max(np.abs(grad)) <= cfg.gradient_tolerance:
            termination = Termination.CONVERGED
            break

        d = _lbfgs_direction(grad, s_hist, y_hist)
        if d @ grad >= 0.0:      # not a descent direction; reset memory
            s_hist.clear()
            y_hist.clear()
            d = -grad

        # without curvature information a unit step along -grad can be
        # arbitrarily large; start at a unit-length move instead
        step = 1.0 if s_hist else min(1.0, 1.0 / max(np.linalg.norm(d), 1.0))
        f0, g_dot_d = report.total, grad @ d
        accepted = None
        for _ in range(_MAX_LINE_SEARCH_STEPS):
            x_new = x + step * d
            rep_new, grad_new = eval_at(x_new)
            if not (np.isfinite(rep_new.total) and np.isfinite(grad_new).all()):
                unpack_into(x_new, traj)
                raise NumericError(
                    "non-finite cost or gradient in "
                    + _find_nonfinite_term(traj, target, esdf, params,
                                           weights, limits))
            if rep_new.total <= f0 + _ARMIJO_C1 * step * g_dot_d:
                accepted = (x_new, rep_new, grad_new)
                break
            step *= _BACKTRACK
        if accepted is None:
            termination = Termination.LINE_SEARCH_FAILURE
            break

        x_new, rep_new, grad_new = accepted
        s_hist.append(x_new - x)
        y_hist.append(grad_new - grad)
        if len(s_hist) > _HISTORY_SIZE:
            s_hist.pop(0)
            y_hist.pop(0)

        rel_drop = (report.total - rep_new.total) / max(abs(report.total), 1e-300)
        x, report, grad = x_new, rep_new, grad_new
        iteration += 1
        trace.append((iteration, report.term_values()))
        if rel_drop <= cfg.relative_cost_tolerance:
            termination = Termination.CONVERGED
            break

    unpack_into(x, traj)
    return OptimizeResult(traj, report, iteration, termination, trace)


@lru_cache(maxsize=16)
def whitening_factors(n: int, dt: float, weights: CostWeights,
                      od_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular inverse whitening factors (w_q, w_phi), w = r^-1
    for the upper Cholesky factor r of h (r.T @ r = h), so w.T @ h @ w = I:
    the free position and yaw control points of an n-point spline are
    w @ x for whitened variables x.

    Jerk smoothness carries curvature ~w/dt^6 and the derivative bounds
    ~w/dt^2, dwarfing the O(1) visibility terms and stalling the
    limited-memory updates. Decision variables are the control points mapped
    through the Cholesky factor of alpha*I + smoothness Hessian + a
    velocity-bound curvature estimate. Yaw keeps at least the od_max
    meters-per-radian conversion via alpha.

    Built once per distinct set of arguments and shared by every later call
    with them, so the factors are read-only.
    """
    nf = n - 3
    d3 = np.diff(np.eye(n), 3, axis=0)[:, 3:] / dt ** 3
    d1 = np.diff(np.eye(n), 1, axis=0)[:, 3:] / dt
    smooth_h = d3.T @ d3
    feas_h = d1.T @ d1
    h_q = np.eye(nf) + 2.0 * weights.w_s * smooth_h + 4.0 * weights.w_f * feas_h
    h_phi = od_max ** 2 * np.eye(nf) \
        + 2.0 * weights.w_s_phi * smooth_h + 4.0 * weights.w_f_phi * feas_h
    w_q, w_phi = (np.triu(np.linalg.inv(np.linalg.cholesky(h).T))
                  for h in (h_q, h_phi))
    w_q.flags.writeable = w_phi.flags.writeable = False
    return w_q, w_phi


def solve_triangular(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for a square, nonsingular `a`; a singular one raises
    np.linalg.LinAlgError. The optimizer maps control points to whitened
    variables with it, twice per call."""
    return np.linalg.solve(a, b)


def _lbfgs_direction(grad: np.ndarray, s_hist, y_hist) -> np.ndarray:
    """Two-loop recursion over the stored curvature pairs."""
    q = -grad.copy()
    if not s_hist:
        return q
    alphas = []
    rhos = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        sy = s @ y
        if sy <= 1e-12:
            rhos.append(0.0)
            alphas.append(0.0)
            continue
        rho = 1.0 / sy
        a = rho * (s @ q)
        q -= a * y
        rhos.append(rho)
        alphas.append(a)
    s, y = s_hist[-1], y_hist[-1]
    yy = y @ y
    sy = s @ y
    if sy > 1e-12 and yy > 1e-12:
        q *= sy / yy
    for (s, y), rho, a in zip(zip(s_hist, y_hist), reversed(rhos),
                              reversed(alphas)):
        if rho == 0.0:
            continue
        b = rho * (y @ q)
        q += (a - b) * s
    return q
