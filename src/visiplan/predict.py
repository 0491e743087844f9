"""Target motion prediction from the observations of a trailing window.

A per-axis polynomial is fitted to the observations by ridge-regularized
least squares (the ridge acts on non-constant coefficients only). Forecast
speed is capped: once the fitted velocity would exceed the bound, the track
continues at the bound along the last direction (constant-velocity tail).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import TargetTrack

SPEED_PROBE_DT = 0.01     # s, spacing of the speed-bound probe


@dataclass
class PredictionModel:
    degree: int
    coeffs: np.ndarray = field(repr=False)   # (degree+1, 3), power basis in (t - t_ref)
    t_ref: float
    horizon: float
    v_max: float
    # where the forecast saturates: its time, position and capped velocity
    t_sat: float = field(init=False)
    p_sat: np.ndarray = field(init=False, repr=False)
    v_sat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.t_sat = _saturation_time(self)
        self.p_sat = self.position(self.t_sat)
        v = self.velocity(self.t_sat)
        speed = np.linalg.norm(v)
        self.v_sat = v / speed * self.v_max if speed > self.v_max else v

    def position(self, t: float) -> np.ndarray:
        s = t - self.t_ref
        powers = s ** np.arange(self.degree + 1)
        return powers @ self.coeffs

    def velocity(self, t: float) -> np.ndarray:
        s = t - self.t_ref
        k = np.arange(1, self.degree + 1)
        powers = k * s ** (k - 1)
        return powers @ self.coeffs[1:]


def fit(times, points, *, degree: int, ridge: float, horizon: float,
        v_max: float) -> PredictionModel:
    """Fit the prediction polynomial to the target positions `points` seen
    at the strictly increasing `times`; the caller picks the window."""
    if not len(times):
        raise ValueError("empty observation history")
    times = np.array(times, dtype=np.float64)
    if np.any(np.diff(times) <= 0):
        raise ValueError("observation timestamps must be strictly increasing")
    pts = np.array(points, dtype=np.float64)
    t_last = float(times[-1])

    deg = min(degree, len(times) - 1)
    coeffs = _ridge_polyfit(times - t_last, pts, deg, ridge)
    if coeffs is None:       # rank-deficient even with the ridge
        deg = 1
        coeffs = _ridge_polyfit(times - t_last, pts, deg, ridge)
        if coeffs is None:
            coeffs = np.vstack([pts[-1], np.zeros(3)])
    return PredictionModel(deg, coeffs, t_last, horizon, v_max)


def _ridge_polyfit(s: np.ndarray, y: np.ndarray, degree: int, ridge: float):
    basis = s[:, None] ** np.arange(degree + 1)[None, :]
    damp = np.eye(degree + 1)
    damp[0, 0] = 0.0          # constant term unregularized
    lhs = basis.T @ basis + ridge * damp
    try:
        coeffs = np.linalg.solve(lhs, basis.T @ y)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(coeffs).all():
        return None
    return coeffs


def _saturation_time(model: PredictionModel) -> float:
    """First forecast time, on a `SPEED_PROBE_DT` grid up to the validity
    horizon, at which fitted speed exceeds the bound; the horizon's end if
    none does."""
    t_end = model.t_ref + model.horizon
    s = np.arange(0.0, t_end - model.t_ref + SPEED_PROBE_DT, SPEED_PROBE_DT)
    k = np.arange(1, model.degree + 1)
    dbasis = k[None, :] * s[:, None] ** (k - 1)[None, :]
    speeds = np.linalg.norm(dbasis @ model.coeffs[1:], axis=1)
    over = np.nonzero(speeds > model.v_max)[0]
    if over.size == 0:
        return t_end
    return float(model.t_ref + s[over[0]])


def predict_track(model: PredictionModel, times) -> TargetTrack:
    """Evaluate the model at the given times (each >= the fit anchor).

    Beyond the speed bound or the validity horizon the track continues at
    the capped constant velocity, so each row depends on its own time only.
    """
    times = np.asarray(times, dtype=np.float64)
    out = np.zeros((times.size, 3))
    for i, t in enumerate(times):
        if t <= model.t_sat:
            out[i] = model.position(float(t))
        else:
            out[i] = model.p_sat + model.v_sat * (t - model.t_sat)
    return TargetTrack(out)
