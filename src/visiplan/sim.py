"""Headless tracking simulator.

Steps a scripted or randomized target, replans at a fixed rate
(predict -> search -> optimize), advances the robot by exact evaluation of
the committed trajectory, and scores visibility per step. A run ends at its
scheduled duration, at the first step the target is lost (occluded or out of
the FOV cone -- latched), or when the planner has nothing left to execute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .costs import CostWeights, DynamicLimits, VisibilityParams
from .env import (ESDFField, GridError, OccupancyGrid, build_esdf,
                  finite_array, load_grid)
from .optimizer import OptimizerConfig, optimize
from .predict import HistoryBuffer, fit, predict_track
from .search import (SearchConfig, SearchError, raycast_occluded,
                     search)
from .spline import RobotState, initialize_from_path, wrap_angle

HEATMAP_WINDOW = 8.0      # meters, robot-centered, x-y
HEATMAP_BIN = 0.25


class ScenarioError(ValueError):
    """Malformed or unresolvable scenario description."""


def bundled_scenario(name: str) -> Path:
    """Path of a scenario shipped with the package (case1, case2, forest,
    mini)."""
    path = Path(__file__).parent / "scenarios" / f"{name}.json"
    if not path.exists():
        raise ScenarioError(f"no bundled scenario named '{name}'")
    return path


# ---------------------------------------------------------------------------
# target motion scripts


class WaypointScript:
    """Piecewise-linear target motion through timestamped waypoints."""

    def __init__(self, times, points):
        self.times = np.asarray(times, dtype=np.float64)
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.times.size != self.points.shape[0] or self.times.size == 0:
            raise ScenarioError("target script times/points mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ScenarioError("target script times must increase")

    @classmethod
    def from_path(cls, points, speed: float, start_hold: float = 0.0):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = [pts[0]]
        times = [0.0]
        if start_hold > 0:
            out.append(pts[0])
            times.append(start_hold)
        for a, b in zip(pts[:-1], pts[1:]):
            seg_t = float(np.linalg.norm(b - a)) / speed
            if seg_t <= 0:
                continue
            out.append(b)
            times.append(times[-1] + seg_t)
        return cls(times, np.stack(out))

    def at(self, t: float) -> np.ndarray:
        ts, ps = self.times, self.points
        if t <= ts[0]:
            return ps[0].copy()
        if t >= ts[-1]:
            return ps[-1].copy()
        i = int(np.searchsorted(ts, t, side="right")) - 1
        u = (t - ts[i]) / (ts[i + 1] - ts[i])
        return ps[i] + u * (ps[i + 1] - ps[i])

    def end_time(self) -> float:
        return float(self.times[-1])


def random_target_script(rng: np.random.Generator, esdf: ESDFField,
                         start, speed: float, duration: float,
                         bounds, clearance: float = 0.6,
                         leg_range=(2.0, 5.0), max_turn: float = 1.6,
                         start_hold: float = 0.5,
                         max_tries: int = 200) -> WaypointScript:
    """Random piecewise-linear walk through free space: every leg stays at
    least `clearance` from obstacles along its whole length, and consecutive
    legs turn by at most `max_turn` radians (a point target can hairpin, a
    vehicle-like one does not)."""
    bounds = np.asarray(bounds, dtype=np.float64)
    pts = [np.asarray(start, dtype=np.float64)]
    along = np.linspace(0, 1, 24)[:, None]
    heading = None
    total_time = start_hold
    while total_time < duration:
        placed = False
        for attempt in range(max_tries):
            if heading is None:
                ang = rng.uniform(0.0, 2.0 * math.pi)
            else:
                # widen the cone if the map pins the walker down
                spread = max_turn if attempt < max_tries // 2 else math.pi
                ang = heading + rng.uniform(-spread, spread)
            leg = rng.uniform(*leg_range)
            cand = pts[-1] + leg * np.array([math.cos(ang), math.sin(ang), 0.0])
            if np.any(cand < bounds[:, 0]) or np.any(cand > bounds[:, 1]):
                continue
            seg = pts[-1] + along * (cand - pts[-1])
            if np.min(esdf.distance_at(seg)) <= clearance:
                continue
            pts.append(cand)
            heading = ang
            total_time += leg / speed
            placed = True
            break
        if not placed:
            raise ScenarioError("could not extend random target path")
    return WaypointScript.from_path(np.stack(pts), speed, start_hold)


# ---------------------------------------------------------------------------
# world generation


def generate_random_forest(seed: int, area, count: int, radius_range,
                           resolution: float = 0.1, keep_clear=(),
                           clearance: float = 1.0,
                           max_tries: int = 500) -> OccupancyGrid:
    """Cylindrical obstacles dropped uniformly over a planar map.

    Deterministic per seed. Every obstacle keeps `clearance` meters between
    its surface and each keep_clear point.
    """
    rng = np.random.default_rng(seed)
    w, h = float(area[0]), float(area[1])
    nx, ny = int(round(w / resolution)), int(round(h / resolution))
    grid = OccupancyGrid.empty(resolution, (nx, ny, 1))
    keep_clear = [np.asarray(p, dtype=np.float64) for p in keep_clear]

    xs = (np.arange(nx) + 0.5) * resolution
    ys = (np.arange(ny) + 0.5) * resolution
    for _ in range(count):
        for attempt in range(max_tries):
            cx = rng.uniform(0.0, w)
            cy = rng.uniform(0.0, h)
            r = rng.uniform(*radius_range)
            if all(np.hypot(p[0] - cx, p[1] - cy) >= r + clearance
                   for p in keep_clear):
                # the disc's cells lie inside its index bounding box, grown
                # by at least a cell on each side; every cell outside misses
                # the disc by more than a cell, so stamping only the box
                # sets the same cells
                i0, j0 = (max(math.floor((c - r) / resolution - 0.5) - 1, 0)
                          for c in (cx, cy))
                i1 = min(math.ceil((cx + r) / resolution - 0.5) + 2, nx)
                j1 = min(math.ceil((cy + r) / resolution - 0.5) + 2, ny)
                mask = (xs[i0:i1, None] - cx) ** 2 \
                    + (ys[None, j0:j1] - cy) ** 2 <= r * r
                grid.occupancy[i0:i1, j0:j1, 0] |= mask
                break
        else:
            raise ScenarioError(
                f"could not place obstacle with {clearance} m clearance")
    return grid


# ---------------------------------------------------------------------------
# scenario


@dataclass
class Scenario:
    """A loaded tracking scenario. `esdf` is the truncated ESDF of `grid`
    at `d_trunc`, built once at load and used by `run`; it belongs to that
    grid, so the grid must not change after loading."""

    name: str
    grid: OccupancyGrid
    esdf: ESDFField
    start: RobotState
    target: WaypointScript
    fov_h_half: float
    fov_v_half: float
    replan_period: float = 0.1
    duration: float = 20.0
    horizon: float = 3.0
    search_horizon: float | None = None    # default: trajectory horizon
    num_control_points: int = 33
    pose_noise_sigma: float = 0.0
    seed: int = 0
    limits: DynamicLimits = field(default_factory=DynamicLimits)
    params: VisibilityParams = field(default_factory=VisibilityParams)
    weights: CostWeights = field(default_factory=CostWeights)
    search_config: SearchConfig = field(default_factory=SearchConfig)
    optimizer_config: OptimizerConfig = field(default_factory=lambda:
        OptimizerConfig(max_iterations=30, wall_clock_budget=None))
    predict_degree: int = 3
    predict_ridge: float = 1e-4
    predict_window: float = 2.0
    predict_v_max: float = 2.5
    mode: str = "visibility"
    d_trunc: float = 5.0

    def __post_init__(self):
        if not 0 < self.fov_h_half < math.pi / 2:
            raise ScenarioError("horizontal FOV half-angle must be in (0, pi/2)")
        if not 0 < self.fov_v_half < math.pi / 2:
            raise ScenarioError("vertical FOV half-angle must be in (0, pi/2)")
        if self.optimizer_config.wall_clock_budget is not None and \
                self.replan_period < self.optimizer_config.wall_clock_budget:
            raise ScenarioError("replan period shorter than optimizer budget")

    def effective_weights(self) -> CostWeights:
        return self.weights.baseline() if self.mode == "baseline" else self.weights

    def config_echo(self) -> dict:
        w = self.effective_weights()
        return {
            "name": self.name,
            "mode": self.mode,
            "seed": self.seed,
            "duration": self.duration,
            "replan_period": self.replan_period,
            "horizon": self.horizon,
            "num_control_points": self.num_control_points,
            "fov_h_half_rad": self.fov_h_half,
            "fov_v_half_rad": self.fov_v_half,
            "weights": {k: getattr(w, k) for k in
                        ("w_do", "w_ao", "w_oe", "w_f", "w_f_phi", "w_s",
                         "w_s_phi", "w_c", "w_v")},
            "limits": {k: getattr(self.limits, k) for k in
                       ("v_m", "a_m", "v_phi_m", "a_phi_m", "d_thr", "psi_thr")},
            "params": {k: getattr(self.params, k) for k in
                       ("od_min", "od_max", "rho", "m_balls")},
        }


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ScenarioError(f"scenario missing field '{key}' in {ctx}")
    return d[key]


_REQUIRED = object()


def _number(d: dict, key: str, ctx: str, default=_REQUIRED, kind=float,
            above=None):
    """d[key] (or `default` when absent) converted by `kind` (float or int);
    a value that does not convert, or is not greater than `above` when that
    is given, is a ScenarioError naming the field."""
    value = _require(d, key, ctx) if default is _REQUIRED \
        else d.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError) as e:
        raise ScenarioError(
            f"scenario field '{_field_name(ctx, key)}' must be "
            f"{'an integer' if kind is int else 'a number'}, got {value!r}"
        ) from e
    if above is not None and not number > above:
        bound = f"at least {above + 1}" if kind is int \
            else f"greater than {above}"
        raise ScenarioError(f"scenario field '{_field_name(ctx, key)}' must "
                            f"be {bound}, got {value!r}")
    return number


def _vector(d: dict, key: str, ctx: str, default=_REQUIRED, shape=(3,),
            what="a list of 3 numbers") -> np.ndarray:
    """d[key] (or `default` when absent) as a finite float array of `shape`,
    where a None entry takes any length of at least 1; anything else is a
    ScenarioError naming the field and saying it must be `what`."""
    value = _require(d, key, ctx) if default is _REQUIRED \
        else d.get(key, default)
    try:
        return finite_array(value, shape, key, what)
    except GridError:
        raise ScenarioError(f"scenario field '{_field_name(ctx, key)}' must "
                            f"be {what}, got {value!r}") from None


def _points(d: dict, key: str, ctx: str, width: int = 3) -> np.ndarray:
    """d[key] as a nonempty (N, width) float array: [x, y, z] points, or
    [t, x, y, z] waypoints for width 4."""
    return _vector(d, key, ctx, shape=(None, width),
                   what="a nonempty list of [x, y, z] points" if width == 3
                   else "a nonempty list of [t, x, y, z] waypoints")


def _field_name(ctx: str, key: str) -> str:
    return key if ctx == "scenario" else f"{ctx}.{key}"


def _config(cls, raw: dict, section: str, defaults: dict | None = None):
    """The config dataclass `cls` built from scenario section `section`
    over `defaults`; unknown or invalid fields are a ScenarioError naming
    the section and the field."""
    given = raw.get(section, {})
    if not isinstance(given, dict):
        raise ScenarioError(f"scenario field '{section}' must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    for key in given:
        if key not in known:
            raise ScenarioError(f"unknown scenario field '{section}.{key}'")
    try:
        return cls(**{**(defaults or {}), **given})
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"scenario section '{section}': {e}") from e


def load_scenario(path, mode: str = "visibility",
                  seed: int | None = None) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}") from e
    return scenario_from_dict(raw, base_dir=path.parent, mode=mode, seed=seed)


def scenario_from_dict(raw: dict, base_dir: Path | None = None,
                       mode: str = "visibility",
                       seed: int | None = None) -> Scenario:
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    if mode not in ("visibility", "baseline"):
        raise ScenarioError(f"unknown mode '{mode}'")
    eff_seed = int(seed) if seed is not None \
        else _number(raw, "seed", "scenario", 0, int)

    limits = _config(DynamicLimits, raw, "limits")
    params = _config(VisibilityParams, raw, "params")
    weights = _config(CostWeights, raw, "weights")
    search_cfg = _config(SearchConfig, raw, "search")
    opt_cfg = _config(OptimizerConfig, raw, "optimizer",
                      {"max_iterations": 30, "wall_clock_budget": None})

    grid = _load_map(_require(raw, "map", "scenario"), base_dir, eff_seed, raw)
    d_trunc = _number(raw, "d_trunc", "scenario", 5.0)
    try:
        esdf = build_esdf(grid, d_trunc)
    except GridError as e:
        raise ScenarioError(f"scenario field 'd_trunc': {e}") from e

    rs = _require(raw, "robot_start", "scenario")
    start = RobotState(
        _vector(rs, "p", "robot_start"),
        _vector(rs, "v", "robot_start", [0.0, 0.0, 0.0]),
        _vector(rs, "a", "robot_start", [0.0, 0.0, 0.0]),
        _number(rs, "yaw", "robot_start", 0.0),
        _number(rs, "yaw_rate", "robot_start", 0.0))

    tgt = _require(raw, "target", "scenario")
    duration = _number(raw, "duration", "scenario", above=0)
    pr = raw.get("predict", {})
    scenario = Scenario(
        name=str(raw.get("name", "scenario")),
        grid=grid,
        esdf=esdf,
        start=start,
        target=_load_target(tgt, esdf, eff_seed, raw),
        fov_h_half=math.radians(
            _number(raw, "fov_h_deg", "scenario", 80.0) / 2.0),
        fov_v_half=math.radians(
            _number(raw, "fov_v_deg", "scenario", 65.0) / 2.0),
        replan_period=_number(raw, "replan_period", "scenario", 0.1,
                              above=0),
        duration=duration,
        horizon=_number(raw, "horizon", "scenario", 3.0, above=0),
        search_horizon=(_number(raw, "search_horizon", "scenario", above=0)
                        if "search_horizon" in raw else None),
        # a cubic B-spline needs one free control point past the three
        # pinned by the start state
        num_control_points=_number(raw, "num_control_points", "scenario",
                                   33, int, above=3),
        pose_noise_sigma=_number(raw, "pose_noise_sigma", "scenario", 0.0),
        seed=eff_seed,
        limits=limits, params=params, weights=weights,
        search_config=search_cfg, optimizer_config=opt_cfg,
        predict_degree=_number(pr, "degree", "predict", 3, int),
        predict_ridge=_number(pr, "ridge", "predict", 1e-4),
        predict_window=_number(pr, "window", "predict", 2.0),
        predict_v_max=_number(pr, "v_max", "predict", 2.5),
        mode=mode,
        d_trunc=d_trunc,
    )
    return scenario


def _load_map(m: dict, base_dir: Path, seed: int, raw: dict) -> OccupancyGrid:
    if "file" in m:
        p = base_dir / m["file"]
        resolution = _number(m, "resolution", "map", above=0) \
            if "resolution" in m else None
        origin = _vector(m, "origin", "map", [0.0, 0.0, 0.0])
        try:
            return load_grid(p, resolution=resolution, origin=origin)
        except (OSError, GridError) as e:
            raise ScenarioError(f"cannot load map '{m['file']}': {e}") from e
    if "generator" in m:
        g = m["generator"]
        if g.get("kind", "forest") != "forest":
            raise ScenarioError(f"unknown map generator '{g.get('kind')}'")
        keep_clear = list(_points(g, "keep_clear", "map.generator")) \
            if "keep_clear" in g else []
        keep_clear.append(_vector(_require(raw, "robot_start", "scenario"),
                                  "p", "robot_start"))
        tgt = raw.get("target", {})
        if "waypoints" in tgt:
            keep_clear.append(_points(tgt, "waypoints", "target", 4)[0, 1:])
        if "path" in tgt:
            keep_clear.append(_points(tgt, "path", "target")[0])
        if "random" in tgt:
            keep_clear.append(_vector(tgt["random"], "start", "target.random"))
        area = _vector(g, "area", "map.generator", shape=(2,),
                       what="a list of 2 positive numbers")
        if not (area > 0).all():
            raise ScenarioError("scenario field 'map.generator.area' must be "
                                f"a list of 2 positive numbers, got "
                                f"{g['area']!r}")
        radii = _vector(g, "radius_range", "map.generator", shape=(2,),
                        what="a list [low, high] with 0 < low <= high")
        if not 0.0 < radii[0] <= radii[1]:
            raise ScenarioError("scenario field 'map.generator.radius_range' "
                                "must be a list [low, high] with 0 < low <= "
                                f"high, got {g['radius_range']!r}")
        try:
            return generate_random_forest(
                seed=_number(g, "seed", "map.generator", seed, int),
                area=area,
                count=_number(g, "count", "map.generator", kind=int,
                              above=-1),
                radius_range=radii,
                resolution=_number(g, "resolution", "map.generator", 0.1,
                                   above=0),
                keep_clear=keep_clear,
                clearance=_number(g, "clearance", "map.generator", 1.0))
        except GridError as e:
            raise ScenarioError(f"scenario field 'map.generator.area': {e}") \
                from e
    if "dims" in m:
        try:
            return OccupancyGrid.from_json_dict(m)
        except GridError as e:
            named = f"scenario field 'map.{e.field}': " if e.field else ""
            raise ScenarioError(named + str(e)) from e
    raise ScenarioError("map must carry 'file', 'generator' or inline grid fields")


def _load_target(t: dict, esdf: ESDFField, seed: int, raw: dict) -> WaypointScript:
    if "waypoints" in t:
        wps = _points(t, "waypoints", "target", 4)
        return WaypointScript(wps[:, 0], wps[:, 1:])
    if "path" in t:
        return WaypointScript.from_path(
            _points(t, "path", "target"),
            _number(t, "speed", "target", 1.0, above=0),
            _number(t, "start_hold", "target", 0.0))
    if "random" in t:
        r = t["random"]
        rng = np.random.default_rng(
            _number(r, "seed", "target.random", seed, int) + 1)
        return random_target_script(
            rng, esdf,
            start=_vector(r, "start", "target.random"),
            speed=_number(r, "speed", "target.random", above=0),
            duration=_number(r, "duration", "target.random",
                             raw.get("duration", 20.0)),
            bounds=_vector(r, "bounds", "target.random", shape=(3, 2),
                           what="3 [low, high] pairs"),
            clearance=_number(r, "clearance", "target.random", 0.6))
    raise ScenarioError("target must carry 'waypoints', 'path' or 'random'")


# ---------------------------------------------------------------------------
# visibility metrics


def in_fov(robot_p, yaw: float, target_p, fov_h_half: float,
           fov_v_half: float, grid: OccupancyGrid) -> bool:
    """Target inside the yaw-aligned cone and not occluded."""
    return _cone_contains(robot_p, yaw, target_p, fov_h_half, fov_v_half) \
        and not raycast_occluded(grid, robot_p, target_p)


def _cone_contains(robot_p, yaw, target_p, fov_h_half, fov_v_half) -> bool:
    rel = np.asarray(target_p, float) - np.asarray(robot_p, float)
    bearing = wrap_angle(math.atan2(rel[1], rel[0]) - yaw)
    hor = math.hypot(rel[0], rel[1])
    elevation = math.atan2(rel[2], hor) if hor > 1e-12 else \
        (0.0 if abs(rel[2]) < 1e-12 else math.copysign(math.pi / 2, rel[2]))
    return abs(bearing) <= fov_h_half and abs(elevation) <= fov_v_half


# ---------------------------------------------------------------------------
# run report


@dataclass
class StepRecord:
    t: float
    p: np.ndarray
    yaw: float
    target: np.ndarray
    d: float
    psi_err: float
    in_fov: bool
    occluded: bool


@dataclass
class RunReport:
    scenario_echo: dict
    steps: list = field(default_factory=list)
    failure_time: float = 0.0
    duration: float = 0.0
    termination: str = "completed"
    occlusion_events: int = 0
    tracked_steps: int = 0
    heatmap: np.ndarray = field(default_factory=lambda: np.zeros(
        (int(HEATMAP_WINDOW / HEATMAP_BIN), int(HEATMAP_WINDOW / HEATMAP_BIN)),
        dtype=np.int64))
    replan_times: list = field(default_factory=list)   # wall clock, not serialized
    cost_dumps: list = field(default_factory=list)
    opt_trace: list = field(default_factory=list)
    search_trace: list = field(default_factory=list)

    def psi_err_series(self):
        return np.array([s.psi_err for s in self.steps])

    def max_psi_err(self) -> float:
        return float(self.psi_err_series().max()) if self.steps else 0.0

    def mean_psi_err(self) -> float:
        return float(self.psi_err_series().mean()) if self.steps else 0.0

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario_echo,
            "failure_time": self.failure_time,
            "duration": self.duration,
            "termination": self.termination,
            "occlusion_events": self.occlusion_events,
            "tracked_steps": self.tracked_steps,
            "steps": len(self.steps),
            "mean_psi_err": self.mean_psi_err(),
            "max_psi_err": self.max_psi_err(),
        }


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError("non-finite value in report")
        return f"{float(x):.17g}"
    raise TypeError(f"unsupported scalar {type(x)}")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {dumps_canonical(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [dumps_canonical(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def write_outputs(report: RunReport, outdir) -> dict[str, Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["report"] = outdir / "report.json"
    paths["report"].write_text(dumps_canonical(report.to_json_dict()) + "\n")

    rows = ["t,x,y,z,yaw,tx,ty,tz,d,psi_err,in_fov,occluded"]
    for s in report.steps:
        vals = [s.t, *s.p, s.yaw, *s.target, s.d, s.psi_err]
        rows.append(",".join(f"{v:.17g}" for v in vals)
                    + f",{int(s.in_fov)},{int(s.occluded)}")
    paths["trace"] = outdir / "trace.csv"
    paths["trace"].write_text("\n".join(rows) + "\n")

    hm_rows = [",".join(str(int(v)) for v in row) for row in report.heatmap]
    paths["heatmap"] = outdir / "heatmap.csv"
    paths["heatmap"].write_text("\n".join(hm_rows) + "\n")
    return paths


# ---------------------------------------------------------------------------
# main loop


def run(scenario: Scenario, collect_traces: bool = False) -> RunReport:
    sc = scenario
    esdf = sc.esdf
    rng = np.random.default_rng(sc.seed)
    history = HistoryBuffer(span=sc.predict_window * 2.0)
    report = RunReport(scenario_echo=sc.config_echo(), duration=sc.duration)

    dt_knot = sc.horizon / (sc.num_control_points - 3)
    wp_offsets = np.arange(sc.num_control_points - 2) * dt_knot
    standoff = sc.search_config.standoff
    if standoff is None:
        standoff = 0.5 * (sc.params.od_min + sc.params.od_max)
    weights = sc.effective_weights()
    search_cfg = sc.search_config
    if sc.mode == "baseline":
        # visibility-blind: the front-end stops rejecting sight-losing nodes
        search_cfg = replace(search_cfg, occlusion_check=False)
    half_bins = report.heatmap.shape[0] // 2

    committed = None        # (trajectory, start time)
    held_path = None        # (abs_points, abs_times) of the last search
    n_steps = int(round(sc.duration / sc.replan_period))
    failure_latched = False

    for i in range(n_steps + 1):
        t = i * sc.replan_period
        target_p = sc.target.at(t)

        # robot state from the committed plan (exact tracking)
        if committed is None:
            state = sc.start
        else:
            traj, t0 = committed
            if t - t0 > traj.duration() + 1e-9:
                report.termination = "planner_failure"
                report.failure_time = t
                break
            state = traj.state_at(min(t - t0, traj.duration()))

        pose_p = state.p
        pose_yaw = state.yaw
        if sc.pose_noise_sigma > 0.0:
            pose_p = pose_p + rng.normal(0.0, sc.pose_noise_sigma, 3)
            pose_yaw = pose_yaw + rng.normal(0.0, sc.pose_noise_sigma)

        rel = target_p - pose_p
        d = float(np.linalg.norm(rel))
        psi_best = math.atan2(rel[1], rel[0])
        psi_err = abs(wrap_angle(pose_yaw - psi_best))
        occluded = raycast_occluded(sc.grid, pose_p, target_p)
        fov = (not occluded) and _cone_contains(
            pose_p, pose_yaw, target_p, sc.fov_h_half, sc.fov_v_half)

        prev_occluded = report.steps[-1].occluded if report.steps else False
        if occluded and not prev_occluded:
            report.occlusion_events += 1
        report.steps.append(StepRecord(t, pose_p.copy(), pose_yaw,
                                       target_p.copy(), d, psi_err, fov,
                                       occluded))
        if fov:
            report.tracked_steps += 1
            rx, ry = _rot(rel, -pose_yaw)
            ix = min(max(int((rx + HEATMAP_WINDOW / 2) // HEATMAP_BIN), 0),
                     2 * half_bins - 1)
            iy = min(max(int((ry + HEATMAP_WINDOW / 2) // HEATMAP_BIN), 0),
                     2 * half_bins - 1)
            report.heatmap[ix, iy] += 1
        else:
            report.termination = "target_lost"
            report.failure_time = t
            failure_latched = True
            break

        history.push(t, target_p)
        if i == n_steps:
            break

        # --- replan ---------------------------------------------------------
        t_wall = time.perf_counter()
        model = fit(history.snapshot(), degree=sc.predict_degree,
                    ridge=sc.predict_ridge, window=sc.predict_window,
                    horizon=sc.horizon, v_max=sc.predict_v_max)
        s_horizon = sc.search_horizon if sc.search_horizon is not None \
            else sc.horizon
        track_all = predict_track(model, t + np.arange(
            0, sc.search_config.horizon_slack * max(s_horizon, sc.horizon)
            + dt_knot, dt_knot / 2.0))

        def target_at(s, _track=track_all, _dt=dt_knot / 2.0):
            idx = min(int(round(s / _dt)), len(_track) - 1)
            return _track.c[idx]

        # the previous front-end path usually still checks out against the
        # fresh prediction; re-searching every cycle would dominate latency
        reused = _revalidate_path(held_path, t, state, target_at, sc.grid,
                                  esdf, sc.limits, search_cfg, s_horizon,
                                  standoff)
        if reused is not None:
            pts, times = reused
        else:
            try:
                pts, times = search(state, target_at, sc.grid, esdf,
                                    sc.limits, search_cfg, horizon=s_horizon,
                                    standoff=standoff,
                                    trace=report.search_trace
                                    if collect_traces else None)
                held_path = (pts + 0.0, times + t)
            except SearchError:
                held_path = None
                report.replan_times.append(time.perf_counter() - t_wall)
                if committed is None:
                    report.termination = "planner_failure"
                    report.failure_time = t
                    break
                continue    # keep flying the committed trajectory

        if sc.mode == "baseline":
            yaw_targets = None
        else:
            future = predict_track(model, t + times).c
            look = future - pts
            yaw_targets = np.arctan2(look[:, 1], look[:, 0])
            hdeg = np.hypot(look[:, 0], look[:, 1]) < 1e-6
            yaw_targets[hdeg] = state.yaw

        seed_traj = initialize_from_path(pts, times, state, dt_knot,
                                         sc.num_control_points,
                                         yaw_targets=yaw_targets)
        track = predict_track(model, t + wp_offsets)
        result = optimize(seed_traj, track, esdf, sc.params, weights,
                          sc.limits, sc.optimizer_config,
                          keep_trace=collect_traces)
        committed = (result.trajectory, t)
        report.replan_times.append(time.perf_counter() - t_wall)
        if collect_traces:
            report.opt_trace.append((t, result.trace))
            report.cost_dumps.append((t, result.final_report.term_values()))

    if not failure_latched and report.termination == "completed":
        report.failure_time = sc.duration
    return report


def _revalidate_path(held, t, state, target_at, grid, esdf, limits, cfg,
                     horizon, standoff):
    """Check the previous search path against the fresh prediction; returns
    relative (points, times) when it still serves, else None."""
    if held is None:
        return None
    pts_abs, times_abs = held
    # the near-term is owned by the boundary conditions; a stale node only
    # fractions of a second ahead would fight them in the fit
    keep = times_abs >= t + 0.35
    if keep.sum() < 3:
        return None
    pts, times = pts_abs[keep], times_abs[keep] - t
    if times[-1] < 0.55 * horizon:
        return None
    if np.linalg.norm(pts[0] - state.p) > 1.2:
        return None
    pts = np.vstack([state.p, pts])
    times = np.concatenate([[0.0], times])
    goal = np.asarray(target_at(times[-1]), float)
    if abs(np.linalg.norm(pts[-1] - goal) - standoff) > cfg.goal_tolerance + 0.3:
        return None
    if np.min(esdf.distance_at(pts)) <= limits.d_thr / 2.0:
        return None
    if cfg.occlusion_check:
        for p, s in zip(pts, times):
            if raycast_occluded(grid, p, np.asarray(target_at(s), float)):
                return None
    return pts, times


def _rot(rel, ang):
    c, s = math.cos(ang), math.sin(ang)
    return np.array([c * rel[0] - s * rel[1], s * rel[0] + c * rel[1]])
