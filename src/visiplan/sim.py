"""Headless tracking simulator.

Steps a scripted or randomized target, replans at a fixed rate through a
`Planner` (predict -> search -> optimize), advances the robot by exact
evaluation of the committed trajectory, and scores visibility per step. A
run ends at its scheduled duration, at the first step the target is lost
(occluded or out of the FOV cone -- latched), or when the planner has
nothing left to execute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .costs import (DEGENERATE_EPS, TERMS, CostWeights, DynamicLimits,
                    TargetTrack, VisibilityParams)
from .env import (MAX_CELLS, ESDFField, FieldError, OccupancyGrid,
                  build_esdf, finite_array, is_number, norm, require)
from .optimizer import optimize
from .predict import fit, predict_track
from .rng import Rng
from .search import (GOAL_TOLERANCE, TAU, SearchConfig, SearchError,
                     raycast_occluded, search)
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

    @classmethod
    def from_path(cls, points, speed: float, start_hold: float):
        require(speed > 0, "speed", "be greater than 0", speed)
        require(start_hold >= 0, "start_hold", "be at least 0", start_hold)
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = [pts[0]]
        times = [0.0]
        if start_hold > 0:
            out.append(pts[0])
            times.append(start_hold)
        for a, b in zip(pts[:-1], pts[1:]):
            end = times[-1] + norm(b - a) / speed
            if end <= times[-1]:    # a leg too short to advance the clock
                continue
            out.append(b)
            times.append(end)
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


_WALK_LEG_RANGE = (2.0, 5.0)    # meters per leg of a random target walk
_WALK_MAX_TURN = 1.6            # radians between consecutive legs
_WALK_START_HOLD = 0.5          # seconds the walker waits at its start
_WALK_MAX_TRIES = 200           # candidate legs before giving up
_WALK_MAX_LEGS = 10_000         # legs of the shortest length a walk may need
_WALK_LEG_SAMPLES = np.linspace(0, 1, 24)[:, None]   # clearance, along a leg
_WALK_LEG_SAMPLES.setflags(write=False)


def random_target_script(rng: Rng, esdf: ESDFField,
                         start, speed: float, duration: float,
                         bounds, clearance: float) -> WaypointScript:
    """Random piecewise-linear walk through free space: every leg stays at
    least `clearance` from obstacles along its whole length, and consecutive
    legs turn by at most `_WALK_MAX_TURN` radians (a point target can
    hairpin, a vehicle-like one does not). `rng` is anything whose
    `uniform(low, high)` draws one float, such as an `Rng`. A FieldError
    names a bad argument: a `speed` at which the walk could need more than
    `_WALK_MAX_LEGS` legs, or the `bounds` within which a pinned walker
    finds no leg."""
    require(speed > 0, "speed", "be greater than 0", speed)
    shortest = _WALK_LEG_RANGE[0]
    require(speed * duration / shortest <= _WALK_MAX_LEGS, "speed",
            f"keep a {duration!r} s walk within {_WALK_MAX_LEGS} legs of "
            f"{shortest} m", speed)
    require(clearance >= 0, "clearance", "be at least 0", clearance)
    box = np.asarray(bounds, dtype=np.float64).tolist()
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = box
    require(x_lo <= x_hi and y_lo <= y_hi and z_lo <= z_hi, "bounds",
            "be 3 [low, high] pairs with low <= high", box)
    pts = [np.asarray(start, dtype=np.float64)]
    x, y, z = pts[0].tolist()
    require(x_lo <= x <= x_hi and y_lo <= y <= y_hi and z_lo <= z <= z_hi,
            "start", "lie inside bounds", [x, y, z])
    heading = None
    total_time = _WALK_START_HOLD
    while total_time < duration:
        placed = False
        x, y, z = pts[-1].tolist()
        for attempt in range(_WALK_MAX_TRIES):
            if heading is None:
                ang = rng.uniform(0.0, 2.0 * math.pi)
            else:
                # widen the cone if the map pins the walker down
                spread = _WALK_MAX_TURN if attempt < _WALK_MAX_TRIES // 2 \
                    else math.pi
                ang = heading + rng.uniform(-spread, spread)
            leg = rng.uniform(*_WALK_LEG_RANGE)
            # the float operations of pts[-1] + leg * (cos, sin, 0), tested
            # against the bounds before any array is built
            cx = x + leg * math.cos(ang)
            cy = y + leg * math.sin(ang)
            cz = z + leg * 0.0
            if not (x_lo <= cx <= x_hi and y_lo <= cy <= y_hi
                    and z_lo <= cz <= z_hi):
                continue
            cand = np.array([cx, cy, cz])
            seg = pts[-1] + _WALK_LEG_SAMPLES * (cand - pts[-1])
            if np.min(esdf.distance_at(seg)) <= clearance:
                continue
            pts.append(cand)
            heading = ang
            total_time += leg / speed
            placed = True
            break
        if not placed:
            raise FieldError("could not extend random target path",
                             "bounds")
    return WaypointScript.from_path(np.stack(pts), speed, _WALK_START_HOLD)


# ---------------------------------------------------------------------------
# world generation


_FOREST_MAX_TRIES = 500         # placements tried per obstacle
FOREST_RESOLUTION = 0.1         # cell side of every generated forest (m)


def generate_random_forest(seed: int, area, count: int, radius_range,
                           keep_clear=(),
                           clearance: float = 1.0) -> OccupancyGrid:
    """Cylindrical obstacles dropped uniformly over a planar map.

    Deterministic per seed. Every obstacle keeps `clearance` meters between
    its surface and each keep_clear point. A FieldError names a bad
    argument.
    """
    rng = Rng(seed)
    resolution = FOREST_RESOLUTION
    w, h = float(area[0]), float(area[1])
    # cells per side, rounded; capped so that a side past the budget stays
    # finite and still breaks it (a NaN side counts 0 cells)
    nx, ny = (round(min(MAX_CELLS + 1, max(0.0, a / resolution)))
              for a in (w, h))
    require(min(nx, ny) >= 1, "area", "span at least one cell at the "
            f"generator's resolution {resolution!r}", [w, h])
    require(nx * ny <= MAX_CELLS, "area", f"span at most {MAX_CELLS} cells "
            f"at the generator's resolution {resolution!r}", [w, h])
    require(count >= 0, "count", "be at least 0", count)
    r_lo, r_hi = float(radius_range[0]), float(radius_range[1])
    require(0.0 < r_lo <= r_hi, "radius_range",
            "be a list [low, high] with 0 < low <= high", [r_lo, r_hi])
    require(clearance >= 0, "clearance", "be at least 0", clearance)
    grid = OccupancyGrid.empty(resolution, (nx, ny, 1))
    keep_x, keep_y = np.array([(p[0], p[1]) for p in keep_clear],
                              dtype=np.float64).reshape(-1, 2).T

    xs = (np.arange(nx) + 0.5) * resolution
    ys = (np.arange(ny) + 0.5) * resolution
    # one candidate is the draws (cx, cy, r) in this order; a round draws
    # as many as obstacles are left, and what one obstacle does not use
    # the next one tries
    placed = failed = 0
    while placed < count:
        cand = np.array([[rng.uniform(0.0, w), rng.uniform(0.0, h),
                          rng.uniform(r_lo, r_hi)]
                         for _ in range(count - placed)])
        ok = (np.hypot(keep_x - cand[:, :1], keep_y - cand[:, 1:2])
              >= cand[:, 2:] + clearance).all(axis=1)
        for (cx, cy, r), clear in zip(cand.tolist(), ok.tolist()):
            if not clear:
                failed += 1
                if failed == _FOREST_MAX_TRIES:
                    raise ScenarioError(f"could not place obstacle with "
                                        f"{clearance} m clearance")
                continue
            # the disc's cells lie inside its index bounding box, grown by
            # at least a cell on each side; every cell outside misses the
            # disc by more than a cell, so stamping only the box sets the
            # same cells
            i0, j0 = (max(math.floor((c - r) / resolution - 0.5) - 1, 0)
                      for c in (cx, cy))
            i1 = min(math.ceil((cx + r) / resolution - 0.5) + 2, nx)
            j1 = min(math.ceil((cy + r) / resolution - 0.5) + 2, ny)
            mask = (xs[i0:i1, None] - cx) ** 2 \
                + (ys[None, j0:j1] - cy) ** 2 <= r * r
            grid.occupancy[i0:i1, j0:j1, 0] |= mask
            placed += 1
            failed = 0
    return grid


# ---------------------------------------------------------------------------
# scenario


@dataclass
class Scenario:
    """A loaded tracking scenario, built by `scenario_from_dict` from the
    scenario table, which owns the defaults and bounds of what a scenario
    file sets: the mission's world, target, vehicle limits and prediction
    model. The camera's and the planner's fixed settings are class
    attributes, not fields, so no scenario can set them. `esdf` is the
    truncated ESDF of the map at `d_trunc`, built once at load and used by
    the planner; it holds the map, `grid`, which it makes read-only."""

    name: str
    esdf: ESDFField
    start: RobotState
    target: WaypointScript
    duration: float
    search_horizon: float
    seed: int
    limits: DynamicLimits
    search_config: SearchConfig
    predict_degree: int
    predict_window: float
    predict_v_max: float
    mode: str

    # the camera's and the planner's settings, the same for every scenario
    fov_h_half = math.radians(80.0 / 2.0)   # half the full cone angles
    fov_v_half = math.radians(65.0 / 2.0)
    replan_period = 0.1
    horizon = 3.0                       # spline horizon (s)
    num_control_points = 33
    d_trunc = 5.0                       # ESDF truncation (m)
    predict_ridge = 1e-4
    params = VisibilityParams()
    weights = CostWeights()

    @property
    def grid(self) -> OccupancyGrid:
        return self.esdf.grid

    def effective_weights(self) -> CostWeights:
        return self.weights.baseline() if self.mode == "baseline" else self.weights

    def config_echo(self) -> dict:
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
            "weights": dataclasses.asdict(self.effective_weights()),
            "limits": dataclasses.asdict(self.limits),
            "params": {k: getattr(self.params, k) for k in self.params.echoed},
        }


# ---------------------------------------------------------------------------
# scenario format: one row per key gives the key, its kind and its default
# (required when it has none). A kind is called with the value and the
# field's dotted name; it converts the value and checks its bound, and
# raises a ScenarioError naming the field.


_REQUIRED = object()
_Row = namedtuple("_Row", "key kind default", defaults=(_REQUIRED,))


def _field_name(section: str, key: str) -> str:
    return key if section == "scenario" else f"{section}.{key}"


def _bad(name: str, what: str, value) -> ScenarioError:
    return ScenarioError(f"scenario field '{name}' must be {what}, "
                         f"got {value!r}")


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs) for a section that checks its own fields (a
    config dataclass, a grid, a forest or a target script); a FieldError it
    raises becomes a ScenarioError naming `section.field`."""
    try:
        return build(*args, **kwargs)
    except FieldError as e:
        name = f"{section}.{e.field}"
        raise ScenarioError(f"scenario field '{name}': {e}") from e


def _number(kind=float, above=None, least=None):
    """Kind: a finite number (integral for int) as a `kind`, greater than
    `above` and at least `least` where these are given."""
    def parse(value, name):
        if not is_number(value, kind):
            raise _bad(name, "an integer" if kind is int
                       else "a finite number", value)
        number = kind(value)
        if above is not None and not number > above:
            raise _bad(name, f"at least {above + 1}" if kind is int
                       else f"greater than {above}", value)
        if least is not None and not number >= least:
            raise _bad(name, f"at least {least}", value)
        return number
    return parse


def _array(shape, what: str):
    """Kind: a finite float array of `shape`, where a None entry takes any
    length of at least 1; `what` says so in an error."""
    def parse(value, name):
        try:
            return finite_array(value, shape, name, what)
        except FieldError:
            raise _bad(name, what, value) from None
    return parse


def _text(value, name) -> str:
    return str(value)


def _as_given(value, name):
    return value


def _object(d, section: str, keys) -> None:
    """A ScenarioError naming `section` unless `d` is an object, or naming
    its first key outside `keys`."""
    if not isinstance(d, dict):
        raise ScenarioError(f"scenario field '{section}' must be an object")
    for key in d:
        if key not in keys:
            raise ScenarioError(
                f"unknown scenario field '{_field_name(section, key)}'")


def _read(d, section: str, rows) -> SimpleNamespace:
    """The values of `section`, an object read against `rows`; an absent
    key takes its row's default."""
    _object(d, section, [row.key for row in rows])
    prefix = _field_name(section, "")
    values = SimpleNamespace()
    for key, kind, default in rows:
        if key in d:
            value = kind(d[key], prefix + key)
        elif default is _REQUIRED:
            raise ScenarioError(f"scenario missing field '{prefix}{key}'")
        else:
            value = kind(default, prefix + key)
        setattr(values, key, value)
    return values


def _section(*rows):
    """Kind: an object read against `rows`."""
    return lambda value, name: _read(value, name, rows)


def _one_of(*kinds):
    """Kind: an object read against the first of the row sets `kinds` whose
    first key it holds; gives that row set and the values."""
    def parse(value, name):
        for rows in kinds:
            if isinstance(value, dict) and rows[0].key in value:
                return rows, _read(value, name, rows)
        if isinstance(value, dict):
            # a key no kind reads, such as a deleted kind's, is unknown
            _object(value, name, {row.key for rows in kinds for row in rows})
        keys = [rows[0].key for rows in kinds]
        raise ScenarioError(f"scenario field '{name}' must be an object "
                            f"with one of the keys {keys}")
    return parse


def _config(cls, *keys):
    """Kind: the config dataclass `cls` set through its fields `keys`; the
    class checks its own fields."""
    def parse(value, name):
        _object(value, name, keys)
        return _checked(name, cls, **value)
    return parse


_SEED = _number(int, least=0)
_POSITIVE = _number(above=0)
_NONNEGATIVE = _number(least=0)
_POINT = _array((3,), "a list of 3 numbers")

# the kinds of map and of target, each told by its first key; a map file
# is an ASCII raster. The grid code checks an inline grid, and the builders
# of a forest and of a target script check the bounds of their arguments
_GRID_FILE = (_Row("file", _text), _Row("resolution", _POSITIVE))
_FOREST = (_Row("generator", _section(
    _Row("area", _array((2,), "a list of 2 numbers")),
    _Row("count", _number(int)),
    _Row("radius_range", _array((2,), "a list of 2 numbers")),
    _Row("clearance", _number(), 1.0))),)
_INLINE_GRID = tuple(_Row(key, _as_given)
                     for key in ("dims", "resolution", "occupied"))
_PATH = (_Row("path", _array((None, 3), "a nonempty list of [x, y, z] "
                             "points")),
         _Row("speed", _number(), 1.0),
         _Row("start_hold", _number(), 0.0))
_RANDOM_WALK = (_Row("random", _section(
    _Row("start", _POINT),
    _Row("speed", _number()),
    _Row("bounds", _array((3, 2), "3 [low, high] pairs")),
    _Row("clearance", _number(), 0.6))),)

_SCENARIO = (
    _Row("name", _text, "scenario"),
    _Row("seed", _SEED, 0),
    _Row("map", _one_of(_GRID_FILE, _FOREST, _INLINE_GRID)),
    _Row("robot_start", _section(_Row("p", _POINT))),
    _Row("target", _one_of(_PATH, _RANDOM_WALK)),
    _Row("duration", _POSITIVE),
    _Row("search_horizon", _POSITIVE, Scenario.horizon),
    _Row("predict", _section(_Row("degree", _number(int, least=0), 3),
                             _Row("window", _NONNEGATIVE, 2.0),
                             _Row("v_max", _NONNEGATIVE, 2.5)), {}),
    _Row("limits", _config(DynamicLimits, "v_m", "a_m"), {}),
    _Row("search", _config(SearchConfig, "max_expansions"), {}),
)


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
    s = _read(raw, "scenario", _SCENARIO)
    if seed is not None:
        s.seed = _SEED(seed, "seed")
    if not math.isfinite(s.duration / Scenario.replan_period):
        raise _bad("duration", "finite in replan periods of "
                   f"{Scenario.replan_period} s", s.duration)
    # the seed fit drops every path point past the horizon, and each
    # search depth costs at least one expansion
    if s.search_horizon > Scenario.horizon:
        raise _bad("search_horizon", f"at most the horizon "
                   f"{Scenario.horizon} s", s.search_horizon)
    depths = math.ceil(s.search_horizon / TAU)
    if s.search.max_expansions < depths:
        raise _bad("search.max_expansions", f"at least {depths}, one per "
                   f"{TAU} s depth of the {s.search_horizon} s search "
                   "horizon", s.search.max_expansions)
    start = RobotState.at_rest(s.robot_start.p, 0.0)
    grid = _load_map(*s.map, base_dir, s.seed,
                     keep_clear=(start.p, _target_start(*s.target)))
    esdf = build_esdf(grid, Scenario.d_trunc)
    return Scenario(
        name=s.name,
        esdf=esdf,
        start=start,
        target=_load_target(*s.target, esdf, s.seed, s.duration),
        duration=s.duration,
        search_horizon=s.search_horizon,
        seed=s.seed,
        limits=s.limits,
        search_config=s.search,
        predict_degree=s.predict.degree,
        predict_window=s.predict.window,
        predict_v_max=s.predict.v_max,
        mode=mode,
    )


def _load_map(kind, m: SimpleNamespace, base_dir: Path, seed: int,
              keep_clear) -> OccupancyGrid:
    if kind is _GRID_FILE:
        try:
            return OccupancyGrid.from_ascii((base_dir / m.file).read_text(),
                                            m.resolution)
        except (OSError, FieldError) as e:
            raise ScenarioError(f"cannot load map '{m.file}': {e}") from e
    if kind is _INLINE_GRID:
        return _checked("map", OccupancyGrid.from_json_dict, vars(m))
    g = m.generator
    return _checked("map.generator", generate_random_forest, seed, g.area,
                    g.count, g.radius_range, keep_clear, g.clearance)


def _target_start(kind, t: SimpleNamespace) -> np.ndarray:
    if kind is _PATH:
        return t.path[0]
    return t.random.start


def _load_target(kind, t: SimpleNamespace, esdf: ESDFField, seed: int,
                 duration: float) -> WaypointScript:
    if kind is _PATH:
        return _checked("target", WaypointScript.from_path, t.path, t.speed,
                        t.start_hold)
    r = t.random
    return _checked("target.random", random_target_script, Rng(seed + 1),
                    esdf, r.start, r.speed, duration, r.bounds, r.clearance)


# ---------------------------------------------------------------------------
# visibility metrics


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
    replans: list | None = None   # Replan records of a traced run

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


def dumps_canonical(obj) -> str:
    """Deterministic JSON, keys in insertion order; each float in its
    shortest form that reads back to the same bits (integral floats keep
    `.0`). A NaN or an infinity raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _floats(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


def write_outputs(report: RunReport, outdir) -> dict[str, Path]:
    """Write a run's files into `outdir` and return their paths by name:
    `report` (report.json), `trace` (trace.csv, one row per step) and
    `heatmap` (heatmap.csv); a traced run adds three views of its replan
    records, `costs` (costs.json, the final cost terms of each optimized
    replan), `opt_trace` (opt_trace.csv, the optimizer's costs per
    iteration) and `search_trace` (search_trace.csv, the expanded search
    nodes)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {
        "report.json": [dumps_canonical(report.to_json_dict())],
        "trace.csv": ["t,x,y,z,yaw,tx,ty,tz,d,psi_err,in_fov,occluded"] + [
            _floats([s.t, *s.p, s.yaw, *s.target, s.d, s.psi_err])
            + f",{int(s.in_fov)},{int(s.occluded)}" for s in report.steps],
        "heatmap.csv": [",".join(str(int(v)) for v in row)
                        for row in report.heatmap],
    }
    if report.replans is not None:
        optimized = [r for r in report.replans if r.costs is not None]
        columns = [t.column for t in TERMS] + ["total"]
        files["costs.json"] = [dumps_canonical(
            [{"t": r.t, "costs": r.costs} for r in optimized])]
        files["opt_trace.csv"] = ["t,iteration," + ",".join(columns)] + [
            f"{r.t:.17g},{it}," + _floats(vals[k] for k in columns)
            for r in optimized for it, vals in r.trace]
        files["search_trace.csv"] = ["t,x,y,z,vx,vy,vz,cost"] + [
            _floats(node) for r in report.replans for node in r.expanded]
    paths = {}
    for name, lines in files.items():
        path = paths[name.split(".")[0]] = outdir / name
        path.write_text("\n".join(lines) + "\n")
    return paths


# ---------------------------------------------------------------------------
# planner


# one replan cycle: its time, the rows of the nodes its search expanded
# (empty when the last path was reused, None when the run is untraced), and
# the optimizer's term values per accepted iterate (`OptimizeResult.trace`)
# and at its result; both None when the search failed
Replan = namedtuple("Replan", "t expanded trace costs")


class Planner:
    """The replan pipeline of one run: predict the target, reuse the last
    front-end path or search a new one, fit a seed spline to it and optimize
    position and yaw. It holds only the scenario's constants: the caller
    keeps the front-end path between cycles. Only a `traced` planner keeps
    its searches' expansion rows."""

    def __init__(self, scenario: Scenario, traced: bool = False):
        sc = self.scenario = scenario
        self.traced = traced
        self.dt_knot = sc.horizon / (sc.num_control_points - 3)
        # the prediction at half-knot steps; its even rows are the knots',
        # and it spans every search (the loader holds search_horizon to
        # the horizon)
        self.track_offsets = np.arange(
            0, sc.search_config.horizon_slack * sc.horizon + self.dt_knot,
            self.dt_knot / 2.0)
        self.weights = sc.effective_weights()
        # visibility-blind: the front end stops rejecting sight-losing nodes
        self.occlusion_check = sc.mode != "baseline"

    def replan(self, t: float, state: RobotState, obs_times, obs_points,
               held):
        """The cycle at time `t` from `state`, predicting from the target
        positions `obs_points` seen at `obs_times` and reusing `held`, the
        front-end path the last cycle returned (absolute points and times,
        or None). Gives the optimized trajectory, the cycle's `Replan`
        record and the path to hold for the next cycle; both None when the
        search failed."""
        sc = self.scenario
        model = fit(obs_times, obs_points, degree=sc.predict_degree,
                    ridge=sc.predict_ridge, horizon=sc.horizon,
                    v_max=sc.predict_v_max)
        track_all = predict_track(model, t + self.track_offsets)

        def target_at(s, _track=track_all, _dt=self.dt_knot / 2.0):
            idx = min(int(round(s / _dt)), len(_track) - 1)
            return _track.c[idx]

        expanded = [] if self.traced else None
        # the previous front-end path usually still checks out against the
        # fresh prediction; re-searching every cycle would dominate latency
        reused = _revalidate_path(held, t, state, target_at, sc.esdf,
                                  sc.limits, self.occlusion_check,
                                  sc.search_horizon, sc.params.standoff)
        if reused is not None:
            pts, times = reused
        else:
            try:
                pts, times = search(state, target_at, sc.grid, sc.esdf,
                                    sc.limits, sc.search_config,
                                    horizon=sc.search_horizon,
                                    standoff=sc.params.standoff,
                                    occlusion_check=self.occlusion_check,
                                    trace=expanded)
                held = (pts + 0.0, times + t)
            except SearchError:
                return None, Replan(t, expanded, None, None), None

        if sc.mode == "baseline":
            yaw_targets = None
        else:
            future = predict_track(model, t + times).c
            look = future - pts
            yaw_targets = np.arctan2(look[:, 1], look[:, 0])
            hdeg = np.hypot(look[:, 0], look[:, 1]) < DEGENERATE_EPS
            yaw_targets[hdeg] = state.yaw

        seed_traj = initialize_from_path(pts, times, state, self.dt_knot,
                                         sc.num_control_points,
                                         yaw_targets=yaw_targets)
        # knot m's time and half-knot 2m's time both round m * dt_knot once
        track = TargetTrack(track_all.c[:2 * sc.num_control_points - 5:2])
        result = optimize(seed_traj, track, sc.esdf, sc.params, self.weights,
                          sc.limits)
        cycle = Replan(t, expanded, result.trace,
                       result.final_report.term_values())
        return result.trajectory, cycle, held


# ---------------------------------------------------------------------------
# main loop


def run(scenario: Scenario, collect_traces: bool = False) -> RunReport:
    sc = scenario
    planner = Planner(sc, traced=collect_traces)
    report = RunReport(scenario_echo=sc.config_echo(), duration=sc.duration,
                       replans=[] if collect_traces else None)
    half_bins = report.heatmap.shape[0] // 2
    half = HEATMAP_WINDOW / 2

    committed = None        # (trajectory, start time)
    held = None             # the front-end path the planner reuses
    obs_times, obs_points = [], []  # the target seen in the fit window
    n_steps = int(round(sc.duration / sc.replan_period))

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

        rel = target_p - state.p
        d = norm(rel)
        psi_best = math.atan2(rel[1], rel[0])
        psi_err = abs(wrap_angle(state.yaw - psi_best))
        occluded = raycast_occluded(sc.grid, state.p, target_p)
        fov = (not occluded) and _cone_contains(
            state.p, state.yaw, target_p, sc.fov_h_half, sc.fov_v_half)

        report.steps.append(StepRecord(t, state.p.copy(), state.yaw,
                                       target_p.copy(), d, psi_err, fov,
                                       occluded))
        if fov:
            report.tracked_steps += 1
            # an offset past the window counts in the window's edge bin
            ix, iy = (min(int((min(max(r, -half), half) + half)
                              // HEATMAP_BIN), 2 * half_bins - 1)
                      for r in _rot(rel, -state.yaw))
            report.heatmap[ix, iy] += 1
        else:
            # every earlier step saw the target, so at most this one is
            # occluded
            report.termination = "target_lost"
            report.failure_time = t
            report.occlusion_events = int(occluded)
            break

        obs_times.append(t)
        obs_points.append(target_p)
        while obs_times[0] < t - sc.predict_window:
            del obs_times[0], obs_points[0]
        if i == n_steps:
            break

        t_wall = time.perf_counter()
        traj, cycle, held = planner.replan(t, state, obs_times, obs_points,
                                           held)
        report.replan_times.append(time.perf_counter() - t_wall)
        if report.replans is not None:
            report.replans.append(cycle)
        del cycle   # untraced, its record goes before the next cycle
        if traj is not None:
            committed = (traj, t)
        elif committed is None:
            report.termination = "planner_failure"
            report.failure_time = t
            break
        # else keep flying the committed trajectory

    if report.termination == "completed":
        report.failure_time = sc.duration
    return report


def _revalidate_path(held, t, state, target_at, esdf, limits,
                     occlusion_check, horizon, standoff):
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
    if abs(np.linalg.norm(pts[-1] - goal) - standoff) > GOAL_TOLERANCE + 0.3:
        return None
    if np.min(esdf.distance_at(pts)) <= limits.d_thr / 2.0:
        return None
    if occlusion_check:
        for p, s in zip(pts, times):
            if raycast_occluded(esdf.grid, p, target_at(s)):
                return None
    return pts, times


def _rot(rel, ang):
    c, s = math.cos(ang), math.sin(ang)
    return np.array([c * rel[0] - s * rel[1], s * rel[0] + c * rel[1]])
