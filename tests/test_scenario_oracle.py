"""Oracle tests: the scenario loader against the one it replaced.

`reference_scenario_from_dict` is `scenario_from_dict` as it was before one
table came to hold the scenario format, kept verbatim (only renamed, without
the `pose_noise_sigma` and field-of-view fields the `Scenario` no longer
has, and with every map at the origin) with its helpers. For every
bundled scenario, and for valid variations of forest.json and mini.json
that draw seeds, in-range numbers and absent optional keys of today's
format, the loader must build an equal `Scenario`: the same grid, ESDF and
target bytes and the same scalars, start and configs.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visiplan.costs import CostWeights, DynamicLimits, VisibilityParams
from visiplan.env import (FieldError, OccupancyGrid, build_esdf, finite_array,
                          is_number)
from visiplan.optimizer import OptimizerConfig
from visiplan.search import SearchConfig
from visiplan.sim import (Scenario, ScenarioError, WaypointScript,
                          bundled_scenario, generate_random_forest,
                          random_target_script, scenario_from_dict)
from visiplan.spline import RobotState


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ScenarioError(f"scenario missing field '{key}' in {ctx}")
    return d[key]


_REQUIRED = object()


def _number(d: dict, key: str, ctx: str, default=_REQUIRED, kind=float,
            above=None, least=None):
    """d[key] (or `default` when absent) as a `kind` (float or int); a value
    that is not a finite number, not integral for int, not greater than
    `above` or below `least` when those are given, is a ScenarioError naming
    the field."""
    value = _require(d, key, ctx) if default is _REQUIRED \
        else d.get(key, default)
    if not is_number(value, kind):
        raise ScenarioError(
            f"scenario field '{_field_name(ctx, key)}' must be "
            f"{'an integer' if kind is int else 'a finite number'}, "
            f"got {value!r}")
    number = kind(value)
    if above is not None and not number > above:
        bound = f"at least {above + 1}" if kind is int \
            else f"greater than {above}"
        raise ScenarioError(f"scenario field '{_field_name(ctx, key)}' must "
                            f"be {bound}, got {value!r}")
    if least is not None and not number >= least:
        raise ScenarioError(f"scenario field '{_field_name(ctx, key)}' must "
                            f"be at least {least}, got {value!r}")
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
    except FieldError:
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


def _known(d, ctx: str, keys) -> dict:
    """`d` when it is an object holding no key outside `keys`; anything
    else is a ScenarioError naming the section `ctx` or the unknown
    field."""
    if not isinstance(d, dict):
        raise ScenarioError(f"scenario field '{ctx}' must be an object")
    for key in d:
        if key not in keys:
            raise ScenarioError(
                f"unknown scenario field '{_field_name(ctx, key)}'")
    return d


_SCENARIO_KEYS = {
    "name", "seed", "map", "d_trunc", "robot_start", "target", "duration",
    "horizon", "search_horizon", "fov_h_deg", "fov_v_deg", "replan_period",
    "num_control_points", "pose_noise_sigma", "predict",
    "limits", "params", "weights", "search", "optimizer"}


def _config(cls, raw: dict, section: str, defaults: dict | None = None):
    """The config dataclass `cls` built from scenario section `section`
    over `defaults`; unknown or invalid fields are a ScenarioError naming
    the section and the field."""
    given = _known(raw.get(section, {}), section,
                   {f.name for f in dataclasses.fields(cls)})
    try:
        return cls(**{**(defaults or {}), **given})
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"scenario section '{section}': {e}") from e


def reference_scenario_from_dict(raw: dict, base_dir: Path | None = None,
                       mode: str = "visibility",
                       seed: int | None = None) -> Scenario:
    base_dir = Path(base_dir) if base_dir else Path.cwd()
    if mode not in ("visibility", "baseline"):
        raise ScenarioError(f"unknown mode '{mode}'")
    _known(raw, "scenario", _SCENARIO_KEYS)
    eff_seed = int(seed) if seed is not None \
        else _number(raw, "seed", "scenario", 0, int)

    limits = _config(DynamicLimits, raw, "limits")
    _config(VisibilityParams, raw, "params")    # checked; Scenario fixes it
    _config(CostWeights, raw, "weights")
    search_cfg = _config(SearchConfig, raw, "search")
    _config(OptimizerConfig, raw, "optimizer")

    grid = _reference_load_map(_require(raw, "map", "scenario"), base_dir, eff_seed, raw)
    d_trunc = _number(raw, "d_trunc", "scenario", 5.0)
    try:
        esdf = build_esdf(grid, d_trunc)
    except FieldError as e:
        raise ScenarioError(f"scenario field 'd_trunc': {e}") from e

    rs = _known(_require(raw, "robot_start", "scenario"), "robot_start",
                {"p", "v", "a", "yaw", "yaw_rate"})
    start = RobotState(
        _vector(rs, "p", "robot_start"),
        _vector(rs, "v", "robot_start", [0.0, 0.0, 0.0]),
        _vector(rs, "a", "robot_start", [0.0, 0.0, 0.0]),
        _number(rs, "yaw", "robot_start", 0.0),
        _number(rs, "yaw_rate", "robot_start", 0.0))

    tgt = _require(raw, "target", "scenario")
    duration = _number(raw, "duration", "scenario", above=0)
    horizon = _number(raw, "horizon", "scenario", 3.0, above=0)
    pr = _known(raw.get("predict", {}), "predict",
                {"degree", "ridge", "window", "v_max"})
    # the planner's fixed settings are class attributes of Scenario, not
    # fields; their keys are still read and checked
    _number(raw, "replan_period", "scenario", 0.1, above=0)
    # a cubic B-spline needs one free control point past the three
    # pinned by the start state
    _number(raw, "num_control_points", "scenario", 33, int, above=3)
    _number(pr, "ridge", "predict", 1e-4)
    _number(raw, "fov_h_deg", "scenario", 80.0)
    _number(raw, "fov_v_deg", "scenario", 65.0)
    scenario = Scenario(
        name=str(raw.get("name", "scenario")),
        esdf=esdf,
        start=start,
        target=_reference_load_target(tgt, esdf, eff_seed, duration),
        duration=duration,
        search_horizon=_number(raw, "search_horizon", "scenario", horizon,
                               above=0),
        seed=eff_seed,
        limits=limits,
        search_config=search_cfg,
        predict_degree=_number(pr, "degree", "predict", 3, int),
        predict_window=_number(pr, "window", "predict", 2.0),
        predict_v_max=_number(pr, "v_max", "predict", 2.5),
        mode=mode,
    )
    return scenario


def _reference_load_map(m: dict, base_dir: Path, seed: int, raw: dict) -> OccupancyGrid:
    if "file" in m:
        _known(m, "map", {"file", "resolution", "origin"})
        p = base_dir / m["file"]
        resolution = _number(m, "resolution", "map", above=0) \
            if "resolution" in m else None
        _vector(m, "origin", "map", [0.0, 0.0, 0.0])
        try:
            return OccupancyGrid.from_ascii(Path(p).read_text(),
                                            resolution=resolution)
        except (OSError, FieldError) as e:
            raise ScenarioError(f"cannot load map '{m['file']}': {e}") from e
    if "generator" in m:
        _known(m, "map", {"generator"})
        g = _known(m["generator"], "map.generator",
                   {"kind", "seed", "area", "count", "radius_range",
                    "resolution", "clearance", "keep_clear"})
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
        resolution = _number(g, "resolution", "map.generator", 0.1, above=0)
        if any(round(float(a) / resolution) < 1 for a in area):
            raise ScenarioError("scenario field 'map.generator.area' must "
                                "span at least one cell at the generator's "
                                f"resolution {resolution!r}, got "
                                f"{g['area']!r}")
        radii = _vector(g, "radius_range", "map.generator", shape=(2,),
                        what="a list [low, high] with 0 < low <= high")
        if not 0.0 < radii[0] <= radii[1]:
            raise ScenarioError("scenario field 'map.generator.radius_range' "
                                "must be a list [low, high] with 0 < low <= "
                                f"high, got {g['radius_range']!r}")
        return generate_random_forest(
            seed=_number(g, "seed", "map.generator", seed, int),
            area=area,
            count=_number(g, "count", "map.generator", kind=int, above=-1),
            radius_range=radii,
            keep_clear=keep_clear,
            clearance=_number(g, "clearance", "map.generator", 1.0,
                              least=0))
    if "dims" in m:
        _known(m, "map", {"resolution", "origin", "dims", "occupied"})
        try:
            return OccupancyGrid.from_json_dict(m)
        except FieldError as e:
            named = f"scenario field 'map.{e.field}': " if e.field else ""
            raise ScenarioError(named + str(e)) from e
    raise ScenarioError("map must carry 'file', 'generator' or inline grid fields")


def _reference_load_target(t: dict, esdf: ESDFField, seed: int,
                 duration: float) -> WaypointScript:
    if "waypoints" in t:
        _known(t, "target", {"waypoints"})
        wps = _points(t, "waypoints", "target", 4)
        return WaypointScript(wps[:, 0], wps[:, 1:])
    if "path" in t:
        _known(t, "target", {"path", "speed", "start_hold"})
        return WaypointScript.from_path(
            _points(t, "path", "target"),
            _number(t, "speed", "target", 1.0, above=0),
            _number(t, "start_hold", "target", 0.0))
    if "random" in t:
        _known(t, "target", {"random"})
        r = _known(t["random"], "target.random",
                   {"seed", "start", "speed", "duration", "bounds",
                    "clearance"})
        rng = np.random.default_rng(
            _number(r, "seed", "target.random", seed, int) + 1)
        bounds = _vector(r, "bounds", "target.random", shape=(3, 2),
                         what="3 [low, high] pairs")
        if not (bounds[:, 0] <= bounds[:, 1]).all():
            raise ScenarioError("scenario field 'target.random.bounds' must "
                                "be 3 [low, high] pairs with low <= high, "
                                f"got {r['bounds']!r}")
        start = _vector(r, "start", "target.random")
        if not ((bounds[:, 0] <= start) & (start <= bounds[:, 1])).all():
            raise ScenarioError("scenario field 'target.random.start' must "
                                "lie inside target.random.bounds, got "
                                f"{r['start']!r}")
        return random_target_script(
            rng, esdf, start=start,
            speed=_number(r, "speed", "target.random", above=0),
            duration=_number(r, "duration", "target.random", duration),
            bounds=bounds,
            clearance=_number(r, "clearance", "target.random", 0.6, least=0))
    raise ScenarioError("target must carry 'waypoints', 'path' or 'random'")


# ---------------------------------------------------------------------------
# tests


def snapshot(value):
    """`value` as nested tuples: arrays by dtype, shape and bytes, dataclass
    and script fields one by one, anything else by its type and repr."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, WaypointScript):
        return ("script", snapshot(value.times), snapshot(value.points))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, snapshot(getattr(value, f.name)))
            for f in dataclasses.fields(value))
    return (type(value).__name__, repr(value))


def loaded(load, raw, **kwargs):
    """The snapshot of the scenario `load` builds, or the message of the
    ScenarioError it raises. The reference loader lets the FieldError of a
    walk that cannot go on through; the loader names its field under
    `target.random`."""
    try:
        return snapshot(load(copy.deepcopy(raw), **kwargs))
    except ScenarioError as e:
        return ("ScenarioError", str(e))
    except FieldError as e:
        return ("ScenarioError",
                f"scenario field 'target.random.{e.field}': {e}")


def assert_loads_as_before(raw, **kwargs):
    kwargs.setdefault("base_dir", bundled_scenario("mini").parent)
    want = loaded(reference_scenario_from_dict, raw, **kwargs)
    assert loaded(scenario_from_dict, raw, **kwargs) == want


def bundled(name: str) -> dict:
    return json.loads(bundled_scenario(name).read_text())


@pytest.mark.parametrize("mode", ["visibility", "baseline"])
@pytest.mark.parametrize("name, seed", [
    ("case1", None), ("case2", None), ("mini", None), ("forest", None),
    ("forest", 3), ("forest", 210_007)])
def test_bundled_scenarios_load_as_before(name, seed, mode):
    raw = bundled(name)
    assert loaded(scenario_from_dict, raw, mode=mode, seed=seed,
                  base_dir=bundled_scenario(name).parent)[0] == "Scenario"
    assert_loads_as_before(raw, mode=mode, seed=seed)


def number(lo: float, hi: float):
    """A JSON number in [lo, hi]: a float, or an int when one fits."""
    if math.ceil(lo) > math.floor(hi):
        return st.floats(lo, hi)
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


def point(lo: float, hi: float):
    return st.lists(number(lo, hi), min_size=2, max_size=2).map(
        lambda xy: xy + [0.0])


_DROP = object()


def vary(data, raw: dict, choices) -> dict:
    """A copy of `raw` in which each (dotted path, strategy, optional) of
    `choices` keeps its value, takes a drawn one, or, when optional, is
    removed so that the loader's default applies."""
    raw = copy.deepcopy(raw)
    for path, values, optional in choices:
        options = [st.none(), values] + ([st.just(_DROP)] if optional else [])
        value = data.draw(st.one_of(*options), label=path)
        if value is None:
            continue
        *parents, key = path.split(".")
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        if value is _DROP:
            section.pop(key, None)
        else:
            section[key] = value
    return raw


# scenario keys outside the map and the target, as (path, values, optional)
COMMON = [
    ("name", st.text(max_size=8), True),
    ("seed", st.integers(0, 2 ** 40), True),
    ("duration", number(0.5, 40.0), False),
    ("search_horizon", number(0.5, 3.0), True),
    ("predict.degree", st.integers(0, 4), True),
    ("predict.window", number(0.0, 3.0), True),
    ("predict.v_max", number(0.0, 3.0), True),
    ("limits", st.just({"v_m": 2.0, "a_m": 3.0}), True),
    ("search", st.just({"max_expansions": 500}), True),
]

FOREST = COMMON + [
    ("robot_start.p", point(1.0, 19.0), False),
    ("map.generator.area", st.lists(number(3.0, 25.0), min_size=2,
                                    max_size=2), False),
    ("map.generator.count", st.integers(0, 20), False),
    ("map.generator.radius_range", st.tuples(
        number(0.1, 0.5), number(0.0, 0.4)).map(
            lambda r: [r[0], r[0] + r[1]]), False),
    ("map.generator.clearance", number(0.0, 1.5), True),
    ("target.random.start", point(1.5, 18.5), False),
    ("target.random.speed", number(0.3, 3.0), False),
    ("target.random.clearance", number(0.0, 1.0), True),
]

MINI = COMMON + [
    ("robot_start.p", point(0.5, 11.5), False),
    ("map.occupied", st.lists(st.lists(st.integers(0, 119), min_size=2,
                                       max_size=2).map(lambda ij: ij + [0]),
                              max_size=20), False),
    ("target.path", st.lists(point(0.5, 11.5), min_size=1, max_size=4),
     False),
    ("target.speed", number(0.2, 3.0), True),
    ("target.start_hold", number(0.0, 2.0), True),
]


@settings(max_examples=60)
@given(data=st.data())
def test_forest_variations_load_as_before(data):
    raw = vary(data, bundled("forest"), FOREST)
    seed = data.draw(st.none() | st.integers(0, 2 ** 40), label="--seed")
    assert_loads_as_before(raw, seed=seed)


@settings(max_examples=60)
@given(data=st.data())
def test_mini_variations_load_as_before(data):
    raw = vary(data, bundled("mini"), MINI)
    assert_loads_as_before(raw, mode=data.draw(
        st.sampled_from(["visibility", "baseline"]), label="mode"))
