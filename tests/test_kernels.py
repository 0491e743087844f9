"""Property tests: the replan loop's lean kernels against the plain versions
they replaced.

`reference_raycast`, the `reference_*` ESDF functions, `reference_esdf`,
`reference_forest`, `reference_walk` and `reference_is_number` are the
earlier implementations, kept as oracles (`reference_esdf` is the
scipy feature transform the set-up used before it went numpy-only). Every comparison is bit-exact: the kernels must do the
same floating-point operations, not merely close ones. The whitening
factors are checked against their defining identities instead. The
search's line-of-sight and clearance certificates are checked for
soundness: when one holds, the work it skips would have found nothing.
"""

import json
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from visiplan.costs import (CostWeights, DynamicLimits, TargetTrack,
                            VisibilityParams, total_cost)
from visiplan.env import ESDFField, OccupancyGrid, build_esdf, is_number
from visiplan.optimizer import solve_triangular, whitening_factors
from visiplan.search import (_buried_certificate, _clearance_certificate,
                             _sight_certificate, raycast_occluded)
from visiplan.sim import (FOREST_RESOLUTION, ScenarioError, WaypointScript,
                          bundled_scenario, generate_random_forest,
                          load_scenario, random_target_script)
from visiplan.spline import TrajectoryBSpline


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype \
        and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# oracles


def reference_raycast(grid: OccupancyGrid, a, b) -> bool:
    res = grid.resolution
    a = (np.asarray(a, dtype=np.float64) - grid.origin) / res
    b = (np.asarray(b, dtype=np.float64) - grid.origin) / res
    nx, ny, nz = grid.dims
    occ = grid.occupancy

    d = b - a
    cell = [int(math.floor(v)) for v in a]
    step = [0, 0, 0]
    t_max = [math.inf] * 3
    t_delta = [math.inf] * 3
    for ax in range(3):
        if d[ax] > 1e-15:
            step[ax] = 1
            t_max[ax] = (cell[ax] + 1.0 - a[ax]) / d[ax]
            t_delta[ax] = 1.0 / d[ax]
        elif d[ax] < -1e-15:
            step[ax] = -1
            t_max[ax] = (cell[ax] - a[ax]) / d[ax]
            t_delta[ax] = -1.0 / d[ax]

    while True:
        i, j, k = cell
        if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz and occ[i, j, k]:
            return True
        ax = 0
        if t_max[1] < t_max[ax]:
            ax = 1
        if t_max[2] < t_max[ax]:
            ax = 2
        if t_max[ax] > 1.0:
            return False
        cell[ax] += step[ax]
        t_max[ax] += t_delta[ax]


def reference_coords(field: ESDFField, points):
    g = field.grid
    u = (points - g.origin) / g.resolution - 0.5
    n = np.asarray(g.dims)
    hi = (n - 1).astype(np.float64)
    clamped = (u < 0.0) | (u > hi)
    u = np.clip(u, 0.0, hi)
    i0 = np.minimum(np.floor(u).astype(np.int64), np.maximum(n - 2, 0))
    frac = u - i0
    frac = np.where(n - 1 == 0, 0.0, frac)
    return i0, frac, clamped


def reference_corners(field: ESDFField, i0):
    flat = field.distance.ravel()
    nx, ny, nz = field.grid.dims
    i1 = np.minimum(i0 + 1, np.array([nx - 1, ny - 1, nz - 1]))
    x0 = i0[:, 0] * (ny * nz)
    x1 = i1[:, 0] * (ny * nz)
    y0 = i0[:, 1] * nz
    y1 = i1[:, 1] * nz
    z0, z1 = i0[:, 2], i1[:, 2]
    return (flat[x0 + y0 + z0], flat[x1 + y0 + z0],
            flat[x0 + y1 + z0], flat[x1 + y1 + z0],
            flat[x0 + y0 + z1], flat[x1 + y0 + z1],
            flat[x0 + y1 + z1], flat[x1 + y1 + z1])


def reference_trilinear(field: ESDFField, i0, f):
    c000, c100, c010, c110, c001, c101, c011, c111 = \
        reference_corners(field, i0)
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def reference_trilinear_grad(field: ESDFField, i0, f):
    c000, c100, c010, c110, c001, c101, c011, c111 = \
        reference_corners(field, i0)
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    inv = 1.0 / field.grid.resolution
    dx = ((c100 - c000) * (1 - fy) * (1 - fz) + (c110 - c010) * fy * (1 - fz)
          + (c101 - c001) * (1 - fy) * fz + (c111 - c011) * fy * fz) * inv
    dy = ((c010 - c000) * (1 - fx) * (1 - fz) + (c110 - c100) * fx * (1 - fz)
          + (c011 - c001) * (1 - fx) * fz + (c111 - c101) * fx * fz) * inv
    dz = ((c001 - c000) * (1 - fx) * (1 - fy) + (c101 - c100) * fx * (1 - fy)
          + (c011 - c010) * (1 - fx) * fy + (c111 - c110) * fx * fy) * inv
    return np.stack([dx, dy, dz], axis=-1)


def reference_distance_and_gradient(field: ESDFField, p):
    pts = np.atleast_2d(np.asarray(p, dtype=np.float64))
    i0, f, clamped = reference_coords(field, pts)
    val = reference_trilinear(field, i0, f)
    grad = reference_trilinear_grad(field, i0, f)
    grad[clamped] = 0.0
    return val, grad


def reference_esdf(grid: OccupancyGrid, d_trunc: float = 5.0) -> ESDFField:
    """The distance field from scipy's feature transform."""
    occ = grid.occupancy
    if not occ.any():
        dist = np.full(occ.shape, float(d_trunc))
        return ESDFField(grid, dist)
    free = ~occ.reshape([n for n in occ.shape if n > 1] or [1])
    nearest = ndimage.distance_transform_edt(
        free, return_distances=False, return_indices=True)
    sq = np.zeros(free.shape, dtype=np.int64)
    for axis, idx in enumerate(nearest):
        offset = idx - np.arange(free.shape[axis]).reshape(
            [-1] + [1] * (free.ndim - 1 - axis))
        sq += offset * offset
    dist = np.minimum(np.sqrt(sq) * grid.resolution, d_trunc)
    return ESDFField(grid, dist.reshape(occ.shape))


def reference_forest(seed: int, area, count: int, radius_range,
                     resolution: float = 0.1, keep_clear=(),
                     clearance: float = 1.0,
                     max_tries: int = 500) -> OccupancyGrid:
    """Every disc stamped by evaluating its inequality over the whole grid."""
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
                mask = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 <= r * r
                grid.occupancy[:, :, 0] |= mask
                break
        else:
            raise ScenarioError(
                f"could not place obstacle with {clearance} m clearance")
    return grid


def reference_walk(rng: np.random.Generator, esdf: ESDFField, start,
                   speed: float, duration: float, bounds,
                   clearance: float = 0.6) -> WaypointScript:
    """Every candidate leg built as an array before its bounds test."""
    bounds = np.asarray(bounds, dtype=np.float64)
    pts = [np.asarray(start, dtype=np.float64)]
    along = np.linspace(0, 1, 24)[:, None]
    heading = None
    total_time = 0.5
    while total_time < duration:
        placed = False
        for attempt in range(200):
            if heading is None:
                ang = rng.uniform(0.0, 2.0 * math.pi)
            else:
                spread = 1.6 if attempt < 100 else math.pi
                ang = heading + rng.uniform(-spread, spread)
            leg = rng.uniform(2.0, 5.0)
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
    return WaypointScript.from_path(np.stack(pts), speed, 0.5)


def reference_is_number(value, kind) -> bool:
    """Type-checked through the numbers ABCs only."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    return math.isfinite(x) and (kind is not int or x.is_integer())


# ---------------------------------------------------------------------------
# strategies

# exact binary fractions make grid-aligned endpoints land on cell faces
RESOLUTIONS = [0.1, 0.25, 1.0]
ORIGINS = [0.0, -0.5, 0.3, -1.75]


@st.composite
def grids(draw, planar: bool):
    dims = (draw(st.integers(1, 20)), draw(st.integers(1, 20)),
            1 if planar else draw(st.integers(1, 8)))
    grid = OccupancyGrid.empty(
        draw(st.sampled_from(RESOLUTIONS)), dims,
        [draw(st.sampled_from(ORIGINS)) for _ in range(3)])
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid.occupancy[:] = rng.random(dims) < density
    return grid


def cell_floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def segments(draw, grid: OccupancyGrid, kind: str, planar: bool):
    """Endpoints (a, b) in world coordinates, drawn in cell units."""
    n = np.asarray(grid.dims, dtype=np.float64)

    def anywhere():
        return np.array([draw(cell_floats(-2.0, m + 2.0)) for m in n])

    def inside():
        return np.array([draw(cell_floats(0.0, m)) for m in n])

    def lattice():
        return np.array([float(draw(st.integers(-1, int(m) + 1))) for m in n])

    if kind == "random":
        a, b = anywhere(), anywhere()
    elif kind == "grid_aligned":
        a = lattice()
        if draw(st.booleans()):
            b = lattice()
        else:       # along a cell diagonal, grazing every corner it passes
            steps = [draw(st.sampled_from([-1, 0, 1])) for _ in range(3)]
            b = a + draw(st.integers(1, 12)) * np.array(steps, float)
    elif kind == "axis_parallel":
        a = anywhere()
        b = a.copy()
        ax = draw(st.integers(0, 2))
        b[ax] = draw(cell_floats(-2.0, n[ax] + 2.0))
    elif kind == "degenerate":
        a = anywhere() if draw(st.booleans()) else lattice()
        b = a.copy()
    elif kind == "off_grid":
        # both ends past one face of the grid, some within the two cells
        # the raycast's box test spares and some beyond them
        a, b = anywhere(), anywhere()
        ax = draw(st.integers(0, 1 if planar else 2))
        band = cell_floats(-6.0, -1.0) if draw(st.booleans()) \
            else cell_floats(n[ax] + 1.0, n[ax] + 6.0)
        a[ax], b[ax] = draw(band), draw(band)
    elif kind == "crossing_border":
        a, b = inside(), inside()
        ax = draw(st.integers(0, 2))
        b[ax] = draw(st.one_of(cell_floats(-3.0, 0.0),
                               cell_floats(n[ax], n[ax] + 3.0)))
        if draw(st.booleans()):
            a, b = b, a
    else:   # "near_border": end in, or on the face of, a cell next to the border
        a, b = inside(), inside()
        for p in (a, b):
            ax = draw(st.integers(0, 1))
            cell = draw(st.sampled_from([0.0, 1.0, n[ax] - 2.0, n[ax] - 1.0]))
            offset = draw(st.sampled_from([0.0, 0.5, 1.0]) | cell_floats(0, 1))
            p[ax] = cell + offset
    if planar:
        # a level segment, mostly inside the single layer of cells
        a[2] = b[2] = draw(st.sampled_from([0.5, 0.0, 0.999]) | cell_floats(-1, 2))
    origin, res = grid.origin, grid.resolution
    return origin + a * res, origin + b * res


SEGMENT_KINDS = ["random", "grid_aligned", "axis_parallel", "degenerate",
                 "crossing_border", "near_border", "off_grid"]


# ---------------------------------------------------------------------------
# raycast


@pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
@pytest.mark.parametrize("kind", SEGMENT_KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_raycast_matches_reference(kind, planar, data):
    grid = data.draw(grids(planar))
    for _ in range(8):
        a, b = data.draw(segments(grid, kind, planar))
        assert raycast_occluded(grid, a, b) == reference_raycast(grid, a, b), \
            (a.tolist(), b.tolist())


@settings(max_examples=100)
@given(grid=grids(planar=True), data=st.data())
def test_raycast_accepts_lists(grid, data):
    a, b = data.draw(segments(grid, "random", True))
    assert raycast_occluded(grid, a.tolist(), b.tolist()) \
        == reference_raycast(grid, a, b)


def sparsen(grid: OccupancyGrid, data):
    """Maybe keep only a few occupied cells: certificates then hold next to
    obstacles instead of only far from them."""
    if data.draw(st.booleans()):
        grid.occupancy[:] = False
        for _ in range(data.draw(st.integers(1, 3))):
            grid.occupancy[tuple(data.draw(st.integers(0, n - 1))
                                 for n in grid.dims)] = True


@pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
@settings(max_examples=30)
@given(data=st.data())
def test_occupied_counts_are_box_counts(planar, data):
    grid = data.draw(grids(planar))
    sparsen(grid, data)
    table = grid.occupied_counts()
    nx, ny, nz = grid.dims
    want = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.int32)
    for i, j, k in np.ndindex(want.shape):
        want[i, j, k] = grid.occupancy[:i, :j, :k].sum()
    assert same_bits(table, want)


@pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
@pytest.mark.parametrize("kind", ["random", "grid_aligned", "crossing_border",
                                  "near_border", "outside"])
@settings(max_examples=60)
@given(data=st.data())
def test_sight_certificate_is_sound(kind, planar, data):
    grid = data.draw(grids(planar))
    sparsen(grid, data)
    clear = _sight_certificate(grid)
    for _ in range(8):
        if kind == "outside":   # segments that may never enter the grid
            a, b = data.draw(segments(grid, "random", planar))
            shift = np.zeros(3)
            shift[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(
                [-1.0, 1.0])) * grid.resolution * max(grid.dims)
            a = a + shift
            b = b + shift * data.draw(st.sampled_from([0.5, 1.0]))
        else:
            a, b = data.draw(segments(grid, kind, planar))
        # the certificate is exactly "no occupied cell in the grown box"
        ia, ib = np.array(grid.cell_of(a)), np.array(grid.cell_of(b))
        lo = np.maximum(np.minimum(ia, ib) - 1, 0)
        hi = np.minimum(np.maximum(ia, ib) + 2, grid.dims)
        box = grid.occupancy[lo[0]:max(hi[0], lo[0]), lo[1]:max(hi[1], lo[1]),
                             lo[2]:max(hi[2], lo[2])]
        certified = clear(a, grid.cell_of(b))
        assert certified == (not box.any())
        if certified:
            assert not raycast_occluded(grid, a, b), (a.tolist(), b.tolist())
            assert not reference_raycast(grid, a, b)


@pytest.mark.parametrize("planar", [True, False], ids=["planar", "3d"])
@pytest.mark.parametrize("kind", SEGMENT_KINDS)
@settings(max_examples=60)
@given(data=st.data())
def test_buried_certificate_is_sound(kind, planar, data):
    grid = data.draw(grids(planar))
    for _ in range(8):
        a, b = data.draw(segments(grid, kind, planar))
        if data.draw(st.booleans()) and grid.in_bounds(grid.cell_of(b)):
            grid.occupancy[grid.cell_of(b)] = True      # bury the end
        hit = _buried_certificate(grid, b)
        cell = grid.cell_of(b)
        assert (hit is None) == (not grid.is_occupied(cell))
        if hit is not None and hit(a):
            assert raycast_occluded(grid, a, b), (a.tolist(), b.tolist())
            assert reference_raycast(grid, a, b)


def test_buried_certificate_on_level_rays():
    """Planar rays at the height of the layer's lower face, as the forest
    scenario flies them, are certified with their end inside a cell."""
    grid = OccupancyGrid.empty(0.1, (20, 20, 1))
    grid.occupancy[10, 10, 0] = True
    hit = _buried_certificate(grid, [1.05, 1.05, 0.0])
    assert hit is not None
    assert hit([0.13, 0.37, 0.0]) and raycast_occluded(
        grid, [0.13, 0.37, 0.0], [1.05, 1.05, 0.0])
    assert not hit([0.13, 0.37, 0.01])      # steps in z: not certified
    # does not step in z, but runs in the layer below the grid
    assert not hit([0.13, 0.37, -1e-17]) and not raycast_occluded(
        grid, [0.13, 0.37, -1e-17], [1.05, 1.05, 0.0])
    # on a face of the occupied cell the traversal may stop short of it
    assert _buried_certificate(grid, [1.0, 1.05, 0.0])([0.13, 0.37, 0.0]) \
        is False
    assert _buried_certificate(grid, [1.15, 1.05, 0.0]) is None


def largest_certified_clearance(field, arc, p, reach):
    """The largest clearance the certificate accepts at (p, reach), by
    bisection, or None; field values lie in [0, d_trunc]."""
    lo, hi = -20.0, 20.0
    if not _clearance_certificate(field, lo, arc)(p, reach):
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _clearance_certificate(field, mid, arc)(p, reach):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=150)
@given(data=st.data())
def test_clearance_certificate_is_sound(data):
    """At the largest clearance the certificate accepts, the search's
    primitive samples and every point within reach read above it."""
    grid = data.draw(grids(planar=data.draw(st.booleans())))
    sparsen(grid, data)
    field = build_esdf(grid, data.draw(st.sampled_from([0.3, 1.0, 5.0])))
    res = grid.resolution
    tau = data.draw(st.sampled_from([0.1, 0.25]))
    a_m = data.draw(st.sampled_from([5.0, 20.0, 0.0]))
    fr = (-1.0, 0.0, 1.0)
    accels = a_m * np.array([[x, y, z] for x in fr for y in fr for z in fr])
    arc = 0.5 * tau * tau * a_m * math.sqrt(3.0)
    n = np.asarray(grid.dims, dtype=np.float64)
    samp_t = np.linspace(0.0, tau, 5)
    occupied = grid.origin + (grid.occupied_cells() + 0.5) * res
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(12):
        p = grid.origin + rng.uniform(-2.0, n + 2.0) * res
        v = rng.uniform(-3.0, 3.0, 3) * rng.choice([0.0, 0.1, 1.0])
        reach = math.sqrt(float(v @ v)) * tau
        clearance = largest_certified_clearance(field, arc, p.tolist(), reach)
        if clearance is None:
            continue
        arcs = p + np.outer(samp_t, v)[None] \
            + 0.5 * accels[:, None, :] * (samp_t ** 2)[None, :, None]
        # points in the ball of the reach, most at its surface, and the
        # stretch toward the nearest occupied cell
        dirs = rng.normal(size=(64, 3))
        if occupied.size:
            dirs[0] = occupied[np.argmin(np.linalg.norm(occupied - p,
                                                        axis=1))] - p
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True),
                           1e-12)
        radii = (reach + arc) * np.concatenate(
            [np.ones(32), rng.random(32)])
        radii[1:4] = (reach + arc) * np.array([0.25, 0.5, 0.75])
        dirs[1:4] = dirs[0]
        ball = p + dirs * radii[:, None]
        for pts in (arcs.reshape(-1, 3), ball):
            assert np.all(field.distance_at(pts) > clearance)


# ---------------------------------------------------------------------------
# ESDF build


def assert_esdf_matches_reference(grid: OccupancyGrid, d_trunc: float):
    got, want = build_esdf(grid, d_trunc), reference_esdf(grid, d_trunc)
    assert same_bits(got.distance, want.distance)


@settings(max_examples=400)
@given(data=st.data())
def test_esdf_matches_reference(data):
    grid = data.draw(grids(planar=data.draw(st.booleans())))
    if data.draw(st.booleans()):
        grid.occupancy[:] = data.draw(st.booleans())    # empty or full
    elif data.draw(st.booleans()):
        sparsen(grid, data)
    # below one cell, a few cells, and past the whole grid
    d_trunc = data.draw(st.sampled_from([0.01, 0.3, 1.0, 5.0, 1e9]))
    assert_esdf_matches_reference(grid, d_trunc)


@settings(max_examples=60)
@given(dims=st.tuples(st.integers(1, 260), st.integers(1, 260),
                      st.integers(1, 3)),
       density=st.sampled_from([0.0005, 0.005, 0.05]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dims=(200, 1, 1), density=0.005, seed=0)
def test_esdf_matches_reference_on_long_axes(dims, density, seed):
    """Axes longer than the truncation reach, and a d_trunc whose reach
    (the sum of the dims at resolution 1) passes the int16 range once the
    dims add up to 130 or more."""
    grid = OccupancyGrid.empty(1.0, dims)
    grid.occupancy[:] = np.random.default_rng(seed).random(dims) < density
    for d_trunc in (3.0, 40.0, 1e9):
        assert_esdf_matches_reference(grid, d_trunc)


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_esdf_matches_reference_on_forests(seed):
    """Forests drawn as the bundled forest scenario draws them."""
    g = json.loads(bundled_scenario("forest").read_text())["map"]["generator"]
    grid = generate_random_forest(seed, g["area"], g["count"],
                                  g["radius_range"],
                                  clearance=g["clearance"])
    assert_esdf_matches_reference(grid, 5.0)


@pytest.mark.parametrize("name", ["case1", "case2", "forest", "mini"])
def test_bundled_scenario_esdf_matches_reference(name):
    sc = load_scenario(bundled_scenario(name))
    want = reference_esdf(sc.grid, sc.d_trunc)
    assert same_bits(sc.esdf.distance, want.distance)


# ---------------------------------------------------------------------------
# ESDF queries


@st.composite
def fields(draw):
    grid = draw(grids(planar=draw(st.booleans())))
    if draw(st.booleans()):
        return build_esdf(grid, draw(st.sampled_from([0.3, 1.0, 5.0])))
    # arbitrary samples expose any reordering of the interpolation arithmetic
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ESDFField(grid, rng.random(grid.dims) * 3.0)


@st.composite
def query_points(draw, field: ESDFField):
    """(K, 3) world points: inside, outside and on the interpolation
    lattice (cell centers and faces)."""
    n = np.asarray(field.grid.dims, dtype=np.float64)
    k = draw(st.integers(1, 12))
    coord = [st.one_of(cell_floats(-3.0, m + 3.0),
                       st.integers(-2, int(m) + 2).map(lambda i: i + 0.5),
                       st.integers(-2, int(m) + 2).map(float)) for m in n]
    u = np.array([[draw(c) for c in coord] for _ in range(k)])
    return field.grid.origin + u * field.grid.resolution


@settings(max_examples=200)
@given(data=st.data())
def test_esdf_queries_match_reference(data):
    field = data.draw(fields())
    pts = data.draw(query_points(field))
    val, grad = reference_distance_and_gradient(field, pts)

    assert same_bits(field.distance_at(pts), val)
    v, g = field.distance_and_gradient(pts)
    assert same_bits(v, val) and same_bits(g, grad)

    scalar = field.distance_at(pts[0])
    assert type(scalar) is float and same_bits(scalar, val[0])
    v, g = field.distance_and_gradient(pts[0])
    assert same_bits(v, val[:1]) and same_bits(g, grad[:1])


def test_esdf_distance_is_read_only():
    grid = OccupancyGrid.empty(0.1, (4, 4, 1))
    grid.occupancy[1, 1, 0] = True
    field = build_esdf(grid, 1.0)
    with pytest.raises(ValueError):
        field.distance[0, 0, 0] = 0.0


# ---------------------------------------------------------------------------
# scenario set-up


def result_or_error(make, *args):
    try:
        return make(*args)
    except ScenarioError as e:
        return str(e)


@settings(max_examples=300)
@given(seed=st.integers(0, 2 ** 32 - 1),
       # areas off the resolution's multiples round to a whole cell count
       area=st.tuples(cell_floats(0.6, 8.0), cell_floats(0.6, 8.0)),
       count=st.integers(0, 12),
       # radii from below half a cell to past the whole map, so discs cross
       # every border
       radii=st.tuples(cell_floats(0.01, 3.0), cell_floats(0.0, 6.0)).map(
           lambda lr: (lr[0], lr[0] + lr[1])),
       keep_clear=st.lists(st.tuples(cell_floats(-1.0, 9.0),
                                     cell_floats(-1.0, 9.0),
                                     st.just(0.0)), max_size=3),
       clearance=cell_floats(0.0, 1.5))
@example(seed=0, area=(2.0, 2.0), count=0, radii=(0.2, 0.4), keep_clear=[],
         clearance=1.0)
@example(seed=1, area=(2.05, 1.3), count=4, radii=(1.5, 3.0), keep_clear=[],
         clearance=0.0)
@example(seed=2, area=(3.0, 3.0), count=6, radii=(0.01, 0.12),
         keep_clear=[(1.5, 1.5, 0.0)], clearance=0.3)
# every candidate fails: the error after 500 tries
@example(seed=3, area=(2.0, 2.0), count=3, radii=(0.2, 0.4),
         keep_clear=[(1.0, 1.0, 0.0)], clearance=2.0)
def test_forest_matches_reference(seed, area, count, radii, keep_clear,
                                  clearance):
    got = result_or_error(generate_random_forest, seed, area, count, radii,
                          keep_clear, clearance)
    want = result_or_error(reference_forest, seed, area, count, radii,
                           FOREST_RESOLUTION, keep_clear, clearance)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dims == want.dims
        assert same_bits(got.occupancy, want.occupancy)


# a margin of the walk's box around its start: from none, through boxes
# that pin the walker down (the cone widens after 100 tries, the walk fails
# after 200), to the whole map
margins = st.one_of(st.sampled_from([0.0, 0.05, 0.5, 1.5]),
                    cell_floats(0.0, 20.0))


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), map_seed=st.integers(0, 2 ** 16),
       start=st.tuples(cell_floats(1.5, 18.5), cell_floats(1.5, 18.5)),
       margins=st.tuples(margins, margins, margins, margins),
       speed=cell_floats(0.3, 3.0), duration=cell_floats(0.0, 30.0),
       clearance=cell_floats(0.0, 1.0))
# a corridor 0.6 m wide: each turn at its ends takes the widened cone, and
# on the second map one such turn finds no leg and the walk fails
@example(seed=0, map_seed=0, start=(5.0, 10.0), margins=(3.5, 13.5, 0.3, 0.3),
         speed=1.5, duration=30.0, clearance=0.0)
@example(seed=1, map_seed=1, start=(5.0, 10.0), margins=(3.5, 13.5, 0.3, 0.3),
         speed=1.5, duration=30.0, clearance=0.0)
# a box no leg fits in
@example(seed=5, map_seed=0, start=(5.0, 10.0), margins=(0.5, 0.5, 0.5, 0.5),
         speed=1.5, duration=30.0, clearance=0.7)
def test_walk_matches_reference(seed, map_seed, start, margins, speed,
                                duration, clearance):
    g = json.loads(bundled_scenario("forest").read_text())["map"]["generator"]
    grid = generate_random_forest(map_seed, g["area"], g["count"],
                                  g["radius_range"],
                                  clearance=g["clearance"])
    esdf = build_esdf(grid, 5.0)
    x, y = start
    bounds = [[x - margins[0], x + margins[1]],
              [y - margins[2], y + margins[3]], [0.0, 0.0]]
    args = (esdf, [x, y, 0.0], speed, duration, bounds, clearance)
    got = result_or_error(random_target_script,
                          np.random.default_rng(seed), *args)
    want = result_or_error(reference_walk, np.random.default_rng(seed), *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_bits(got.times, want.times) \
            and same_bits(got.points, want.points)


class ScriptedDraws:
    """Stands in for the walk's generator: `uniform` returns the given
    values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, low, high):
        return self.values.pop(0)


@pytest.mark.parametrize("ang, bounds", [
    (0.0, [[5.0, 7.0], [10.0, 10.0], [0.0, 0.0]]),
    (math.pi, [[3.0, 5.0], [10.0, 10.0], [0.0, 0.0]]),
    (math.pi / 2, [[5.0, 5.0], [10.0, 12.0], [0.0, 0.0]]),
    (-math.pi / 2, [[5.0, 5.0], [8.0, 10.0], [0.0, 0.0]]),
], ids=["x_hi", "x_lo", "y_hi", "y_lo"])
def test_walk_accepts_a_leg_ending_on_a_bound(ang, bounds):
    """A 2 m leg that lands exactly on a bound is inside the box."""
    esdf = build_esdf(OccupancyGrid.empty(0.1, (200, 200, 1)), 5.0)
    args = (esdf, [5.0, 10.0, 0.0], 2.0, 1.0, bounds, 0.6)
    got = random_target_script(ScriptedDraws(ang, 2.0), *args)
    want = reference_walk(ScriptedDraws(ang, 2.0), *args)
    assert same_bits(got.points, want.points) and len(got.points) == 3


numeric = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.integers(), st.integers(-2 ** 1100, 2 ** 1100),
    st.floats(), st.integers(-2 ** 60, 2 ** 60).map(float),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.fractions(), st.decimals())


@settings(max_examples=400)
@given(value=numeric)
@example(value=2 ** 1024 - 2 ** 970)          # the least int float() refuses
@example(value=2 ** 1024 - 2 ** 970 - 1)
@example(value=-(2 ** 1024 - 2 ** 970))
@example(value=float("inf"))
@example(value=float("-inf"))
@example(value=float("nan"))
@example(value=20.0)
@example(value=20.5)
@example(value=True)
@example(value=Fraction(3, 2))
@example(value=Decimal("2"))
@example(value="20")
def test_is_number_matches_reference(value):
    for kind in (int, float):
        assert is_number(value, kind) is reference_is_number(value, kind)


# ---------------------------------------------------------------------------
# whitening factors


def hessians(n, dt, weights, od_max):
    """The curvature estimates the whitening factors are built for."""
    nf = n - 3
    d3 = np.diff(np.eye(n), 3, axis=0)[:, 3:] / dt ** 3
    d1 = np.diff(np.eye(n), 1, axis=0)[:, 3:] / dt
    smooth, feas = d3.T @ d3, d1.T @ d1
    return (np.eye(nf) + 2.0 * weights.w_s * smooth
            + 4.0 * weights.w_f * feas,
            od_max ** 2 * np.eye(nf) + 2.0 * weights.w_s_phi * smooth
            + 4.0 * weights.w_f_phi * feas)


whitening_cases = given(
    n=st.integers(4, 40), dt=st.floats(0.02, 0.5),
    w_s=st.floats(0.0, 1e-2), w_f=st.floats(0.0, 10.0),
    w_s_phi=st.floats(0.0, 1e-2), w_f_phi=st.floats(0.0, 10.0),
    od_max=st.floats(0.5, 6.0), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100)
@whitening_cases
def test_whitening_factors_invert_the_cholesky_factor(
        n, dt, w_s, w_f, w_s_phi, w_f_phi, od_max, seed):
    weights = CostWeights(w_f=w_f, w_f_phi=w_f_phi, w_s=w_s, w_s_phi=w_s_phi)
    nf = n - 3
    q = np.random.default_rng(seed).normal(scale=10.0, size=(nf, 4))
    for w, h, block in zip(whitening_factors(n, dt, weights, od_max),
                           hessians(n, dt, weights, od_max),
                           (q[:, :3], q[:, 3])):
        assert same_bits(w, np.triu(w))
        assert not w.flags.writeable
        # w.T @ h @ w = I up to the rounding that h's conditioning allows
        # (a float64 product carries about eps times cond(h) of error)
        cond = np.linalg.norm(h, 2) * np.linalg.norm(w, 2) ** 2
        assert np.abs(w.T @ h @ w - np.eye(nf)).max() <= 1e-13 * cond
        # the optimizer's pack (a solve) and unpack (a product) round-trip
        back = w @ solve_triangular(w, block)
        assert np.abs(back - block).max() <= 1e-9 * np.abs(block).max()


@settings(max_examples=40)
@whitening_cases
def test_whitened_gradient_matches_central_differences(
        n, dt, w_s, w_f, w_s_phi, w_f_phi, od_max, seed):
    """W.T @ grad is the gradient of cost(unpack(x)), unpack(x) = W @ x."""
    weights = CostWeights(w_f=w_f, w_f_phi=w_f_phi, w_s=w_s, w_s_phi=w_s_phi)
    rng = np.random.default_rng(seed)
    nf = n - 3
    field = build_esdf(OccupancyGrid.empty(0.5, (40, 40, 1)), 5.0)
    limits = DynamicLimits(v_m=3.0, a_m=5.0, v_phi_m=3.0, a_phi_m=6.0,
                           d_thr=0.4, psi_thr=0.6)
    params = VisibilityParams()
    track = TargetTrack(np.tile([12.0, 10.0, 0.0], (n - 2, 1))
                        + rng.normal(scale=0.3, size=(n - 2, 3)))
    q = np.tile([10.0, 10.0, 0.0], (n, 1)) \
        + rng.normal(scale=0.5, size=(n, 3)) * [1.0, 1.0, 0.0]
    traj = TrajectoryBSpline(dt, q, rng.normal(scale=0.5, size=n))
    w_q, w_phi = whitening_factors(n, dt, weights, od_max)
    x = np.concatenate([solve_triangular(w_q, traj.q[3:]).ravel(),
                        solve_triangular(w_phi, traj.phi[3:])])

    def cost(x):
        traj.q[3:] = w_q @ x[:3 * nf].reshape(nf, 3)
        traj.phi[3:] = w_phi @ x[3 * nf:]
        return total_cost(traj, track, field, params, weights, limits)

    rep = cost(x)
    grad = np.concatenate([(w_q.T @ rep.grad_q[3:]).ravel(),
                           w_phi.T @ rep.grad_phi[3:]])
    for _ in range(3):
        v = rng.normal(size=x.size)
        v /= np.linalg.norm(v)
        h = 1e-6 * max(1.0, np.abs(x).max())
        fd = (cost(x + h * v).total - cost(x - h * v).total) / (2.0 * h)
        assert fd == pytest.approx(grad @ v, rel=1e-4,
                                   abs=1e-6 * max(1.0, abs(rep.total)))


def test_singular_solve_raises_like_scipy():
    """The error class is the one scipy.linalg re-exports."""
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 0.0
    for m in (a, a.T):
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.solve_triangular(m, np.ones(3),
                                          lower=m is not a)
        with pytest.raises(scipy.linalg.LinAlgError):
            solve_triangular(m, np.ones(3))
