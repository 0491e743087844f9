"""Property tests: the replan loop's lean kernels against the plain versions
they replaced.

`reference_raycast`, the `reference_*` ESDF functions and `reference_forest`
are the earlier numpy implementations, kept verbatim as oracles; the
triangular solves are checked against scipy. Every comparison is bit-exact:
the kernels must do the same floating-point operations, not merely close
ones. The search's line-of-sight and clearance certificates are checked for
soundness: when one holds, the work it skips would have found nothing.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from visiplan.costs import CostWeights
from visiplan.env import ESDFField, OccupancyGrid, build_esdf
from visiplan.optimizer import solve_triangular, whitening_factors
from visiplan.search import (_buried_certificate, _clearance_certificate,
                             _sight_certificate, raycast_occluded)
from visiplan.sim import ScenarioError, generate_random_forest


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
    length = math.sqrt(float(d @ d))
    if length < 1e-12:
        i, j, k = (int(math.floor(v)) for v in a)
        return 0 <= i < nx and 0 <= j < ny and 0 <= k < nz and bool(occ[i, j, k])

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
                 "crossing_border", "near_border"]


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
                [-1.0, 1.0])) * (grid.world_max() - grid.world_min()).max()
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
# ESDF queries


@st.composite
def fields(draw):
    grid = draw(grids(planar=draw(st.booleans())))
    if draw(st.booleans()):
        return build_esdf(grid, draw(st.sampled_from([0.3, 1.0, 5.0])))
    # arbitrary samples expose any reordering of the interpolation arithmetic
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ESDFField(grid, rng.random(grid.dims) * 3.0, 3.0)


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
    assert same_bits(field.gradient_at(pts), grad)
    v, g = field.distance_and_gradient(pts)
    assert same_bits(v, val) and same_bits(g, grad)

    scalar = field.distance_at(pts[0])
    assert type(scalar) is float and same_bits(scalar, val[0])
    assert same_bits(field.gradient_at(pts[0]), grad[0])
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


def forest_or_error(make, *args):
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
       resolution=st.sampled_from([0.1, 0.25, 0.3, 1.0]),
       keep_clear=st.lists(st.tuples(cell_floats(-1.0, 9.0),
                                     cell_floats(-1.0, 9.0),
                                     st.just(0.0)), max_size=3),
       clearance=cell_floats(0.0, 1.5))
@example(seed=0, area=(2.0, 2.0), count=0, radii=(0.2, 0.4), resolution=0.1,
         keep_clear=[], clearance=1.0)
@example(seed=1, area=(2.05, 1.3), count=4, radii=(1.5, 3.0),
         resolution=0.1, keep_clear=[], clearance=0.0)
@example(seed=2, area=(3.0, 3.0), count=6, radii=(0.01, 0.12),
         resolution=0.25, keep_clear=[(1.5, 1.5, 0.0)], clearance=0.3)
def test_forest_matches_reference(seed, area, count, radii, resolution,
                                  keep_clear, clearance):
    args = (seed, area, count, radii, resolution, keep_clear, clearance, 30)
    got = forest_or_error(generate_random_forest, *args)
    want = forest_or_error(reference_forest, *args)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dims == want.dims
        assert same_bits(got.occupancy, want.occupancy)


# ---------------------------------------------------------------------------
# whitening solves


@settings(max_examples=100)
@given(n=st.integers(4, 40), dt=st.floats(0.02, 0.5),
       w_s=st.floats(0.0, 1e-2), w_f=st.floats(0.0, 10.0),
       w_s_phi=st.floats(0.0, 1e-2), w_f_phi=st.floats(0.0, 10.0),
       od_max=st.floats(0.5, 6.0), seed=st.integers(0, 2 ** 32 - 1))
def test_solves_match_scipy(n, dt, w_s, w_f, w_s_phi, w_f_phi, od_max, seed):
    weights = CostWeights(w_f=w_f, w_f_phi=w_f_phi, w_s=w_s, w_s_phi=w_s_phi)
    r_q, r_phi = whitening_factors(n, dt, weights, od_max)
    nf = n - 3
    x = np.random.default_rng(seed).normal(scale=10.0, size=4 * nf)
    # the optimizer's four calls: unpacking and gradient pull-back
    for a, b, lower in [(r_q, x[:3 * nf].reshape(nf, 3), False),
                        (r_phi, x[3 * nf:], False),
                        (r_q.T, x[:3 * nf].reshape(nf, 3), True),
                        (r_phi.T, x[3 * nf:], True)]:
        assert same_bits(solve_triangular(a, b, lower=lower),
                         scipy.linalg.solve_triangular(a, b, lower=lower))


def test_singular_solve_raises_like_scipy():
    a = np.triu(np.ones((3, 3)))
    a[1, 1] = 0.0
    for lower, m in ((False, a), (True, a.T)):
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.solve_triangular(m, np.ones(3), lower=lower)
        with pytest.raises(scipy.linalg.LinAlgError):
            solve_triangular(m, np.ones(3), lower=lower)
