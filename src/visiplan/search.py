"""Kinodynamic occlusion-avoid front-end.

Hybrid-state A* over constant-acceleration motion primitives. A successor is
kept only if the primitive stays clear of obstacles, respects the velocity
bound, and the straight line from the node to the predicted target position
at the node's time is unobstructed (exact voxel traversal, endpoint check
per primitive). The goal is an annulus at standoff distance around the
predicted target position at the search horizon.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .costs import DynamicLimits
from .env import ESDFField, OccupancyGrid, require, require_valid_fields


class SearchError(RuntimeError):
    pass


class SearchExhausted(SearchError):
    """No feasible path within the expansion budget."""


class InvalidStart(SearchError):
    """Start state in collision."""


ACCEL_FRACTIONS = (-1.0, 0.0, 1.0)     # of a_m per axis
TAU = 0.25                             # primitive duration
PRUNE_RESOLUTION = 0.3                 # position hashing
HEURISTIC_WEIGHT = 2.5
# extra cost per primitive at full acceleration, as a fraction of TAU;
# keeps equal-duration paths ordered by control effort
EFFORT_WEIGHT = 0.25
COLLISION_SAMPLES = 5                  # clearance samples per primitive
GOAL_TOLERANCE = 0.5                   # radial slack of the goal annulus
# cost per second per meter of gap to the follow point (the predicted target
# offset by the standoff along the initial bearing). Keeps progress paced
# over the whole plan: without it, receding-horizon execution always rides a
# coast-now-brake-later prefix and creeps toward the target. Small enough
# not to distort the search ordering.
TRACKING_WEIGHT = 0.05
# floats per search node: position (3), velocity (3), time, cost, accumulated
# deviation, parent row (-1 for the root), sighted (1.0 or 0.0)
NODE_ROW = 11
# the best cost of an expanded key, below every cost: one `best <= g` test
# prunes a path to a closed key and a worse path to an open one
_CLOSED = -math.inf


@dataclass
class SearchConfig:
    max_expansions: int = 3500
    horizon_slack: float = 1.5           # allow paths up to slack * horizon

    def __post_init__(self):
        require_valid_fields(self)
        # the goal lies at the horizon, so a path must be allowed to reach it
        require(self.horizon_slack >= 1, "horizon_slack", "be at least 1",
                self.horizon_slack)


def raycast_occluded(grid: OccupancyGrid, a, b) -> bool:
    """True iff the segment a->b passes through any occupied cell.

    Amanatides & Woo traversal over the cells the segment actually crosses;
    no sampling gaps. Out-of-grid stretches are treated as free space.
    Runs on Python floats over a flat view of the occupancy: a ray crosses
    a few dozen cells, where per-call numpy overhead would dominate.
    """
    res = grid.resolution
    ox, oy, oz = grid.origin.tolist()
    ax, ay, az = ((float(a[0]) - ox) / res, (float(a[1]) - oy) / res,
                  (float(a[2]) - oz) / res)
    bx, by, bz = ((float(b[0]) - ox) / res, (float(b[1]) - oy) / res,
                  (float(b[2]) - oz) / res)
    nx, ny, nz = grid.dims
    # the traversal stays in the box of its end cells grown by one cell, and
    # cells outside the grid are free: a segment whose box misses the grid
    # grown by two cells (one to spare) crosses no occupied cell
    if (max(ax, bx) < -2.0 or min(ax, bx) > nx + 2.0
            or max(ay, by) < -2.0 or min(ay, by) > ny + 2.0
            or max(az, bz) < -2.0 or min(az, bz) > nz + 2.0):
        return False
    occ = memoryview(grid.occupancy.reshape(-1))
    i, j, k = math.floor(ax), math.floor(ay), math.floor(az)

    dx, dy, dz = bx - ax, by - ay, bz - az
    # per axis: cell step, ray parameter of the next cell face, face spacing
    sx, tx, dtx = _dda_axis(i, ax, dx)
    sy, ty, dty = _dda_axis(j, ay, dy)
    sz, tz, dtz = _dda_axis(k, az, dz)

    # ties go to the lowest axis: x, then y, then z
    while True:
        if (0 <= i < nx and 0 <= j < ny and 0 <= k < nz
                and occ[(i * ny + j) * nz + k]):
            return True
        if ty < tx:
            if tz < ty:
                if tz > 1.0:
                    return False
                k += sz
                tz += dtz
            else:
                if ty > 1.0:
                    return False
                j += sy
                ty += dty
        elif tz < tx:
            if tz > 1.0:
                return False
            k += sz
            tz += dtz
        else:
            if tx > 1.0:
                return False
            i += sx
            tx += dtx


def _dda_axis(cell: int, start: float, delta: float):
    """(step, first face parameter, face spacing) along one axis; an axis
    the segment does not advance along never steps."""
    if delta > 1e-15:
        return 1, (cell + 1.0 - start) / delta, 1.0 / delta
    if delta < -1e-15:
        return -1, (cell - start) / delta, -1.0 / delta
    return 0, math.inf, math.inf


def _bang_bang_time(dist: float, v: float, v_max: float, a_max: float) -> float:
    """Lower bound on the time for a double integrator to cover `dist`
    starting at speed component v toward the goal."""
    if dist <= 0.0:
        return 0.0
    v = min(v, v_max)
    # accelerate to v_max, then cruise (braking ignored: lower bound)
    t_acc = (v_max - v) / a_max
    d_acc = v * t_acc + 0.5 * a_max * t_acc * t_acc
    if d_acc >= dist:
        return (-v + math.sqrt(v * v + 2.0 * a_max * dist)) / a_max
    return t_acc + (dist - d_acc) / v_max


def _sight_certificate(grid: OccupancyGrid):
    """`clear(a, b_cell)` is True only if `raycast_occluded(grid, a, b)` is
    False for every b in the cell `grid.cell_of` gives as b_cell.

    The traversal never leaves the box of its end cells grown by one cell
    (it may cross the face of b's cell that b lies on), so a box that holds
    no occupied cell proves the ray clear; the grid's summed-volume table
    counts the occupied cells of any box in eight lookups.
    """
    res = grid.resolution
    ox, oy, oz = grid.origin.tolist()
    nx, ny, nz = grid.dims
    total = memoryview(grid.occupied_counts().reshape(-1))
    sx, sy = (ny + 1) * (nz + 1), nz + 1

    def clear(a, b_cell) -> bool:
        bi, bj, bk = b_cell
        i = math.floor((a[0] - ox) / res)
        j = math.floor((a[1] - oy) / res)
        k = math.floor((a[2] - oz) / res)
        # a's cell as the traversal computes it; the half-open box [lo, hi)
        # of both end cells grown by one, clipped to the grid
        i0, i1 = (i, bi + 2) if i < bi else (bi, i + 2)
        j0, j1 = (j, bj + 2) if j < bj else (bj, j + 2)
        k0, k1 = (k, bk + 2) if k < bk else (bk, k + 2)
        i0 = i0 - 1 if i0 > 0 else 0
        j0 = j0 - 1 if j0 > 0 else 0
        k0 = k0 - 1 if k0 > 0 else 0
        if i1 > nx:
            i1 = nx
        if j1 > ny:
            j1 = ny
        if k1 > nz:
            k1 = nz
        if i0 >= i1 or j0 >= j1 or k0 >= k1:
            return True         # the box lies outside the grid
        x0, x1, y0, y1 = i0 * sx, i1 * sx, j0 * sy, j1 * sy
        return (total[x1 + y1 + k1] - total[x0 + y1 + k1]
                - total[x1 + y0 + k1] + total[x0 + y0 + k1]
                - total[x1 + y1 + k0] + total[x0 + y1 + k0]
                + total[x1 + y0 + k0] - total[x0 + y0 + k0]) == 0

    return clear


def _buried_certificate(grid: OccupancyGrid, b):
    """`hit(a)` is True only if `raycast_occluded(grid, a, b)` is True;
    None when b does not lie in an occupied cell of the grid.

    The traversal ends in b's cell unless it stops earlier on an occupied
    cell. Along an axis where b lies more than 1e-5 cells inside its cell,
    the rounding of the face parameters (far below 1e-5 cells for rays
    shorter than about 1e5 cells) cannot end it elsewhere. Along any other
    axis the ray must not step at all and start in b's cell. A predicted
    target inside an obstacle hides it from every node at that depth.
    """
    res = grid.resolution
    cell, loose = [], []
    for axis, (o, n) in enumerate(zip(grid.origin.tolist(), grid.dims)):
        u = (float(b[axis]) - o) / res
        if not 0 <= u < n:
            return None
        c = math.floor(u)
        cell.append(c)
        if not 1e-5 <= u - c <= 1.0 - 1e-5:
            loose.append((axis, o, u, c))
    if not grid.occupancy[tuple(cell)]:
        return None

    def hit(a) -> bool:
        for axis, o, u, c in loose:
            ua = (a[axis] - o) / res
            # as `_dda_axis` decides whether the traversal steps this axis
            if not (-1e-15 <= u - ua <= 1e-15 and math.floor(ua) == c):
                return False
        return True

    return hit


def _clearance_certificate(esdf: ESDFField, clearance: float,
                           reach_arc: float):
    """`clear(p, reach)` is True only if `esdf.distance_at` exceeds
    `clearance` at every point within `reach + reach_arc` of world point p.

    The lattice values of a distance field, min(res * |q - occupied|,
    d_trunc), are 1-Lipschitz. A query interpolates (a convex combination)
    the lattice nodes of its cell, each within sqrt(3) cells of the query
    clamped onto the lattice box; clamping does not stretch distances, and
    p's nearest clamped lattice node q0 is within sqrt(3)/2 cells of p's
    clamped position. So every corner a query within r = reach + reach_arc
    of p reads lies within r + 1.5 * sqrt(3) * res of q0 and holds at least
    D(q0) minus that; 1e-6 covers rounding.
    """
    g = esdf.grid
    res = g.resolution
    ox, oy, oz = g.origin.tolist()
    nx, ny, nz = g.dims
    hx, hy, hz = nx - 1, ny - 1, nz - 1
    dist = memoryview(esdf.distance.reshape(-1))
    floor_ = clearance + reach_arc + 1.5 * math.sqrt(3.0) * res + 1e-6

    def clear(p, reach: float) -> bool:
        i = round(min(max((p[0] - ox) / res - 0.5, 0.0), hx))
        j = round(min(max((p[1] - oy) / res - 0.5, 0.0), hy))
        k = round(min(max((p[2] - oz) / res - 0.5, 0.0), hz))
        return dist[(i * ny + j) * nz + k] - reach > floor_

    return clear


def search(start_state, target_at, grid: OccupancyGrid, esdf: ESDFField,
           limits: DynamicLimits, config: SearchConfig, horizon: float, *,
           standoff: float, occlusion_check: bool = True,
           trace: list | None = None):
    """Plan a feasible, occlusion-free primitive path toward the target.

    start_state carries .p and .v; target_at(t) gives the predicted target
    position at absolute path time t (seconds from the start state). Returns
    (points, times): timestamped waypoints including the start at t=0. The
    goal is reached by arriving inside the standoff annulus around the
    predicted target position no earlier than the horizon, so returned paths
    pace the target instead of racing ahead of it.

    A successor that would lose an already-acquired line of sight to the
    target is rejected. When the start itself has no line of sight, a blind
    prefix is tolerated until sight is first acquired; the goal always
    requires sight. `occlusion_check=False` (the visibility-blind baseline)
    drops every sight rule.

    `esdf` must be a distance field such as `build_esdf` makes: clearance
    queries the field can be proven to pass are skipped, and the proof
    relies on its lattice values being 1-Lipschitz. Likewise a ray whose
    bounding box holds no occupied cell is not cast, nor one that ends
    inside an occupied cell. None of these shortcuts changes any output.

    A `trace` list receives one row (t, x, y, z, vx, vy, vz, cost) per
    expansion, in expansion order; with None no rows are built.
    """
    clearance = limits.d_thr / 2.0
    planar = grid.dims[2] == 1

    p0 = np.asarray(start_state.p, dtype=np.float64)
    v0 = np.asarray(start_state.v, dtype=np.float64)
    if planar:
        v0 = v0 * np.array([1.0, 1.0, 0.0])
    if esdf.distance_at(p0) <= clearance:
        raise InvalidStart(f"start position {p0.tolist()} is in collision")

    goal_center = np.asarray(target_at(horizon), dtype=np.float64)

    if planar:
        accels = np.array([[ax, ay, 0.0] for ax in ACCEL_FRACTIONS
                           for ay in ACCEL_FRACTIONS])
    else:
        accels = np.array([[ax, ay, az] for ax in ACCEL_FRACTIONS
                           for ay in ACCEL_FRACTIONS
                           for az in ACCEL_FRACTIONS])
    accels = accels * limits.a_m
    # per-axis primitives reach sqrt(axes) * a_m along a diagonal; the
    # heuristic must assume that capability to stay a lower bound
    a_cap = limits.a_m * math.sqrt(2.0 if planar else 3.0)

    tau = TAU
    samp_t = np.linspace(0.0, tau, COLLISION_SAMPLES)
    # accel part of the sampled primitive arcs, fixed per successor: (A, S, 3)
    samp_acc = 0.5 * accels[:, None, :] * (samp_t ** 2)[None, :, None]
    step_cost = tau * (1.0 + EFFORT_WEIGHT
                       * (accels ** 2).sum(axis=1) / limits.a_m ** 2)
    # successors run on Python floats, each value computed with the same
    # operations in the same order as the former numpy batch
    prims = list(enumerate(zip((accels * tau).tolist(),
                               (0.5 * accels * tau * tau).tolist(),
                               step_cost.tolist())))
    max_time = config.horizon_slack * horizon + 1e-9
    v_quant = max(limits.a_m * tau, 1e-6)
    inv_prune = 1.0 / PRUNE_RESOLUTION
    inv_vq = 1.0 / v_quant
    gx, gy, gz = (float(v) for v in goal_center)
    v_m2 = limits.v_m ** 2
    hw = HEURISTIC_WEIGHT

    # a primitive's samples stay within |v| * tau + a_max * tau^2 / 2 of
    # its node
    clear_within = _clearance_certificate(
        esdf, clearance,
        0.5 * tau * tau * float(np.sqrt((accels ** 2).sum(axis=1)).max()))
    if occlusion_check:
        sight_clear = _sight_certificate(grid)

    def in_goal(p, t) -> bool:
        if t < horizon - 1e-9:
            return False
        gap = math.sqrt((p[0] - gx) ** 2 + (p[1] - gy) ** 2 + (p[2] - gz) ** 2)
        return abs(gap - standoff) <= GOAL_TOLERANCE

    # steer toward the follow-behind point of the goal annulus (the annulus
    # point on the start-to-target line). Faster and yields natural chase
    # geometry, but foregoes the admissible lower bound.
    # px, py, pz below are read by the heuristic's closure: never rebind them
    away = p0 - goal_center
    gap0 = np.linalg.norm(away)
    away = away / gap0 if gap0 > 1e-9 else np.array([1.0, 0.0, 0.0])
    px, py, pz = (float(v) for v in goal_center + standoff * away)

    def heuristic(p, v, t) -> float:
        rx, ry, rz = px - p[0], py - p[1], pz - p[2]
        dist = math.sqrt(rx * rx + ry * ry + rz * rz) - GOAL_TOLERANCE
        if dist <= 0.0:
            return max(horizon - t, 0.0)
        toward = max((v[0] * rx + v[1] * ry + v[2] * rz)
                     / (dist + GOAL_TOLERANCE), 0.0)
        return max(hw * _bang_bang_time(dist, toward, limits.v_m, a_cap),
                   horizon - t)

    c0 = np.asarray(target_at(0.0), dtype=np.float64)
    u0 = p0 - c0
    n0 = np.linalg.norm(u0)
    u0 = u0 / n0 if n0 > 1e-9 else np.array([1.0, 0.0, 0.0])

    sighted0 = not occlusion_check or not raycast_occluded(grid, p0, c0)
    root_p, root_v = tuple(p0.tolist()), tuple(v0.tolist())
    # node k is row k of `nodes`, pushed k-th; the row number ends each heap
    # entry, so pops never compare further
    nodes = array("d", (*root_p, *root_v, 0.0, 0.0, 0.0, -1.0, sighted0))
    root_key = (*(round(x * inv_prune) for x in root_p),
                *(round(x * inv_vq) for x in root_v), 0, sighted0)
    # accumulated deviation from the follow point breaks ties among
    # equal-cost frontier nodes, so equal-arrival plans pace the target
    # instead of dashing ahead and waiting
    open_heap = [(heuristic(root_p, root_v, 0.0), 0.0, root_key, 0)]
    best_g: dict = {root_key: 0.0}
    expansions = 0
    # all nodes of one depth share one float time, hence one target sample:
    # t_next -> (layer, follow point, target position, target cell, hit);
    # no target cell where its cell coordinates are not finite
    depths: dict = {}

    while open_heap:
        _, _, key, node = heapq.heappop(open_heap)
        if best_g[key] == _CLOSED:
            continue
        best_g[key] = _CLOSED
        b = node * NODE_ROW
        x, y, z, vx, vy, vz, t, cost, deviation, _, sighted = \
            nodes[b:b + NODE_ROW]
        sighted = sighted != 0.0
        pos = (x, y, z)

        if sighted and in_goal(pos, t):
            pts, times = [], []
            while node >= 0:
                b = node * NODE_ROW
                pts.append(nodes[b:b + 3])
                times.append(nodes[b + 6])
                node = int(nodes[b + 9])
            return np.array(pts[::-1]), np.array(times[::-1])

        expansions += 1
        if expansions > config.max_expansions:
            break
        if trace is not None:
            trace.append((t, x, y, z, vx, vy, vz, cost))
        if t + tau > max_time:
            continue

        t_next = t + tau
        depth = depths.get(t_next)
        if depth is None:
            c_next = np.asarray(target_at(t_next), dtype=np.float64)
            c_row = c_next.tolist()
            finite = np.isfinite((c_next - grid.origin) / grid.resolution)
            depth = depths[t_next] = (
                int(round(t_next / tau)), (c_next + standoff * u0).tolist(),
                c_row, grid.cell_of(c_row) if finite.all() else None,
                _buried_certificate(grid, c_row) if occlusion_check else None)
        layer, (fx, fy, fz), c_row, c_cell, hit = depth
        # a sighted node loses every successor whose ray is surely occluded,
        # whatever else would reject it
        hit_rejects = hit is not None and sighted

        # successors, with the velocity bound and (for a sighted node, whose
        # children stay sighted) the best-cost prune before any geometry
        mx, my, mz = x + vx * tau, y + vy * tau, z + vz * tau
        live = []
        for i, ((tx, ty, tz), (sx, sy, sz), step) in prims:
            nvx, nvy, nvz = vx + tx, vy + ty, vz + tz
            if not nvx * nvx + nvy * nvy + nvz * nvz <= v_m2:
                continue
            nx_, ny_, nz_ = mx + sx, my + sy, mz + sz
            if hit_rejects and hit((nx_, ny_, nz_)):
                continue
            dx, dy, dz = nx_ - fx, ny_ - fy, nz_ - fz
            dev = tau * math.sqrt(dx * dx + dy * dy + dz * dz)
            g_new = cost + step + TRACKING_WEIGHT * dev
            row = (round(nx_ * inv_prune), round(ny_ * inv_prune),
                   round(nz_ * inv_prune), round(nvx * inv_vq),
                   round(nvy * inv_vq), round(nvz * inv_vq), layer)
            if sighted:
                prev = best_g.get((*row, True))
                if prev is not None and prev <= g_new:
                    continue
            live.append((i, (nx_, ny_, nz_), (nvx, nvy, nvz), dev, g_new,
                         row))
        if not live:
            continue

        # clearance along every surviving primitive arc in one field query,
        # unless the node is provably far enough from every obstacle
        if clear_within(pos, math.sqrt(vx * vx + vy * vy + vz * vz) * tau):
            dist = None
        else:
            segs = np.array(pos) \
                + np.outer(samp_t, (vx, vy, vz))[None, :, :] \
                + samp_acc[[s[0] for s in live]]
            dist = esdf.distance_at(segs.reshape(-1, 3))
            dist = dist.reshape(len(live), -1).min(axis=1).tolist()

        for idx, (i, p, v, dev, g_new, row) in enumerate(live):
            if dist is not None and dist[idx] <= clearance:
                continue
            if occlusion_check:
                occluded = (hit is not None and hit(p)) or (
                    (c_cell is None or not sight_clear(p, c_cell))
                    and raycast_occluded(grid, p, c_row))
                if sighted and occluded:
                    continue
                nsighted = sighted or not occluded
            else:
                nsighted = True
            nkey = (*row, nsighted)
            prev = best_g.get(nkey)
            if prev is not None and prev <= g_new:
                continue
            best_g[nkey] = g_new
            dev_new = deviation + dev
            f = g_new + heuristic(p, v, t_next)
            heapq.heappush(open_heap,
                           (f, dev_new, nkey, len(nodes) // NODE_ROW))
            nodes.extend((*p, *v, t_next, g_new, dev_new, node, nsighted))

    raise SearchExhausted(
        f"no occlusion-free path after {expansions} expansions")
