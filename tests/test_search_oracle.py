"""Oracle tests: `search` against the front end it replaced.

`reference_search` is the search as it was before successors moved to
Python floats and before the line-of-sight and clearance certificates, kept
verbatim (only renamed, with its own node record, without the unguided
heuristic the search no longer has, taking the occlusion check as a
keyword and reading the primitive duration, prune resolution and heuristic
and effort weights from the module constants, as `search` does). The lean
search must
return the same bits, expand the same nodes in the same order, and fail with
the same exception type, with the occlusion check on and off, from sighted
and unsighted starts, and under budgets that run out.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visiplan.costs import DynamicLimits
from visiplan.env import ESDFField, OccupancyGrid, build_esdf
from visiplan.search import (ACCEL_FRACTIONS, COLLISION_SAMPLES,
                             EFFORT_WEIGHT, GOAL_TOLERANCE, HEURISTIC_WEIGHT,
                             PRUNE_RESOLUTION, TAU, TRACKING_WEIGHT,
                             InvalidStart, SearchConfig, SearchError,
                             SearchExhausted, _bang_bang_time,
                             raycast_occluded, search)
from visiplan.spline import RobotState


@dataclass
class _Node:
    position: np.ndarray
    velocity: np.ndarray
    time: float
    cost: float
    parent: "_Node | None" = None
    accel: np.ndarray | None = None
    sighted: bool = True
    deviation: float = 0.0

    def lineage(self) -> list["_Node"]:
        chain = []
        node = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain[::-1]


def reference_search(start_state, target_at, grid: OccupancyGrid,
                     esdf: ESDFField, limits: DynamicLimits,
                     config: SearchConfig | None = None,
                     horizon: float = 3.0, *, standoff: float,
                     occlusion_check: bool = True,
                     trace: list | None = None):
    """The front end as it was before its certificates: numpy successor
    batches, every clearance query and every raycast."""
    cfg = config or SearchConfig()
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
    samp_t = np.linspace(0.0, tau, max(COLLISION_SAMPLES, 2))
    # accel part of the sampled primitive arcs, fixed per successor: (A, S, 3)
    samp_acc = 0.5 * accels[:, None, :] * (samp_t ** 2)[None, :, None]
    acc_tau = accels * tau
    acc_arc = 0.5 * accels * tau * tau
    step_cost = tau * (1.0 + EFFORT_WEIGHT
                       * (accels ** 2).sum(axis=1) / limits.a_m ** 2)
    max_time = cfg.horizon_slack * horizon + 1e-9
    v_quant = max(limits.a_m * tau, 1e-6)
    inv_prune = 1.0 / PRUNE_RESOLUTION
    inv_vq = 1.0 / v_quant
    gx, gy, gz = (float(v) for v in goal_center)
    v_m2 = limits.v_m ** 2
    hw = HEURISTIC_WEIGHT

    def key_of(p, v, t, sighted):
        return (int(round(p[0] * inv_prune)), int(round(p[1] * inv_prune)),
                int(round(p[2] * inv_prune)), int(round(v[0] * inv_vq)),
                int(round(v[1] * inv_vq)), int(round(v[2] * inv_vq)),
                int(round(t / tau)), sighted)

    def in_goal(p, t) -> bool:
        if t < horizon - 1e-9:
            return False
        gap = math.sqrt((p[0] - gx) ** 2 + (p[1] - gy) ** 2 + (p[2] - gz) ** 2)
        return abs(gap - standoff) <= GOAL_TOLERANCE

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

    sighted0 = not occlusion_check or \
        not raycast_occluded(grid, p0, c0)
    root = _Node(p0, v0, 0.0, 0.0, sighted=sighted0)
    counter = itertools.count()
    root_key = key_of(p0, v0, 0.0, sighted0)
    # accumulated deviation from the follow point breaks ties among
    # equal-cost frontier nodes, so equal-arrival plans pace the target
    # instead of dashing ahead and waiting
    open_heap = [(heuristic(p0, v0, 0.0), 0.0, root_key, next(counter), root)]
    best_g: dict = {root_key: 0.0}
    closed: set = set()
    expansions = 0

    while open_heap:
        _, _, key, _, node = heapq.heappop(open_heap)
        if key in closed:
            continue
        closed.add(key)

        if node.sighted and in_goal(node.position, node.time):
            chain = node.lineage()
            pts = np.stack([n.position for n in chain])
            times = np.array([n.time for n in chain])
            return pts, times

        expansions += 1
        if expansions > cfg.max_expansions:
            break
        if trace is not None:
            trace.append((node.time, *node.position, *node.velocity, node.cost))
        if node.time + tau > max_time:
            continue

        t_next = node.time + tau
        layer = int(round(t_next / tau))
        c_next = np.asarray(target_at(t_next), dtype=np.float64)
        ref_next = c_next + standoff * u0

        # all successors at once
        v_batch = node.velocity[None, :] + acc_tau                  # (A, 3)
        ok = ((v_batch * v_batch).sum(axis=1) <= v_m2).tolist()
        p_batch = node.position[None, :] + node.velocity * tau \
            + acc_arc                                               # (A, 3)
        deviation = tau * np.sqrt(((p_batch - ref_next) ** 2).sum(axis=1))
        g_batch = (node.cost + step_cost
                   + TRACKING_WEIGHT * deviation).tolist()
        key_rows = np.rint(np.concatenate(
            [p_batch * inv_prune, v_batch * inv_vq], axis=1)
            ).astype(np.int64).tolist()

        # cheap pruning before geometry: drop closed/worse states
        if node.sighted:
            for i, row in enumerate(key_rows):
                if not ok[i]:
                    continue
                k_sighted = (*row, layer, True)
                prev = best_g.get(k_sighted)
                if k_sighted in closed or (prev is not None
                                           and prev <= g_batch[i]):
                    ok[i] = False
        live = [i for i, keep in enumerate(ok) if keep]
        if not live:
            continue

        # clearance along every surviving primitive arc in one field query
        segs = node.position[None, None, :] \
            + np.outer(samp_t, node.velocity)[None, :, :] + samp_acc[live]
        dist = esdf.distance_at(segs.reshape(-1, 3))
        dist = dist.reshape(len(live), -1).min(axis=1).tolist()

        # scalar work per successor runs on Python floats
        p_rows, v_rows = p_batch.tolist(), v_batch.tolist()
        dev_rows = deviation.tolist()
        c_row = c_next.tolist()
        for idx, i in enumerate(live):
            if dist[idx] <= clearance:
                continue
            g_new = g_batch[i]
            if occlusion_check:
                occluded = raycast_occluded(grid, p_rows[i], c_row)
                if node.sighted and occluded:
                    continue
                sighted = node.sighted or not occluded
            else:
                sighted = True
            nkey = (*key_rows[i], layer, sighted)
            if nkey in closed:
                continue
            prev = best_g.get(nkey)
            if prev is not None and prev <= g_new:
                continue
            best_g[nkey] = g_new
            dev_new = node.deviation + dev_rows[i]
            child = _Node(p_batch[i], v_batch[i], t_next, g_new, node,
                          accels[i], sighted, dev_new)
            f = g_new + heuristic(p_rows[i], v_rows[i], t_next)
            heapq.heappush(open_heap, (f, dev_new, nkey, next(counter), child))

    raise SearchExhausted(
        f"no occlusion-free path after {expansions} expansions")


# ---------------------------------------------------------------------------
# scenes

LIMITS = DynamicLimits(v_m=3.0, a_m=5.0, v_phi_m=3.0, a_phi_m=6.0,
                       d_thr=0.4, psi_thr=0.6)
SIGHT = ["sighted", "unsighted", "buried"]


def _segment_distance(centers, a, b):
    """Distance from each of the (..., 3) points to the segment a-b."""
    d = b - a
    u = np.clip(((centers - a) @ d) / max(float(d @ d), 1e-12), 0.0, 1.0)
    return np.linalg.norm(centers - (a + u[..., None] * d), axis=-1)


@st.composite
def scenes(draw, planar: bool, sight: str):
    """(grid, esdf, start, target_at, cfg, horizon, standoff): a random
    forest (planar) or field of balls (3D) with the start's line of sight
    to the target cleared ("sighted"), blocked ("unsighted"), or cleared
    with the target's path running into an obstacle ("buried")."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    res = draw(st.sampled_from([0.1, 0.2]) if planar else st.just(0.25))
    extent = draw(st.sampled_from([6.0, 9.0]))
    n = int(round(extent / res))
    dims = (n, n, 1 if planar else draw(st.integers(4, 8)))
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0),
                                            (-1.3, 0.7, -0.2)])))
    grid = OccupancyGrid.empty(res, dims, origin)
    centers = origin + (np.indices(dims).transpose(1, 2, 3, 0) + 0.5) * res
    hi = origin + np.asarray(dims) * res

    for _ in range(draw(st.integers(0, 12))):
        c = rng.uniform(origin, hi)
        r = rng.uniform(0.2, 0.6)
        gap = centers - c
        if planar:
            gap[..., 2] = 0.0
        grid.occupancy |= np.linalg.norm(gap, axis=-1) <= r

    lo_z, hi_z = (origin[2], hi[2]) if planar \
        else (origin[2] + 0.5, hi[2] - 0.5)
    start_p = np.array([*rng.uniform(origin[:2] + 1.0, hi[:2] - 1.0),
                        rng.uniform(lo_z, hi_z)])
    while True:     # a target 2-4 m away, inside the map
        ang = rng.uniform(0.0, 2.0 * math.pi)
        target0 = start_p + rng.uniform(2.0, 4.0) * np.array(
            [math.cos(ang), math.sin(ang), 0.0])
        target0[2] = rng.uniform(lo_z, hi_z)
        if np.all(target0 > origin) and np.all(target0 < hi):
            break
    drift = rng.uniform(-1.5, 1.5, 3) if draw(st.booleans()) \
        else np.zeros(3)
    if planar:
        drift[2] = 0.0

    # clear or block the start's line of sight, then free the start
    near_sight = _segment_distance(centers, start_p, target0) < 2.5 * res
    if sight == "unsighted":
        block = 0.5 * (start_p + target0)
    else:
        grid.occupancy[near_sight] = False
        block = target0 + drift * draw(st.sampled_from([0.0, 0.6, 1.2])) \
            if sight == "buried" else None
    if block is not None:
        grid.occupancy[np.linalg.norm(centers - block, axis=-1) < 0.3] = True
        if grid.in_bounds(grid.cell_of(block)):
            grid.occupancy[grid.cell_of(block)] = True
    grid.occupancy[np.linalg.norm(centers - start_p, axis=-1) < 0.5] = False
    if sight != "buried":
        assert raycast_occluded(grid, start_p, target0) \
            == (sight == "unsighted")

    def target_at(t):
        return target0 + drift * t

    speed = rng.uniform(0.0, 2.0)
    start_v = speed * np.array([math.cos(ang + 1.0), math.sin(ang + 1.0),
                                0.0 if planar else 0.3])
    start = RobotState(start_p, start_v, np.zeros(3), 0.0)
    cfg = SearchConfig(max_expansions=draw(st.sampled_from([15, 80, 400])))
    return (grid, build_esdf(grid, draw(st.sampled_from([1.0, 5.0]))),
            start, target_at, cfg, draw(st.sampled_from([1.0, 2.0, 3.0])),
            draw(st.sampled_from([1.5, 2.5])))


def outcome(fn, scene, occlusion_check: bool, rows: list | None):
    grid, esdf, start, target_at, cfg, horizon, standoff = scene
    try:
        return fn(start, target_at, grid, esdf, LIMITS, cfg, horizon=horizon,
                  standoff=standoff, occlusion_check=occlusion_check,
                  trace=rows)
    except SearchError as e:
        return type(e)


def assert_same_outcome(scene, occlusion_check: bool):
    new_rows, ref_rows = [], []
    ref = outcome(reference_search, scene, occlusion_check, ref_rows)
    # traced, and untraced as every benchmark mission searches
    for new in (outcome(search, scene, occlusion_check, new_rows),
                outcome(search, scene, occlusion_check, None)):
        if isinstance(ref, type):
            assert new is ref
        else:
            assert not isinstance(new, type), new
            for x, y in zip(new, ref):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
    # the same nodes expanded in the same order
    new_rows = np.array(new_rows, dtype=np.float64)
    ref_rows = np.array(ref_rows, dtype=np.float64)
    assert new_rows.shape == ref_rows.shape
    assert new_rows.tobytes() == ref_rows.tobytes()
    return ref


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("occlusion_check", [True, False],
                         ids=["occlusion", "blind"])
@pytest.mark.parametrize("sight", SIGHT)
@settings(max_examples=30)
@given(data=st.data())
def test_planar_search_matches_reference(sight, occlusion_check, data):
    assert_same_outcome(data.draw(scenes(True, sight)), occlusion_check)


@settings(max_examples=10)
@given(data=st.data())
def test_3d_search_matches_reference(data):
    scene = data.draw(scenes(False, data.draw(st.sampled_from(SIGHT))))
    assert_same_outcome(scene, data.draw(st.booleans()))


def test_found_and_exhausted_match_reference():
    """One open map, with a budget that finds the goal and one that runs
    out."""
    kinds = set()
    grid = OccupancyGrid.empty(0.2, (40, 40, 1))
    esdf = build_esdf(grid, 5.0)
    start = RobotState.at_rest([2.0, 4.0, 0.1], 0.0)
    for budget in (15, 4000):
        cfg = SearchConfig(max_expansions=budget, horizon_slack=1.5)
        scene = (grid, esdf, start, lambda t: np.array([5.0, 4.0, 0.1]),
                 cfg, 2.0, 2.0)
        kinds.add(assert_same_outcome(scene, True) is SearchExhausted)
    assert kinds == {True, False}
