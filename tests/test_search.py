import sys

import numpy as np
import pytest

from visiplan.costs import DynamicLimits
from visiplan.env import OccupancyGrid, build_esdf
from visiplan.search import (InvalidStart, SearchConfig, SearchExhausted,
                             raycast_occluded, search)
from visiplan.spline import RobotState

LIMITS = DynamicLimits(v_m=2.0, a_m=3.0, v_phi_m=2.0, a_phi_m=4.0,
                       d_thr=0.4, psi_thr=0.6)


def dense_sampling_occluded(grid, a, b, step_frac=0.1):
    """Oracle: sample the segment at resolution/10 steps and look up cells."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    length = np.linalg.norm(b - a)
    n = max(int(length / (grid.resolution * step_frac)), 1)
    for u in np.linspace(0.0, 1.0, n + 1):
        cell = grid.cell_of(a + u * (b - a))
        if grid.is_occupied(cell):
            return True
    return False


def wall_map(gap_lo=4, gap_hi=7):
    """10x10 m map with a vertical wall at x=5 pierced by one gap."""
    grid = OccupancyGrid.empty(0.25, (40, 40, 1))
    wall_i = 20
    for j in range(40):
        if not gap_lo <= j * 0.25 <= gap_hi:
            grid.occupancy[wall_i, j, 0] = True
    return grid


class TestRaycast:
    def test_point_in_free_space(self):
        grid = OccupancyGrid.empty(0.5, (10, 10, 1))
        assert not raycast_occluded(grid, [2.2, 2.2, 0.2], [2.2, 2.2, 0.2])

    def test_through_occupied_center(self):
        grid = OccupancyGrid.empty(0.5, (10, 10, 1))
        grid.occupancy[4, 4, 0] = True
        center = grid.origin + (np.array([4, 4, 0]) + 0.5) * grid.resolution
        a = center - [1.3, 0.9, 0.0]
        b = center + [1.3, 0.9, 0.0]
        assert raycast_occluded(grid, a, b)

    def test_point_in_occupied_cell(self):
        grid = OccupancyGrid.empty(0.5, (10, 10, 1))
        grid.occupancy[4, 4, 0] = True
        c = grid.origin + (np.array([4, 4, 0]) + 0.5) * grid.resolution
        assert raycast_occluded(grid, c, c)

    def test_tiny_segment_across_a_face(self):
        # shorter than 1e-12 cells, but it crosses the face of an occupied
        # cell: occluded whichever end it starts from
        grid = OccupancyGrid.empty(1.0, (4, 4, 1))
        grid.occupancy[2, 1, 0] = True
        a, b = [2.0 - 2e-13, 1.5, 0.5], [2.0 + 2e-13, 1.5, 0.5]
        assert raycast_occluded(grid, a, b)
        assert raycast_occluded(grid, b, a)

    def test_misses_beside_obstacle(self):
        grid = OccupancyGrid.empty(0.5, (10, 10, 1))
        grid.occupancy[4, 4, 0] = True
        assert not raycast_occluded(grid, [0.1, 0.1, 0.2], [0.4, 4.9, 0.2])

    def test_agrees_with_dense_sampling(self):
        rng = np.random.default_rng(0)
        grid = OccupancyGrid.empty(0.2, (25, 25, 4))
        grid.occupancy[:] = rng.random((25, 25, 4)) < 0.08
        lo = grid.origin
        hi = grid.origin + np.multiply(grid.dims, grid.resolution)
        mism_soft = 0
        for _ in range(1000):
            a = rng.uniform(lo - 0.5, hi + 0.5)
            b = rng.uniform(lo - 0.5, hi + 0.5)
            exact = raycast_occluded(grid, a, b)
            sampled = dense_sampling_occluded(grid, a, b)
            # the traversal must never miss a hit the sampler finds
            assert not (sampled and not exact)
            if exact and not sampled:
                mism_soft += 1    # grazing cells the sampler stepped over
        assert mism_soft < 50

    def test_outside_grid_is_free(self):
        grid = OccupancyGrid.empty(0.5, (4, 4, 1))
        grid.occupancy[:] = True
        assert not raycast_occluded(grid, [-5.0, -5.0, 0.2], [-1.0, -5.0, 0.2])


class TestSearch:
    def test_empty_map_static_target(self):
        grid = OccupancyGrid.empty(0.25, (48, 48, 1))
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([2.0, 6.0, 0.125], 0.0)
        target = np.array([8.0, 6.0, 0.125])
        pts, times = search(start, lambda t: target, grid, esdf, LIMITS,
                            SearchConfig(), horizon=3.0, standoff=3.0)
        assert abs(np.linalg.norm(pts[-1] - target) - 3.0) <= 0.5
        assert times[-1] >= 3.0 - 1e-9          # paces out the horizon
        for p, t in zip(pts, times):
            assert not raycast_occluded(grid, p, target)
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)

    def test_start_in_goal_annulus(self):
        # already at standoff from a static target: the cheapest path is to
        # hold position until the horizon
        grid = OccupancyGrid.empty(0.25, (48, 48, 1))
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([2.0, 6.0, 0.125], 0.0)
        target = np.array([5.0, 6.0, 0.125])    # exactly 3.0 away
        pts, times = search(start, lambda t: target, grid, esdf, LIMITS,
                            SearchConfig(), horizon=3.0, standoff=3.0)
        assert times[-1] >= 3.0 - 1e-9
        assert np.linalg.norm(pts[-1] - start.p) <= 0.5

    def test_wall_gap_routing(self):
        # start behind the wall with no line of sight: a blind prefix is
        # allowed, sight must be acquired through the gap and then kept
        grid = wall_map(gap_lo=4.0, gap_hi=6.0)
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([2.0, 2.0, 0.125], 0.0)
        target = np.array([8.0, 2.0, 0.125])
        cfg = SearchConfig(max_expansions=60000, horizon_slack=4.0)
        pts, times = search(start, lambda t: target, grid, esdf, LIMITS,
                            cfg, horizon=3.0, standoff=2.5)
        # the only unoccluded region at standoff is reached via the gap side
        assert pts[:, 1].max() > 3.5
        assert not raycast_occluded(grid, pts[-1], target)
        seen = False
        for p in pts:
            assert esdf.distance_at(p) > LIMITS.d_thr / 2
            visible = not raycast_occluded(grid, p, target)
            assert visible or not seen      # sight never lost once acquired
            seen = seen or visible

    def test_invalid_start(self):
        grid = OccupancyGrid.empty(0.25, (20, 20, 1))
        grid.occupancy[8, 8, 0] = True
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest(
            grid.origin + (np.array([8, 8, 0]) + 0.5) * grid.resolution, 0.0)
        with pytest.raises(InvalidStart):
            search(start, lambda t: np.array([4.0, 4.0, 0.125]), grid, esdf,
                   LIMITS, SearchConfig(), horizon=2.0, standoff=2.0)

    def test_exhausted_raises(self):
        # target annulus unreachable: fully walled-in start
        grid = OccupancyGrid.empty(0.25, (40, 40, 1))
        grid.occupancy[10:31, 10, 0] = True
        grid.occupancy[10:31, 30, 0] = True
        grid.occupancy[10, 10:31, 0] = True
        grid.occupancy[30, 10:31, 0] = True
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([5.0, 5.0, 0.125], 0.0)
        target = np.array([5.05, 5.0, 0.125])
        cfg = SearchConfig(max_expansions=2000)
        with pytest.raises(SearchExhausted):
            search(start, lambda t: target, grid, esdf, LIMITS, cfg,
                   horizon=2.0, standoff=4.5)

    def test_deterministic(self):
        grid = wall_map()
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([2.0, 5.0, 0.125], 0.0)
        target_at = lambda t: np.array([8.0, 5.0 + 0.5 * t, 0.125])
        cfg = SearchConfig(max_expansions=30000, horizon_slack=4.0)
        out1 = search(start, target_at, grid, esdf, LIMITS, cfg,
                      horizon=3.0, standoff=2.5)
        out2 = search(start, target_at, grid, esdf, LIMITS, cfg,
                      horizon=3.0, standoff=2.5)
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_moving_target_occlusion_free_nodes(self):
        # L-shaped obstacle, target sliding up behind it; the start sees the
        # target, so every returned node must keep the line of sight
        grid = OccupancyGrid.empty(0.25, (60, 60, 1))
        grid.occupancy[28:33, 16:34, 0] = True
        grid.occupancy[20:33, 30:34, 0] = True
        esdf = build_esdf(grid, 5.0)
        start = RobotState.at_rest([4.0, 2.0, 0.125], 0.0)

        def target_at(t):
            return np.array([9.5, 4.0 + 1.0 * min(t, 6.0), 0.125])

        assert not raycast_occluded(grid, start.p, target_at(0.0))
        cfg = SearchConfig(max_expansions=60000, horizon_slack=3.0)
        pts, times = search(start, target_at, grid, esdf, LIMITS, cfg,
                            horizon=4.0, standoff=3.0)
        for p, t in zip(pts, times):
            assert not dense_sampling_occluded(grid, p, target_at(t))

    def test_velocity_bound_every_node(self):
        grid = OccupancyGrid.empty(0.25, (48, 48, 1))
        esdf = build_esdf(grid, 5.0)
        start = RobotState([2.0, 2.0, 0.125], [1.5, 0.0, 0.0], np.zeros(3), 0.0)
        target = np.array([10.0, 10.0, 0.125])
        pts, times = search(start, lambda t: target, grid, esdf, LIMITS,
                            SearchConfig(max_expansions=30000,
                                         horizon_slack=4.0),
                            horizon=3.0, standoff=3.0)
        vel = np.diff(pts, axis=0) / np.diff(times)[:, None]
        # midpoint velocities of constant-acceleration arcs stay below the
        # per-node bound as well
        assert np.all(np.linalg.norm(vel, axis=1) <= LIMITS.v_m + 1e-9)


def test_package_attribute_is_the_search_module():
    """The package exports no name that hides its `search` submodule."""
    import visiplan
    import visiplan.search as module
    assert module is sys.modules["visiplan.search"]
    assert visiplan.search is module
    assert module.SearchConfig is SearchConfig
