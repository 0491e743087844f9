import numpy as np
import pytest

from visiplan.env import (MAX_CELLS, ESDFField, FieldError, OccupancyGrid,
                          build_esdf)


def brute_force_esdf(grid: OccupancyGrid, d_trunc: float) -> np.ndarray:
    """O(N^2) oracle: distance from every cell center to the nearest occupied
    cell center, clamped."""
    occ = grid.occupied_cells().astype(np.float64)
    if occ.shape[0] == 0:
        return np.full(grid.dims, d_trunc)
    cells = np.argwhere(np.ones(grid.dims, dtype=bool)).astype(np.float64)
    d2 = ((cells[:, None, :] - occ[None, :, :]) ** 2).sum(-1).min(1)
    dist = np.sqrt(d2).reshape(grid.dims) * grid.resolution
    return np.minimum(dist, d_trunc)


def trilinear_oracle(field: ESDFField, p) -> float:
    """Direct 8-corner weighted sum, written independently of the field's
    own interpolation code."""
    g = field.grid
    u = (np.asarray(p, float) - g.origin) / g.resolution - 0.5
    u = np.clip(u, 0.0, np.asarray(g.dims) - 1.0)
    i0 = np.minimum(np.floor(u).astype(int), np.maximum(np.asarray(g.dims) - 2, 0))
    f = u - i0
    total = 0.0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                idx = np.minimum(i0 + [dx, dy, dz], np.asarray(g.dims) - 1)
                w = ((f[0] if dx else 1 - f[0])
                     * (f[1] if dy else 1 - f[1])
                     * (f[2] if dz else 1 - f[2]))
                total += w * field.distance[tuple(idx)]
    return total


def center(grid: OccupancyGrid, cell) -> np.ndarray:
    """World position of a cell center."""
    return grid.origin + (np.asarray(cell, float) + 0.5) * grid.resolution


def world_box(grid: OccupancyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Low and high world corners of the grid."""
    return grid.origin, \
        grid.origin + np.asarray(grid.dims, float) * grid.resolution


def random_grid(rng, max_dim=20, p_occ=0.1, flat=()) -> OccupancyGrid:
    """Every axis draws 2..max_dim cells, except the `flat` ones, which get
    a single cell."""
    dims = tuple(1 if axis in flat else int(v) for axis, v in
                 enumerate(rng.integers(2, max_dim + 1, size=3)))
    grid = OccupancyGrid.empty(0.1, dims, rng.normal(size=3))
    grid.occupancy[:] = rng.random(dims) < p_occ
    return grid


def interior_point(rng, field, margin):
    """Random point at least `margin` from every interpolation-lattice plane."""
    g = field.grid
    lo = g.origin + 0.5 * g.resolution
    hi = g.origin + (np.asarray(g.dims) - 0.5) * g.resolution
    for _ in range(200):
        p = rng.uniform(lo + margin, hi - margin)
        frac = ((p - g.origin) / g.resolution - 0.5) % 1.0
        off = np.minimum(frac, 1.0 - frac) * g.resolution
        if np.all(off > margin):
            return p
    pytest.skip("could not sample a boundary-safe point")


class TestOccupancyGrid:
    def test_roundtrip_cell_center(self):
        grid = OccupancyGrid.empty(0.25, (4, 5, 6), (-1.0, 2.0, 0.5))
        for cell in [(0, 0, 0), (3, 4, 5), (2, 1, 3)]:
            assert grid.cell_of(center(grid, cell)) == cell

    def test_budget_admits_its_own_size(self):
        grid = OccupancyGrid.empty(0.1, (2048, 2048, 1))
        assert grid.occupancy.size == MAX_CELLS

    def test_invalid_dims(self):
        with pytest.raises(FieldError):
            OccupancyGrid.empty(0.1, (0, 3, 3))
        with pytest.raises(FieldError):
            OccupancyGrid.empty(-1.0, (3, 3, 3))

    @pytest.mark.parametrize("resolution, dims, origin, named", [
        (0.1, (3, 3), (0, 0, 0), "dims"),
        (0.1, (3, 3, 1.5), (0, 0, 0), "dims"),
        (0.1, (3, 3, 1), (0, 0), "origin"),
        (0.1, (3, 3, 1), (0, np.nan, 0), "origin"),
        (0.1, (3, 3, 1), ("a", 0, 0), "origin"),
        ("x", (3, 3, 1), (0, 0, 0), "resolution"),
        (np.inf, (3, 3, 1), (0, 0, 0), "resolution"),
        (True, (3, 3, 1), (0, 0, 0), "resolution"),
        # past the cell budget, refused before any array is built
        (0.1, (2048, 2049, 1), (0, 0, 0), "dims"),
        (0.1, (10 ** 6, 10 ** 6, 10 ** 6), (0, 0, 0), "dims"),
    ])
    def test_malformed_grid_names_field(self, resolution, dims, origin,
                                        named):
        with pytest.raises(FieldError, match=named) as info:
            OccupancyGrid.empty(resolution, dims, origin)
        assert info.value.field == named

    @pytest.mark.parametrize("key, value", [
        ("resolution", "x"), ("dims", [4, 4]), ("dims", ["a", 4, 1]),
        # explicit ids keep the names these rows had when a grid JSON held
        # an origin row before them
        pytest.param("occupied", [["a", 1, 0]], id="occupied-value4"),
        pytest.param("occupied", [[1, 0]], id="occupied-value5"),
        pytest.param("occupied", [[1, 0, 0.5]], id="occupied-value6"),
        pytest.param("occupied", [[4, 0, 0]], id="occupied-value7"),
        pytest.param("occupied", [[-1, 0, 0]], id="occupied-value8"),
    ])
    def test_malformed_json_names_field(self, key, value):
        d = {"resolution": 0.5, "dims": [4, 4, 1], "occupied": [[1, 1, 0]]}
        d[key] = value
        with pytest.raises(FieldError) as info:
            OccupancyGrid.from_json_dict(d)
        assert info.value.field == key

    def test_ascii_roundtrip(self, tmp_path):
        text = "..#..\n.###.\n..#..\n.....\n"
        grid = OccupancyGrid.from_ascii(text, resolution=0.5)
        assert grid.dims == (5, 4, 1)
        # the first text row is the largest y index: +y reads upward
        occupied = {tuple(c) for c in np.argwhere(grid.occupancy[:, :, 0])}
        assert occupied == {(2, 3), (1, 2), (2, 2), (3, 2), (2, 1)}
        path = tmp_path / "map.txt"
        path.write_text(text)
        loaded = OccupancyGrid.from_ascii(path.read_text(), resolution=0.5)
        assert np.array_equal(loaded.occupancy, grid.occupancy)

    def test_ascii_orientation(self):
        # first text line is the top row (largest y index)
        grid = OccupancyGrid.from_ascii("#.\n..\n", resolution=1.0)
        assert grid.occupancy[0, 1, 0] and not grid.occupancy[0, 0, 0]

    def test_ascii_rejects_bad_char(self):
        with pytest.raises(FieldError):
            OccupancyGrid.from_ascii("..x\n...\n", resolution=1.0)


class TestBuildEsdf:
    def test_empty_grid_truncation_floor(self):
        grid = OccupancyGrid.empty(0.1, (10, 10, 1))
        field = build_esdf(grid, d_trunc=5.0)
        assert np.all(field.distance == 5.0)

    def test_occupied_cell_zero(self):
        grid = OccupancyGrid.empty(0.1, (10, 10, 1))
        grid.occupancy[4, 4, 0] = True
        field = build_esdf(grid, 5.0)
        assert field.distance[4, 4, 0] == 0.0

    def test_single_obstacle_345(self):
        grid = OccupancyGrid.empty(0.1, (12, 12, 1))
        grid.occupancy[5, 5, 0] = True
        field = build_esdf(grid, 5.0)
        assert field.distance[8, 9, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            grid = random_grid(rng)
            d_trunc = float(rng.uniform(0.3, 3.0))
            field = build_esdf(grid, d_trunc)
            assert np.array_equal(field.distance, brute_force_esdf(grid, d_trunc))
        # single-cell axes (the forest maps are planar) and full grids
        for flat in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
            for p_occ in (0.1, 1.0):
                grid = random_grid(rng, p_occ=p_occ, flat=flat)
                if not grid.occupancy.any():
                    grid.occupancy[(0,) * 3] = True
                d_trunc = float(rng.uniform(0.3, 3.0))
                field = build_esdf(grid, d_trunc)
                assert field.distance.shape == grid.dims
                assert np.array_equal(field.distance,
                                      brute_force_esdf(grid, d_trunc))

    def test_lipschitz_and_range(self):
        rng = np.random.default_rng(11)
        grid = random_grid(rng, p_occ=0.05)
        field = build_esdf(grid, 1.5)
        d = field.distance
        assert np.all(d >= 0) and np.all(d <= 1.5)
        for axis in range(3):
            diff = np.abs(np.diff(d, axis=axis))
            assert np.all(diff <= grid.resolution + 1e-12)


class TestSampling:
    def test_cell_center_identity(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng)
        field = build_esdf(grid, 2.0)
        for _ in range(20):
            cell = tuple(rng.integers(0, n) for n in grid.dims)
            p = center(grid, cell)
            assert field.distance_at(p) == pytest.approx(
                field.distance[cell], abs=1e-12)

    def test_midpoint_linear(self):
        grid = OccupancyGrid.empty(1.0, (2, 1, 1))
        field = ESDFField(grid, np.array([[[1.0]], [[2.0]]]))
        mid = 0.5 * (center(grid, (0, 0, 0)) + center(grid, (1, 0, 0)))
        assert field.distance_at(mid) == pytest.approx(1.5, abs=1e-12)

    def test_matches_trilinear_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            grid = random_grid(rng, max_dim=8)
            field = build_esdf(grid, 2.0)
            lo, hi = world_box(grid)
            for _ in range(20):
                p = rng.uniform(lo - 0.3, hi + 0.3)
                assert field.distance_at(p) == pytest.approx(
                    trilinear_oracle(field, p), abs=1e-12)

    def test_continuity(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng)
        field = build_esdf(grid, 2.0)
        lo, hi = world_box(grid)
        lipschitz = 1.0   # ESDF is 1-Lipschitz; interpolation preserves it
        for _ in range(200):
            p = rng.uniform(lo, hi)
            delta = rng.normal(size=3)
            delta *= 1e-6 / np.linalg.norm(delta)
            assert abs(field.distance_at(p + delta) - field.distance_at(p)) \
                <= 2e-6 * lipschitz

    def test_out_of_bounds_clamps(self):
        grid = OccupancyGrid.empty(0.1, (5, 5, 1))
        grid.occupancy[2, 2, 0] = True
        field = build_esdf(grid, 5.0)
        far = np.array([100.0, 100.0, 100.0])
        corner = grid.origin + (np.asarray(grid.dims) - 0.5) * 0.1
        assert field.distance_at(far) == pytest.approx(
            field.distance_at(corner), abs=1e-12)
        assert np.allclose(field.distance_and_gradient(far)[1], 0.0)


class TestGradient:
    def test_uniform_field_zero(self):
        grid = OccupancyGrid.empty(0.1, (6, 6, 6))
        field = build_esdf(grid, 5.0)
        rng = np.random.default_rng(1)
        p = rng.uniform(*world_box(grid))
        assert np.allclose(field.distance_and_gradient(p)[1], 0.0)

    def test_linear_field(self):
        grid = OccupancyGrid.empty(0.5, (8, 4, 4))
        centers_x = (np.arange(8) + 0.5) * 0.5
        field = ESDFField(grid, np.tile(centers_x[:, None, None], (1, 4, 4)))
        p = np.array([1.7, 0.9, 1.1])
        assert np.allclose(field.distance_and_gradient(p)[1],
                           [[1.0, 0.0, 0.0]], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(10):
            grid = random_grid(rng, max_dim=10, p_occ=0.15)
            field = build_esdf(grid, 2.0)
            for _ in range(10):
                p = interior_point(rng, field, margin=10 * h)
                grad = field.distance_and_gradient(p)[1][0]
                fd = np.zeros(3)
                for ax in range(3):
                    e = np.zeros(3)
                    e[ax] = h
                    fd[ax] = (field.distance_at(p + e)
                              - field.distance_at(p - e)) / (2 * h)
                assert np.max(np.abs(grad - fd)) <= 1e-6

    def test_planar_grid_zero_z_gradient(self):
        rng = np.random.default_rng(17)
        grid = OccupancyGrid.empty(0.1, (10, 10, 1))
        grid.occupancy[rng.random((10, 10, 1)) < 0.2] = True
        if not grid.occupancy.any():
            grid.occupancy[3, 3, 0] = True
        field = build_esdf(grid, 2.0)
        for _ in range(20):
            p = rng.uniform(*world_box(grid))
            assert field.distance_and_gradient(p)[1][0, 2] == 0.0
