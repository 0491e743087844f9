"""Occupancy-grid world model and truncated Euclidean distance field.

The grid stores boolean occupancy per cell. The distance field stores, per
cell, the Euclidean distance to the nearest occupied cell center, clamped to
a truncation radius. Continuous queries interpolate cell-center values
trilinearly; gradients differentiate the interpolant analytically so they are
consistent with the interpolated values.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage


class GridError(ValueError):
    """Malformed grid description or file; `field` names the offending grid
    field (resolution, origin, dims, occupied) when there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass
class OccupancyGrid:
    """Axis-aligned voxel grid. `origin` is the world position of the
    low corner of cell (0, 0, 0); cell centers sit at origin + (i + 0.5) * res.
    An `occupancy` of None makes every cell free.
    """

    resolution: float
    origin: np.ndarray
    dims: tuple[int, int, int]
    occupancy: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        res = self.resolution
        if not (isinstance(res, numbers.Real) and math.isfinite(res)
                and res > 0):
            raise GridError(f"resolution must be a positive number, got "
                            f"{res!r}", "resolution")
        try:
            dims_ok = len(self.dims) == 3 and all(
                isinstance(n, numbers.Integral) and n >= 1 for n in self.dims)
        except TypeError:
            dims_ok = False
        if not dims_ok:
            raise GridError(f"dims must be 3 integers >= 1, got "
                            f"{self.dims!r}", "dims")
        self.origin = finite_array(self.origin, (3,), "origin",
                                   "3 finite numbers")
        self.occupancy = np.zeros(self.dims, dtype=bool) \
            if self.occupancy is None \
            else np.asarray(self.occupancy, dtype=bool)
        if self.occupancy.shape != tuple(self.dims):
            raise GridError(
                f"occupancy shape {self.occupancy.shape} != dims {self.dims}"
            )

    @classmethod
    def empty(cls, resolution, dims, origin=(0.0, 0.0, 0.0)) -> "OccupancyGrid":
        return cls(resolution, origin, tuple(dims))

    def cell_of(self, p) -> tuple[int, int, int]:
        """Cell index containing world point p (no bounds check)."""
        idx = np.floor((np.asarray(p, float) - self.origin) / self.resolution)
        return tuple(int(v) for v in idx)

    def center_of(self, cell) -> np.ndarray:
        """World position of a cell center."""
        return self.origin + (np.asarray(cell, float) + 0.5) * self.resolution

    def in_bounds(self, cell) -> bool:
        return all(0 <= c < n for c, n in zip(cell, self.dims))

    def is_occupied(self, cell) -> bool:
        if not self.in_bounds(cell):
            return False
        return bool(self.occupancy[cell])

    def occupied_cells(self) -> np.ndarray:
        """(K, 3) int array of occupied cell indices."""
        return np.argwhere(self.occupancy)

    def world_min(self) -> np.ndarray:
        return self.origin.copy()

    def world_max(self) -> np.ndarray:
        return self.origin + np.asarray(self.dims, float) * self.resolution

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "origin": [float(v) for v in self.origin],
            "dims": list(self.dims),
            "occupied": [[int(i), int(j), int(k)] for i, j, k in self.occupied_cells()],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "OccupancyGrid":
        for key in ("resolution", "origin", "dims", "occupied"):
            if key not in d:
                raise GridError(f"grid JSON missing field '{key}'")
        try:
            resolution = float(d["resolution"])
        except (TypeError, ValueError):
            raise GridError(f"resolution must be a positive number, got "
                            f"{d['resolution']!r}", "resolution") from None
        dims = tuple(int(n) for n in finite_array(
            d["dims"], (3,), "dims", "3 integers >= 1", integral=True))
        grid = cls.empty(resolution, dims, d["origin"])
        cells = finite_array(d["occupied"], (None, 3), "occupied",
                             "a list of [i, j, k] integer cells",
                             integral=True, empty=True)
        cells = cells.astype(np.intp).reshape(-1, 3)
        outside = ((cells < 0) | (cells >= dims)).any(axis=1)
        if outside.any():
            cell = d["occupied"][int(np.argmax(outside))]
            raise GridError(f"occupied cell {cell} out of bounds for dims "
                            f"{dims}", "occupied")
        grid.occupancy[tuple(cells.T)] = True
        return grid

    def to_ascii(self) -> str:
        """nz=1 raster, '#' occupied / '.' free. First line is the row with
        the largest y index so the text reads like a map with +y upward.
        """
        if self.dims[2] != 1:
            raise GridError("ASCII raster only supports nz=1 grids")
        rows = []
        for j in range(self.dims[1] - 1, -1, -1):
            rows.append("".join("#" if self.occupancy[i, j, 0] else "."
                                for i in range(self.dims[0])))
        return "\n".join(rows) + "\n"

    @classmethod
    def from_ascii(cls, text: str, resolution: float,
                   origin=(0.0, 0.0, 0.0)) -> "OccupancyGrid":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GridError("empty ASCII raster")
        nx = len(lines[0])
        if any(len(ln) != nx for ln in lines):
            raise GridError("ASCII raster rows have unequal length")
        ny = len(lines)
        grid = cls.empty(resolution, (nx, ny, 1), origin)
        for row, ln in enumerate(lines):
            j = ny - 1 - row
            for i, ch in enumerate(ln):
                if ch == "#":
                    grid.occupancy[i, j, 0] = True
                elif ch != ".":
                    raise GridError(f"unexpected character {ch!r} in ASCII raster")
        return grid


def finite_array(value, shape, name: str, what: str, integral: bool = False,
                 empty: bool = False) -> np.ndarray:
    """`value` as a finite float array of `shape` (a None entry takes any
    length of at least 1, or 0 too when `empty`), with integral entries when
    `integral`; anything else is a GridError naming the field `name`."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if empty and arr is not None and arr.size == 0:
        return arr
    if arr is None or arr.ndim != len(shape) \
            or any(n < 1 if want is None else n != want
                   for n, want in zip(arr.shape, shape)) \
            or not np.isfinite(arr).all() \
            or integral and (arr != np.round(arr)).any():
        raise GridError(f"{name} must be {what}, got {value!r}", name)
    return arr


def load_grid(path, resolution: float | None = None,
              origin=(0.0, 0.0, 0.0)) -> OccupancyGrid:
    """Load a grid from JSON (self-describing) or ASCII raster (needs a
    caller-supplied resolution).
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return OccupancyGrid.from_json_dict(json.loads(text))
        except json.JSONDecodeError as e:
            raise GridError(f"malformed grid JSON in {path}: {e}") from e
    if resolution is None:
        raise GridError(f"ASCII grid {path} requires an explicit resolution")
    return OccupancyGrid.from_ascii(text, resolution, origin)


@dataclass
class ESDFField:
    """Truncated distance-to-nearest-obstacle samples over a grid.

    Immutable after build (`distance` is read-only); safe to share across
    planner instances.
    """

    grid: OccupancyGrid
    distance: np.ndarray = field(repr=False)
    d_trunc: float

    def __post_init__(self):
        self.distance = np.asarray(self.distance, dtype=np.float64)
        self.distance.setflags(write=False)
        n = np.asarray(self.grid.dims)
        self._flat = self.distance.reshape(-1)
        # per-axis column vectors, broadcast against (3, N) coordinates
        self._hi = (n - 1).astype(np.float64)[:, None]
        self._i0_max = np.maximum(n - 2, 0).astype(np.float64)[:, None]
        self._strides = strides = np.array([n[1] * n[2], n[2], 1],
                                           dtype=np.float64)
        # flat offsets of the 8 interpolation corners, x fastest (c000, c100,
        # c010, c110, c001, c101, c011, c111); a single-cell axis reuses its
        # only cell as the upper corner
        up = (strides * (n > 1)).astype(np.intp)
        self._corners = np.array([[x * up[0] + y * up[1] + z * up[2]]
                                  for z in (0, 1) for y in (0, 1)
                                  for x in (0, 1)], dtype=np.intp)

    # --- continuous queries -------------------------------------------------

    def _lattice(self, pts: np.ndarray):
        """Corner values (8, N) and fractional offsets (3, N) of each point's
        interpolation cell, plus the unclamped cell-center coordinates (3, N).
        Points outside the cell-center box are clamped onto it first.
        Component-major layout keeps every later operation contiguous.
        """
        g = self.grid
        u = np.subtract(pts.T, g.origin[:, None], order="C") / g.resolution \
            - 0.5
        uc = np.minimum(np.maximum(u, 0.0), self._hi)
        # on a single-cell axis uc and i0 are both 0, so the offset is too
        i0 = np.minimum(np.floor(uc), self._i0_max)
        base = (self._strides @ i0).astype(np.intp)
        return self._flat[self._corners + base], uc - i0, u

    @staticmethod
    def _value(c, f, w0):
        """Trilinear interpolation; `w0` is 1 - f."""
        # along x, then y, then z: c00 = c000 * (1 - fx) + c100 * fx, ...
        c = c.reshape(4, 2, -1)
        c = c[:, 0] * w0[0] + c[:, 1] * f[0]          # c00, c10, c01, c11
        c = c.reshape(2, 2, -1)
        c = c[:, 0] * w0[1] + c[:, 1] * f[1]          # c0, c1
        return c[0] * w0[2] + c[1] * f[2]

    def _gradient(self, c, f, w0, u):
        """Analytic gradient (N, 3) of the interpolant, zero along any axis
        where the query lies outside the cell-center box."""
        # per axis: the four corner differences along it, each weighted by
        # the other two axes (lower axis first) and summed in corner order
        w = np.stack([w0, f], axis=1)                     # (3, 2, N)
        t = (c[_EDGE_HI] - c[_EDGE_LO]) * w[_INNER, None] * w[_OUTER, :, None]
        grad = (t[:, 0, 0] + t[:, 0, 1] + t[:, 1, 0] + t[:, 1, 1]) \
            * (1.0 / self.grid.resolution)
        grad[(u < 0.0) | (u > self._hi)] = 0.0
        return grad.T

    def distance_at(self, p) -> float | np.ndarray:
        """Trilinearly interpolated distance at world point(s) p.

        Out-of-bounds points are clamped to the cell-center box first, which
        keeps the field total (and flat) outside the map.
        """
        pts = np.asarray(p, dtype=np.float64)
        c, f, _ = self._lattice(pts.reshape(-1, 3))
        val = self._value(c, f, 1 - f)
        return float(val[0]) if pts.ndim == 1 else val

    def gradient_at(self, p) -> np.ndarray:
        """Spatial gradient of the interpolated distance, zero along any axis
        where the query was clamped outside the grid (consistent with the
        clamped value function).
        """
        pts = np.asarray(p, dtype=np.float64)
        c, f, u = self._lattice(pts.reshape(-1, 3))
        grad = self._gradient(c, f, 1 - f, u)
        return grad[0] if pts.ndim == 1 else grad

    def distance_and_gradient(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Value and gradient in one pass (one corner gather)."""
        pts = np.asarray(p, dtype=np.float64).reshape(-1, 3)
        c, f, u = self._lattice(pts)
        w0 = 1 - f
        return self._value(c, f, w0), self._gradient(c, f, w0, u)


# Corner rows (x fastest, as in ESDFField._corners) for the gradient: entry
# [axis, outer, inner] is the upper/lower corner of the cell edge along
# `axis` at offset `outer` along the higher and `inner` along the lower of
# the other two axes, which are _OUTER and _INNER.
_EDGE_HI = np.array([[[1, 3], [5, 7]], [[2, 3], [6, 7]], [[4, 5], [6, 7]]])
_EDGE_LO = np.array([[[0, 2], [4, 6]], [[0, 1], [4, 5]], [[0, 1], [2, 3]]])
_INNER = np.array([1, 0, 0])
_OUTER = np.array([2, 2, 1])


def build_esdf(grid: OccupancyGrid, d_trunc: float = 5.0) -> ESDFField:
    """Exact distance transform of the occupancy grid, truncated at d_trunc.

    Distances are measured between cell centers. Occupied cells store 0;
    a grid with no obstacles stores d_trunc everywhere.
    """
    if d_trunc <= 0:
        raise GridError("d_trunc must be positive")
    occ = grid.occupancy
    if not occ.any():
        dist = np.full(occ.shape, float(d_trunc))
        return ESDFField(grid, dist, float(d_trunc))
    # Feature transform gives the nearest occupied cell exactly; the distance
    # is then sqrt of an integer squared cell offset (exact in float64),
    # matching a brute-force scan bit-for-bit. It runs over the axes with
    # more than one cell only: a single-cell axis adds no offset.
    free = ~occ.reshape([n for n in occ.shape if n > 1] or [1])
    nearest = ndimage.distance_transform_edt(
        free, return_distances=False, return_indices=True)
    sq = np.zeros(free.shape, dtype=np.int64)
    for axis, idx in enumerate(nearest):
        offset = idx - np.arange(free.shape[axis]).reshape(
            [-1] + [1] * (free.ndim - 1 - axis))
        sq += offset * offset
    dist = np.minimum(np.sqrt(sq) * grid.resolution, d_trunc)
    return ESDFField(grid, dist.reshape(occ.shape), float(d_trunc))
