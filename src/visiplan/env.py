"""Occupancy-grid world model and truncated Euclidean distance field.

The grid stores boolean occupancy per cell. The distance field stores, per
cell, the Euclidean distance to the nearest occupied cell center, clamped to
a truncation radius. It is built by an exact separable squared distance
transform in integer numpy, which only needs to look as far as the
truncation radius; its first pass skips the lines that hold no obstacle,
and the distances come from a direct square root of the squared offsets.
Continuous queries interpolate cell-center values
trilinearly; gradients differentiate the interpolant analytically so they are
consistent with the interpolated values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np


class FieldError(ValueError):
    """A value that does not fit its field, named by `field` when known."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def require(ok: bool, name: str, what: str, value) -> None:
    """Unless `ok`, a FieldError naming `name`, which must `what`."""
    if not ok:
        raise FieldError(f"{name} must {what}, got {value!r}", name)


# The most cells a grid may hold. The largest bundled or benchmark map has
# 200 x 200 = 40,000 cells; this admits a hundred times as many, while a
# grid of this size, its distance field and its summed-volume table take
# about 100 MB to build.
MAX_CELLS = 2 ** 22


@dataclass
class OccupancyGrid:
    """Axis-aligned voxel grid. `origin` is the world position of the
    low corner of cell (0, 0, 0); cell centers sit at origin + (i + 0.5) * res.
    Every cell starts free. `freeze` measures the map: its ESDF and its
    summed-volume table call it, so they and the rays read one map.
    """

    resolution: float
    origin: np.ndarray
    dims: tuple[int, int, int]
    occupancy: np.ndarray = field(init=False, repr=False)
    _summed_volume: np.ndarray | None = field(default=None, init=False,
                                              repr=False, compare=False)
    _frozen = False                     # set for good by `freeze`

    def __setattr__(self, name, value):
        if name == "occupancy" and self._frozen:
            raise AttributeError("a measured grid's occupancy is read-only")
        super().__setattr__(name, value)

    def freeze(self) -> None:
        """Bind `occupancy` for good to a read-only copy, which no view
        taken before can write."""
        if not self._frozen:
            occupancy = self.occupancy.copy()
            occupancy.setflags(write=False)
            self.occupancy = occupancy
            self._frozen = True

    def __post_init__(self):
        res = self.resolution
        require(is_number(res, float) and res > 0, "resolution",
                "be a positive number", res)
        self.resolution = float(res)
        try:
            dims_ok = len(self.dims) == 3 and all(
                isinstance(n, numbers.Integral) and n >= 1 for n in self.dims)
        except TypeError:
            dims_ok = False
        require(dims_ok, "dims", "be 3 integers >= 1", self.dims)
        require(math.prod(map(int, self.dims)) <= MAX_CELLS, "dims",
                f"hold at most {MAX_CELLS} cells", self.dims)
        self.origin = finite_array(self.origin, (3,), "origin",
                                   "3 finite numbers")
        self.occupancy = np.zeros(self.dims, dtype=bool)

    @classmethod
    def empty(cls, resolution, dims, origin=(0.0, 0.0, 0.0)) -> "OccupancyGrid":
        return cls(resolution, origin, tuple(dims))

    def cell_of(self, p) -> tuple[int, int, int]:
        """Cell index containing world point p (no bounds check)."""
        idx = np.floor((np.asarray(p, float) - self.origin) / self.resolution)
        return tuple(int(v) for v in idx)

    def in_bounds(self, cell) -> bool:
        return all(0 <= c < n for c, n in zip(cell, self.dims))

    def is_occupied(self, cell) -> bool:
        if not self.in_bounds(cell):
            return False
        return bool(self.occupancy[cell])

    def occupied_counts(self) -> np.ndarray:
        """Read-only summed-volume table (Crow 1984) of the occupancy: entry
        [i, j, k] counts the occupied cells in [0, i) x [0, j) x [0, k), so
        the count of any box takes eight lookups. Built on first use, which
        freezes the grid."""
        if self._summed_volume is None:
            self.freeze()
            nx, ny, nz = self.dims
            table = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.int32)
            inner = table[1:, 1:, 1:]   # summed in place: no temporaries
            np.cumsum(self.occupancy, 0, dtype=np.int32, out=inner)
            np.cumsum(inner, 1, out=inner)
            np.cumsum(inner, 2, out=inner)
            table.setflags(write=False)
            self._summed_volume = table
        return self._summed_volume

    def occupied_cells(self) -> np.ndarray:
        """(K, 3) int array of occupied cell indices."""
        return np.argwhere(self.occupancy)

    @classmethod
    def from_json_dict(cls, d: dict) -> "OccupancyGrid":
        """The grid at the origin that a grid JSON object describes."""
        dims = tuple(int(n) for n in finite_array(
            d["dims"], (3,), "dims", "3 integers >= 1", integral=True))
        grid = cls.empty(d["resolution"], dims)
        cells = finite_array(d["occupied"], (None, 3), "occupied",
                             "a list of [i, j, k] integer cells",
                             integral=True, empty=True)
        cells = cells.astype(np.intp).reshape(-1, 3)
        outside = ((cells < 0) | (cells >= dims)).any(axis=1)
        if outside.any():
            cell = d["occupied"][int(np.argmax(outside))]
            raise FieldError(f"occupied cell {cell} out of bounds for dims "
                             f"{dims}", "occupied")
        grid.occupancy[tuple(cells.T)] = True
        return grid

    @classmethod
    def from_ascii(cls, text: str, resolution: float) -> "OccupancyGrid":
        """The grid at the origin of an ASCII '#'/'.' raster (top line
        highest in y)."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FieldError("empty ASCII raster")
        nx = len(lines[0])
        if any(len(ln) != nx for ln in lines):
            raise FieldError("ASCII raster rows have unequal length")
        ny = len(lines)
        grid = cls.empty(resolution, (nx, ny, 1))
        for row, ln in enumerate(lines):
            j = ny - 1 - row
            for i, ch in enumerate(ln):
                if ch == "#":
                    grid.occupancy[i, j, 0] = True
                elif ch != ".":
                    raise FieldError(f"unexpected character {ch!r} in ASCII raster")
        return grid


def finite_array(value, shape, name: str, what: str, integral: bool = False,
                 empty: bool = False) -> np.ndarray:
    """`value` as a finite float array of `shape` (a None entry takes any
    length of at least 1, or 0 too when `empty`), with integral entries when
    `integral`; anything else is a FieldError naming the field `name`."""
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
        raise FieldError(f"{name} must be {what}, got {value!r}", name)
    return arr


def is_number(value, kind) -> bool:
    """True iff `value` is a finite real number, and integral (20 or 20.0)
    when `kind` is int; a bool is neither."""
    # JSON numbers skip the ABC checks; a bool's type is bool, not int
    if type(value) is not float and type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        x = float(value)
    except OverflowError:
        return False
    return math.isfinite(x) and (kind is not int or x.is_integer())


def norm(v) -> float:
    """Euclidean length of `v`, as `np.linalg.norm` gives it; inf, with no
    overflow warning, where its square passes the float range (the bearing
    of a target 1e300 m away, say)."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def require_valid_fields(config, nonnegative=()) -> None:
    """FieldError naming the first field of the config dataclass `config`
    whose value does not fit its annotation: an `int` field holds a positive
    integral number and a `float` field a finite positive one, where a field
    named in `nonnegative` may be 0. An `int` field's integral float (20.0)
    is stored as the int it equals."""
    for f in fields(config):
        value = getattr(config, f.name)
        sign = "nonnegative" if f.name in nonnegative else "positive"
        what = f"a {sign} integer" if f.type == "int" \
            else f"a finite {sign} number"
        ok = is_number(value, int if f.type == "int" else float) and (
            value >= 0 if f.name in nonnegative else value > 0)
        require(ok, f.name, f"be {what}", value)
        if f.type == "int":
            object.__setattr__(config, f.name, int(value))


@dataclass
class ESDFField:
    """Truncated distance-to-nearest-obstacle samples over a grid.

    `distance[i, j, k]` is the distance from that cell's center to the
    nearest occupied cell center, min(res * sqrt(integer squared cell
    offset), d_trunc), as `build_esdf` makes it; 0 on occupied cells.
    Immutable after build (`distance` and the grid's occupancy are
    read-only); safe to share across planner instances.
    """

    grid: OccupancyGrid
    distance: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.grid.freeze()
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
        # a coordinate past the float range is clamped like any other
        with np.errstate(over="ignore"):
            c, f, _ = self._lattice(pts.reshape(-1, 3))
        val = self._value(c, f, 1 - f)
        return float(val[0]) if pts.ndim == 1 else val

    def distance_and_gradient(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Value and gradient in one pass (one corner gather)."""
        pts = np.asarray(p, dtype=np.float64).reshape(-1, 3)
        # as in distance_at; and on a subnormal resolution 1 / resolution is
        # inf, so 0 * inf reaches entries that the out-of-box mask zeroes
        with np.errstate(over="ignore", invalid="ignore"):
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


def build_esdf(grid: OccupancyGrid, d_trunc: float) -> ESDFField:
    """Exact distance transform of the occupancy grid, truncated at d_trunc.

    Distances are measured between cell centers. Occupied cells store 0;
    a grid with no obstacles stores d_trunc everywhere.
    """
    if not d_trunc > 0:
        raise FieldError("d_trunc must be positive")
    occ = grid.occupancy
    if not occ.any():
        dist = np.full(occ.shape, float(d_trunc))
        return ESDFField(grid, dist)
    # A separable squared transform (Saito & Toriwaki 1994) in integer
    # cell units over the axes with more than one cell (a single-cell axis
    # adds no offset). A cell nearer than d_trunc has its nearest occupied
    # cell fewer than `reach` cells away along every axis, so its squared
    # offset comes out exact; every other cell gets at least reach**2, which
    # clamps to d_trunc as its exact distance does. No squared offset in
    # the grid reaches sum(dims)**2, so `reach` need not exceed that sum.
    occ = occ.reshape([n for n in occ.shape if n > 1] or [1])
    reach = math.ceil(min(d_trunc / grid.resolution, sum(occ.shape))) + 1
    # holds the indices from -reach to n - 1 + reach of the first pass, the
    # entries (below reach**2) and the sums formed (below 2 * reach**2)
    need = max(2 * reach * reach, occ.shape[-1] + reach)
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if need <= np.iinfo(t).max)
    # the first pass runs along the contiguous last axis, over the lines
    # that hold an obstacle only, and the others toward axis 0, so that
    # every slice the others take is contiguous
    sq = _squared_along_last(occ, reach, dtype)
    for axis in range(occ.ndim - 2, -1, -1):
        _min_plus_squares(sq, axis, reach)
    # sqrt of an integer (exact in float64), scaled, then clamped: the same
    # operations as a brute-force scan, so the same bits
    dist = np.sqrt(sq, dtype=np.float64).reshape(grid.dims)
    dist *= grid.resolution
    np.minimum(dist, d_trunc, out=dist)
    return ESDFField(grid, dist)


def _squared_along_last(occ: np.ndarray, reach: int, dtype) -> np.ndarray:
    """Squared cell offset to the nearest occupied cell along the last axis,
    clamped at reach**2 (also where the line holds none)."""
    n = occ.shape[-1]
    out = np.full(occ.shape, reach * reach, dtype=dtype)
    flat, lines = occ.reshape(-1, n), out.reshape(-1, n)
    rows = flat.any(axis=1)
    occ = flat[rows]
    idx = np.arange(n, dtype=dtype)
    below = np.where(occ, idx, -reach)
    np.maximum.accumulate(below, axis=-1, out=below)
    above = np.where(occ, idx, n - 1 + reach)[..., ::-1]
    np.minimum.accumulate(above, axis=-1, out=above)
    d = np.minimum(idx - below, above[..., ::-1] - idx)
    np.minimum(d, reach, out=d)
    d *= d
    lines[rows] = d
    return out


def _min_plus_squares(f: np.ndarray, axis: int, reach: int) -> None:
    """f[i] = min over |k| < min(n, reach) of f[i + k] + k**2 along `axis`,
    in place."""
    src = np.moveaxis(f.copy(), axis, 0)
    out, tmp = np.moveaxis(f, axis, 0), np.empty_like(src)
    for k in range(1, min(src.shape[0], reach)):
        np.add(src, k * k, out=tmp)
        np.minimum(out[k:], tmp[:-k], out=out[k:])
        np.minimum(out[:-k], tmp[k:], out=out[:-k])
