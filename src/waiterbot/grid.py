"""Occupancy grid, obstacle inflation into a risk field, and window sums.

Grids are immutable snapshots: every "mutation" constructs a new map, so maps
and risk fields can be shared freely across threads.

Cell convention: cells[row, col]; cell (0, 0) has its corner at the map
origin and its center half a resolution further out.  The risk field keeps
the exact geometry of its source map and holds 100 inside the inflation
radius of any occupied/unknown cell, 0 elsewhere.  Window sums are four
slices of one summed-area table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

RISK_MAX = 100


class GridError(Exception):
    """Base class for grid failures."""


class BoundsError(GridError):
    """A point or cell index lies outside the map."""


class GridFormatError(GridError):
    """Malformed grid document; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CellState(IntEnum):
    FREE = 0
    OCCUPIED = 1
    UNKNOWN = 2


GLYPHS = {CellState.FREE: ".", CellState.OCCUPIED: "#", CellState.UNKNOWN: "?"}
# code point -> cell state; every code point from _NO_STATE up is no glyph
_NO_STATE = 255
_GLYPH_STATE = np.full(_NO_STATE + 1, _NO_STATE, dtype=np.uint8)
_GLYPH_STATE[[ord(g) for g in GLYPHS.values()]] = list(GLYPHS)


class CellIndex(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True, eq=False)
class GridMap:
    """Fixed-resolution occupancy grid; cells is a (height, width) uint8 array."""

    resolution: float
    origin: tuple[float, float]
    cells: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (
            self.resolution == other.resolution
            and self.origin == other.origin
            and np.array_equal(self.cells, other.cells)
        )

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise ValueError("cells must be a non-empty 2D array")
        c = np.ascontiguousarray(self.cells, dtype=np.uint8)
        c.setflags(write=False)
        object.__setattr__(self, "cells", c)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def in_bounds(self, c: CellIndex) -> bool:
        return 0 <= c.col < self.width and 0 <= c.row < self.height

    def with_cells(self, cells: np.ndarray) -> "GridMap":
        return GridMap(self.resolution, self.origin, cells)


def world_to_cell(grid: GridMap, p: tuple[float, float]) -> CellIndex:
    """Cell containing world point p (floor semantics); raises BoundsError outside."""
    # a quotient beyond the map is clipped to just past it, so no distance overflows the floor
    col = math.floor(min(max((p[0] - grid.origin[0]) / grid.resolution, -1.0), grid.width))
    row = math.floor(min(max((p[1] - grid.origin[1]) / grid.resolution, -1.0), grid.height))
    c = CellIndex(col, row)
    if not grid.in_bounds(c):
        raise BoundsError(f"point {p} outside map extent")
    return c


@dataclass(frozen=True, eq=False)
class RiskField:
    """Per-cell risk on the same geometry as the source grid, one byte per
    cell: a read-only, C-contiguous uint8 array of values in 0..`RISK_MAX`
    (`inflate` writes 0 or 100).  An array that is not of integers, or holds a
    value outside that range, is refused, never cast."""

    resolution: float
    origin: tuple[float, float]
    risk: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.risk)
        if r.dtype.kind not in "iu":
            raise ValueError(f"risk must be an integer array, got dtype {r.dtype}")
        if r.size and (r.min() < 0 or r.max() > RISK_MAX):
            raise ValueError(f"risk values must lie in 0..{RISK_MAX}, got {r.min()}..{r.max()}")
        r = np.ascontiguousarray(r, dtype=np.uint8)
        r.setflags(write=False)
        object.__setattr__(self, "risk", r)

    @property
    def width(self) -> int:
        return self.risk.shape[1]

    @property
    def height(self) -> int:
        return self.risk.shape[0]

    def at(self, c: CellIndex) -> int:
        return int(self.risk[c.row, c.col])


@lru_cache(maxsize=None)
def _disc(resolution: float, radius: float) -> tuple[int, tuple[tuple[int, int], ...]]:
    """`reach`, and the offsets (dr, dc), each in 0..2 reach, of the cells whose
    center lies within `radius` of the center of cell (reach, reach), in row-major order.

    The disc is symmetric, and the distance grows with |x| along a row, so each
    row of it is one run of columns centred on column `reach`."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    reach = math.floor(radius / resolution) + 1
    d = [k * resolution for k in range(-reach, reach + 1)]
    return reach, tuple((i, j) for i, y in enumerate(d) for j, x in enumerate(d) if math.sqrt(y * y + x * x) <= radius)


def inflate(grid: GridMap, radius: float) -> RiskField:
    """Risk field, one byte per cell, with 100 within `radius` of any
    OCCUPIED/UNKNOWN cell center and 0 elsewhere.

    The dilation runs over the disc's rows, each a run of columns of
    half-width k about column `reach`.  The occupancy is laid out flat, its
    rows end to end with `reach` free cells between two rows and `reach` free
    rows above and below.  It is widened sideways one k at a time (two
    shifted ORs per step), and on reaching a row's k its view shifted by that
    row is ORed into the hit mask.  A shift by k <= `reach` moves a map cell
    at most onto the free cells between rows, whose hits are dropped at the
    end.  The disc is symmetric and the border free, so this equals
    `scipy.ndimage.binary_dilation` of the occupancy by the disc, cell for
    cell.
    """
    reach, disc = _disc(grid.resolution, radius)
    half: dict[int, int] = {}  # disc row -> half-width of its run
    for dr, dc in disc:
        half.setdefault(dr, reach - dc)  # a row's first offset is its leftmost
    h, w = grid.cells.shape
    pw = w + reach  # padded width: the free cells left of a row are those right of the row before
    occupied = np.zeros((h + 2 * reach, pw), dtype=bool)
    np.not_equal(grid.cells, CellState.FREE.value, out=occupied[reach : reach + h, reach : reach + w])
    occupied = occupied.reshape(-1)
    wide, k = occupied.copy(), 0  # wide[i]: the OR of occupied[i-k : i+k+1]
    hit = np.zeros(h * pw, dtype=bool)
    for dr in sorted(half, key=half.__getitem__):
        while k < half[dr]:
            k += 1
            wide[k:] |= occupied[:-k]
            wide[:-k] |= occupied[k:]
        hit |= wide[dr * pw : (dr + h) * pw]
    risk = np.multiply(hit.reshape(h, pw)[:, reach : reach + w], RISK_MAX, dtype=np.uint8)
    return RiskField(grid.resolution, grid.origin, risk)


def cell_risk(grid: GridMap, c: CellIndex, radius: float) -> int:
    """`inflate(grid, radius).at(c)`, read from the cells of the disc around `c` only."""
    reach, disc = _disc(grid.resolution, radius)
    (h, w), free = grid.cells.shape, CellState.FREE.value  # a numpy scalar compares slowly with an IntEnum
    for dr, dc in disc:
        row, col = c.row + dr - reach, c.col + dc - reach
        if 0 <= row < h and 0 <= col < w and grid.cells[row, col] != free:
            return RISK_MAX
    return 0


def window_sums(a: np.ndarray, r: int) -> np.ndarray:
    """Sum of every (2r+1) x (2r+1) window of an integer array, as four slices
    of its summed-area table (Crow 1984): entry [i, j] is `a[i : i+2r+1, j :
    j+2r+1].sum()`.  Zero-pad `a` by r cells on each side to get, per cell,
    the sum over its neighborhood clipped to the array.  The table wraps in
    int64, and a window sum that fits int64 is still exact (sums mod 2**64).
    """
    k = 2 * r + 1
    sat = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(a, axis=0), axis=1, out=sat[1:, 1:])
    return sat[k:, k:] - sat[:-k, k:] - sat[k:, :-k] + sat[:-k, :-k]


def save_grid(grid: GridMap) -> str:
    """Canonical text form: header line, then one glyph row per grid row."""
    lines = [
        f"gridmap v1 {grid.width} {grid.height} {grid.resolution!r} "
        f"{grid.origin[0]!r} {grid.origin[1]!r}"
    ]
    glyphs = np.array([GLYPHS[CellState.FREE], GLYPHS[CellState.OCCUPIED], GLYPHS[CellState.UNKNOWN]])
    for row in range(grid.height):
        lines.append("".join(glyphs[grid.cells[row]]))
    return "\n".join(lines) + "\n"


def load_grid(text: str) -> GridMap:
    """Parse the grid text format; raises GridFormatError naming the bad line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GridFormatError("empty document", 1)
    head = lines[0].split(" ")
    if len(head) != 7 or head[0] != "gridmap" or head[1] != "v1":
        raise GridFormatError(f"bad header {lines[0]!r}", 1)
    try:
        width, height = int(head[2]), int(head[3])
        resolution = float(head[4])
        origin = (float(head[5]), float(head[6]))
    except ValueError as e:
        raise GridFormatError(f"bad header field: {e}", 1) from None
    if width < 1 or height < 1 or resolution <= 0:
        raise GridFormatError("non-positive dimensions or resolution", 1)
    try:
        far = (origin[0] + width * resolution, origin[1] + height * resolution)
    except OverflowError:  # a size beyond the float range
        far = (math.inf, math.inf)
    if not all(map(math.isfinite, (resolution, *origin, *far))):
        raise GridFormatError("resolution, origin and far map corner must be finite", 1)
    # above that bound each cell centre, origin + (i + 0.5) * resolution, is off by under a tenth of a cell
    if resolution <= 16 * math.ulp(max(map(abs, (*origin, *far)))):
        raise GridFormatError(f"resolution {resolution:g} is not above 16 ulps of the map's largest coordinate", 1)
    if len(lines) - 1 != height:
        raise GridFormatError(f"expected {height} rows, found {len(lines) - 1}", len(lines))
    rows = lines[1:]
    # the first error in line order wins: glyphs are looked up only in the
    # rows before the first row of the wrong length
    short = next((i for i, row in enumerate(rows) if len(row) != width), height)
    codes = np.frombuffer("".join(rows[:short]).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    cells = _GLYPH_STATE[np.minimum(codes, _NO_STATE)]
    bad = np.flatnonzero(cells == _NO_STATE)
    if bad.size:
        row, col = divmod(int(bad[0]), width)
        raise GridFormatError(f"unknown glyph {rows[row][col]!r}", row + 2)
    if short < height:
        raise GridFormatError(f"row has {len(rows[short])} glyphs, expected {width}", short + 2)
    return GridMap(resolution, origin, cells.reshape(height, width))
