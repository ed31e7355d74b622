import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oracles import all_cells, cell_to_world, naive_inflate, naive_window_sum
from waiterbot.grid import (
    RISK_MAX,
    BoundsError,
    CellIndex,
    CellState,
    GridFormatError,
    GridMap,
    RiskField,
    _disc,
    cell_risk,
    inflate,
    load_grid,
    save_grid,
    window_sums,
    world_to_cell,
)


def make_grid(rows: list[str], resolution: float = 0.05, origin=(0.0, 0.0)) -> GridMap:
    lookup = {".": CellState.FREE, "#": CellState.OCCUPIED, "?": CellState.UNKNOWN}
    cells = np.array([[lookup[g] for g in row] for row in rows], dtype=np.uint8)
    return GridMap(resolution, origin, cells)


class TestTransforms:
    def test_floor_semantics(self):
        m = make_grid(["....."] * 5)
        assert world_to_cell(m, (0.075, 0.125)) == CellIndex(1, 2)

    def test_origin_corner(self):
        m = make_grid(["....."] * 5)
        assert world_to_cell(m, (0.0, 0.0)) == CellIndex(0, 0)

    def test_out_of_bounds_point(self):
        m = make_grid(["....."] * 5)
        with pytest.raises(BoundsError):
            world_to_cell(m, (0.26, 0.1))
        with pytest.raises(BoundsError):
            world_to_cell(m, (-0.01, 0.1))

    @pytest.mark.parametrize("point", [(1e308, 0.1), (-1.7e308, 0.1), (0.1, 1.7e308), (1.7e308, -1.7e308)])
    def test_a_point_any_distance_away_is_out_of_bounds(self, point):
        # the quotient is clipped before the floor, which would overflow on inf
        m = make_grid(["....."] * 5, origin=(-1e308, 0.0))
        with pytest.raises(BoundsError):
            world_to_cell(m, point)

    def test_cell_center(self):
        m = make_grid(["....."] * 5)
        assert cell_to_world(m, CellIndex(0, 0)) == (0.025, 0.025)

    def test_round_trip_all_cells(self):
        m = make_grid(["....."] * 5, resolution=0.13, origin=(-1.7, 2.9))
        for c in all_cells(m):
            assert world_to_cell(m, cell_to_world(m, c)) == c

    def test_cell_out_of_bounds(self):
        m = make_grid(["....."] * 5)
        with pytest.raises(BoundsError):
            cell_to_world(m, CellIndex(5, 0))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            GridMap(0.0, (0, 0), np.zeros((2, 2), dtype=np.uint8))


_RNG = np.random.default_rng(12)
# grids on which the disc's rows overhang the map, or whose occupancy is uniform
RUN_GRIDS = {
    "1x1 free": np.zeros((1, 1), dtype=np.uint8),
    "1x1 occupied": np.ones((1, 1), dtype=np.uint8),
    "1xn": (_RNG.random((1, 17)) < 0.2).astype(np.uint8),
    "nx1": (_RNG.random((17, 1)) < 0.2).astype(np.uint8) * 2,
    "one cell": np.pad(np.ones((1, 1), dtype=np.uint8), ((4, 6), (7, 3))),
    "random": (_RNG.random((11, 14)) < 0.08).astype(np.uint8) * _RNG.integers(1, 3, (11, 14)),
    "all free": np.zeros((9, 12), dtype=np.uint8),
    "all occupied": np.ones((9, 12), dtype=np.uint8),
}


class TestInflate:
    def test_single_obstacle_disc(self):
        rows = ["........."] * 4 + ["....#...."] + ["........."] * 4
        m = make_grid(rows)
        field = inflate(m, 2 * m.resolution)
        assert int((field.risk == 100).sum()) == 13
        assert field.at(CellIndex(4, 4)) == 100
        assert field.at(CellIndex(6, 4)) == 100
        assert field.at(CellIndex(6, 6)) == 0

    def test_zero_radius_marks_seeds_only(self):
        m = make_grid(["..#", ".?.", "..."])
        field = inflate(m, 0.0)
        assert int((field.risk == 100).sum()) == 2
        assert field.at(CellIndex(2, 0)) == 100
        assert field.at(CellIndex(1, 1)) == 100

    def test_all_free_is_all_zero(self):
        m = make_grid(["....."] * 5)
        assert not inflate(m, 0.3).risk.any()

    def test_unknown_seeds_like_occupied(self):
        occ = make_grid(["...", ".#.", "..."])
        unk = make_grid(["...", ".?.", "..."])
        r = 2 * occ.resolution
        assert np.array_equal(inflate(occ, r).risk, inflate(unk, r).risk)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            inflate(make_grid(["."]), -0.1)

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(11)
        m = GridMap(0.05, (0, 0), (rng.random((20, 20)) < 0.15).astype(np.uint8))
        prev = np.zeros((20, 20), dtype=bool)
        for cells in range(5):
            cur = inflate(m, cells * m.resolution).risk == 100
            assert (prev <= cur).all()
            prev = cur

    @pytest.mark.parametrize("size,density,seed", [
        (8, 0.2, 0), (16, 0.1, 1), (32, 0.05, 2),
        # one row, one column, not square; and a 3 x 2 grid, which the reach
        # of the larger radii (up to 5 cells) exceeds in both directions
        pytest.param((1, 13), 0.3, 3, id="1x13"),
        pytest.param((13, 1), 0.3, 4, id="13x1"),
        pytest.param((7, 19), 0.15, 5, id="7x19"),
        pytest.param((3, 2), 0.3, 7, id="3x2"),
    ])
    def test_matches_naive_all_pairs(self, size, density, seed):
        """`size` is a square side or a (height, width) pair."""
        shape = (size, size) if isinstance(size, int) else size
        rng = np.random.default_rng(seed)
        m = GridMap(0.05, (0, 0), (rng.random(shape) < density).astype(np.uint8))
        for cells in range(5):
            radius = cells * m.resolution
            assert np.array_equal(inflate(m, radius).risk, naive_inflate(m, radius))

    @pytest.mark.parametrize("shape,seed", [((16, 16), 1), ((3, 2), 7), ((7, 19), 5)])
    def test_cell_risk_is_inflate_at_every_cell(self, shape, seed):
        rng = np.random.default_rng(seed)
        m = GridMap(0.05, (0, 0), (rng.random(shape) < 0.1).astype(np.uint8) * rng.integers(1, 3, shape))
        for radius in (0.0, 0.05, 0.12, 0.25):
            field = inflate(m, radius)
            assert all(cell_risk(m, c, radius) == field.at(c) for c in all_cells(m))

    @pytest.mark.parametrize("resolution", [0.1, 0.05, 1 / 3], ids=["0.1", "0.05", "1/3"])
    @pytest.mark.parametrize("cells", list(RUN_GRIDS.values()), ids=list(RUN_GRIDS))
    def test_row_runs_match_both_oracles(self, cells, resolution):
        """The row-run dilation against the all-pairs check and against scipy's
        dilation by the `_disc` footprint, and `cell_risk` at every cell."""
        m = GridMap(resolution, (0, 0), cells)
        # in cells: none, below one, exactly 1, 2 and 3 (the `<=` boundary), between two, 5 and more
        for n_cells in (0, 0.4, 1, 1.5, 2, 2.7, 3, 5, 6.3):
            radius = n_cells * resolution
            field = inflate(m, radius)
            reach, disc = _disc(resolution, radius)
            footprint = np.zeros((2 * reach + 1, 2 * reach + 1), dtype=bool)
            footprint[tuple(np.array(disc).T)] = True
            dilated = ndimage.binary_dilation(m.cells != CellState.FREE, structure=footprint)
            assert np.array_equal(field.risk, naive_inflate(m, radius))
            assert np.array_equal(field.risk, dilated * RISK_MAX)
            assert all(cell_risk(m, c, radius) == field.at(c) for c in all_cells(m))


class TestRiskField:
    @pytest.mark.parametrize("risk", [
        np.array([[0, 101]]), np.array([[-1, 0]]), np.array([[300, 0]]),
        np.array([[0.0, 0.5]]), np.array([[0.0, np.nan]]),
    ], ids=["101", "-1", "300", "0.5", "nan"])
    def test_a_value_a_byte_cannot_hold_is_refused(self, risk):
        with pytest.raises(ValueError):
            RiskField(0.1, (0.0, 0.0), risk)

    def test_an_integer_array_in_range_becomes_read_only_c_ordered_bytes(self):
        values = np.asfortranarray(np.array([[0, 100, 7], [RISK_MAX, 1, 0]], dtype=np.int64))
        field = RiskField(0.1, (0.0, 0.0), values)
        assert field.risk.dtype == np.uint8 and field.risk.flags.c_contiguous and not field.risk.flags.writeable
        assert np.array_equal(field.risk, values) and field.at(CellIndex(2, 0)) == 7
        assert type(field.at(CellIndex(1, 0))) is int


class TestNeighborhoodCost:
    """Square-window sums through `window_sums`, against `naive_window_sum`."""

    def test_uniform_window(self):
        assert window_sums(np.ones((5, 5), dtype=np.int64), 1).tolist() == [[9] * 3] * 3

    def test_zero_radius_is_cell_value(self):
        values = np.arange(25).reshape(5, 5)
        assert np.array_equal(window_sums(values, 0), values)

    def test_matches_naive_loops_exhaustively(self):
        # zero-padded by r, each window sum is the neighborhood sum clipped to the array
        rng = np.random.default_rng(7)
        values = rng.integers(0, 100, size=(16, 16))
        for r in (1, 2, 3):
            sums = window_sums(np.pad(values, r), r)
            assert sums.shape == values.shape
            for row in range(16):
                for col in range(16):
                    assert sums[row, col] == naive_window_sum(values, col, row, r)

    def test_a_rectangular_array_gives_one_sum_per_window(self):
        rng = np.random.default_rng(8)
        values = rng.integers(0, 100, size=(9, 13))
        sums = window_sums(values, 2)
        assert sums.shape == (5, 9)
        for i in range(5):
            for j in range(9):
                assert sums[i, j] == naive_window_sum(values, j + 2, i + 2, 2)

    def test_a_sum_that_fits_int64_is_exact_where_the_table_wraps(self):
        # column 0 sums to 2**64, so the table's running sums wrap past it; the
        # windows right of column 0 do not reach it and are exact all the same
        rng = np.random.default_rng(9)
        values = rng.integers(-100, 100, size=(4, 7))
        values[:, 0] = 2**62
        assert np.array_equal(window_sums(values, 0), values)
        sums = window_sums(values, 1)
        for i in range(2):
            for j in range(1, 5):
                assert sums[i, j] == naive_window_sum(values, j + 1, i + 1, 1)


class TestSerialization:
    def test_two_by_two_document(self):
        m = make_grid([".#", "?."])
        assert save_grid(m) == "gridmap v1 2 2 0.05 0.0 0.0\n.#\n?.\n"

    def test_round_trip_random_map(self):
        rng = np.random.default_rng(13)
        cells = rng.integers(0, 3, size=(100, 100)).astype(np.uint8)
        m = GridMap(0.05, (-2.5, 1.25), cells)
        loaded = load_grid(save_grid(m))
        assert loaded == m
        assert save_grid(loaded) == save_grid(m)

    def test_save_load_save_byte_identical(self):
        doc = "gridmap v1 3 2 0.1 0.0 -1.5\n.#?\n...\n"
        assert save_grid(load_grid(doc)) == doc

    def test_short_row_names_line(self):
        doc = "gridmap v1 3 2 0.1 0.0 0.0\n.#\n...\n"
        with pytest.raises(GridFormatError) as err:
            load_grid(doc)
        assert err.value.line == 2

    def test_unknown_glyph_names_line(self):
        doc = "gridmap v1 3 2 0.1 0.0 0.0\n.#?\n.X.\n"
        with pytest.raises(GridFormatError) as err:
            load_grid(doc)
        assert err.value.line == 3

    def test_first_bad_line_wins_over_later_glyphs(self):
        # a short row on line 3 comes before the unknown glyph on line 4
        doc = "gridmap v1 3 3 0.1 0.0 0.0\n...\n..\n.X.\n"
        with pytest.raises(GridFormatError) as err:
            load_grid(doc)
        assert err.value.line == 3 and "row has 2 glyphs" in str(err.value)

    def test_non_ascii_glyph_names_line_and_glyph(self):
        for glyph in ("é", "Ā", "█", "\U0001f37d"):
            with pytest.raises(GridFormatError) as err:
                load_grid(f"gridmap v1 3 2 0.1 0.0 0.0\n...\n.{glyph}.\n")
            assert err.value.line == 3 and f"unknown glyph {glyph!r}" in str(err.value)

    def test_malformed_header(self):
        with pytest.raises(GridFormatError) as err:
            load_grid("gridmap v2 1 1 0.1 0 0\n.\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("header", [
        "gridmap v1 3 2 nan 0.0 0.0",
        "gridmap v1 3 2 inf 0.0 0.0",
        "gridmap v1 3 2 0.1 nan 0.0",
        "gridmap v1 3 2 0.1 0.0 -inf",
        # the far corner, origin + size * resolution, overflows
        "gridmap v1 3 2 1e308 0.0 0.0",
        "gridmap v1 3 2 1e307 1.7e308 0.0",
        "gridmap v1 3 2 1e308 0.0 -1e308",
    ])
    def test_a_header_that_is_not_a_finite_map_names_line_1(self, header):
        with pytest.raises(GridFormatError) as err:
            load_grid(f"{header}\n...\n...\n")
        assert err.value.line == 1 and "must be finite" in str(err.value)

    def test_a_width_beyond_the_float_range_names_line_1(self):
        with pytest.raises(GridFormatError) as err:
            load_grid(f"gridmap v1 {10**400} 1 0.1 0.0 0.0\n.\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("origin", [2.0**60, -(2.0**60), 2.0**1019, 1.7e308])
    def test_a_resolution_not_above_16_ulps_of_the_largest_coordinate_names_line_1(self, origin):
        bound = 16 * math.ulp(origin)  # the far corner of these 3 x 2 maps lies in the same binade
        with pytest.raises(GridFormatError) as err:
            load_grid(f"gridmap v1 3 2 {bound!r} {origin!r} 0.0\n...\n...\n")
        assert err.value.line == 1 and "16 ulps" in str(err.value)
        # just above it, each cell centre rounds by less than a tenth of a cell
        res = math.nextafter(bound, math.inf)
        grid = load_grid(f"gridmap v1 3 2 {res!r} {origin!r} 0.0\n...\n...\n")
        for i in range(3):
            exact = Fraction(origin) + (i + Fraction(1, 2)) * Fraction(res)
            assert abs(Fraction(grid.origin[0] + (i + 0.5) * res) - exact) < Fraction(res) / 10

    def test_row_count_mismatch(self):
        with pytest.raises(GridFormatError):
            load_grid("gridmap v1 1 3 0.1 0.0 0.0\n.\n.\n")

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        m = GridMap(0.05, (0.0, 0.0), rng.integers(0, 3, size=(h, w)).astype(np.uint8))
        assert load_grid(save_grid(m)) == m


def test_grid_cells_are_immutable():
    m = make_grid(["..", ".."])
    with pytest.raises(ValueError):
        m.cells[0, 0] = 1
