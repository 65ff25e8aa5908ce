"""Unit tests for leftmost/rightmost placements (paper Fig. 6)."""

import random

import pytest

from repro.core import compute_bounds, extract_local_region
from repro.geometry import Rect
from tests.conftest import add_placed, make_design, random_legal_design


def region_of(design, rect):
    return extract_local_region(design, rect)


class TestSingleRow:
    def test_compaction_both_ways(self):
        d = make_design(num_rows=2, row_width=10)
        a = add_placed(d, 2, 1, 2, 0)
        b = add_placed(d, 3, 1, 5, 0)
        bounds = compute_bounds(region_of(d, Rect(0, 0, 10, 1)))
        assert bounds.x_left(a.id) == 0
        assert bounds.x_left(b.id) == 2  # packed against a
        assert bounds.x_right(b.id) == 7  # 10 - 3
        assert bounds.x_right(a.id) == 5  # 7 - 2

    def test_bounds_respect_local_segment_not_row(self):
        d = make_design(num_rows=2, row_width=20)
        add_placed(d, 2, 1, 4, 0, fixed=True)  # run split at [4, 6)
        a = add_placed(d, 2, 1, 10, 0)
        region = region_of(d, Rect(2, 0, 16, 1))
        bounds = compute_bounds(region)
        assert bounds.x_left(a.id) == region.segments[0].x0
        assert bounds.x_left(a.id) >= 6

    def test_single_cell_full_range(self):
        d = make_design(num_rows=1, row_width=12)
        a = add_placed(d, 3, 1, 5, 0)
        bounds = compute_bounds(region_of(d, Rect(0, 0, 12, 1)))
        assert bounds.x_left(a.id) == 0
        assert bounds.x_right(a.id) == 9


class TestMultiRowCoupling:
    def test_multi_row_cell_takes_tightest_row(self):
        # Fig. 6 flavor: m spans two rows; row 0 has a left neighbor,
        # row 1 is empty, so the row-0 chain binds m's leftmost position.
        d = make_design(num_rows=2, row_width=12)
        a = add_placed(d, 3, 1, 0, 0)
        m = add_placed(d, 2, 2, 6, 0)
        bounds = compute_bounds(region_of(d, Rect(0, 0, 12, 2)))
        assert bounds.x_left(m.id) == 3  # pushed by a, not by row 1
        assert bounds.x_right(m.id) == 10

    def test_chain_through_multi_row_cell(self):
        # a | m (2 rows) | b in the upper row: b's leftmost position must
        # account for m, whose leftmost accounts for a.
        d = make_design(num_rows=2, row_width=20)
        a = add_placed(d, 4, 1, 0, 0)
        m = add_placed(d, 2, 2, 6, 0)
        b = add_placed(d, 3, 1, 12, 1)
        bounds = compute_bounds(region_of(d, Rect(0, 0, 20, 2)))
        assert bounds.x_left(m.id) == 4
        assert bounds.x_left(b.id) == 6  # xL(m) + w(m)
        # Rightward: b binds m from the upper row.
        assert bounds.x_right(b.id) == 17
        assert bounds.x_right(m.id) == 15
        assert bounds.x_right(a.id) == 11


class TestInvariants:
    def test_current_position_within_bounds_randomized(self, rng):
        for trial in range(30):
            d = random_legal_design(random.Random(trial), n_cells=12)
            region = region_of(d, Rect(0, 0, 30, 8))
            bounds = compute_bounds(region)
            for c in region.cells:
                assert bounds.x_left(c.id) <= c.x <= bounds.x_right(c.id)

    def test_leftmost_placement_is_legal(self, rng):
        # Moving every cell to xL simultaneously must stay overlap-free
        # and in-segment (it is a placement, per the paper's definition).
        from repro.checker import verify_placement

        for trial in range(20):
            d = random_legal_design(random.Random(100 + trial), n_cells=12)
            region = region_of(d, Rect(0, 0, 30, 8))
            bounds = compute_bounds(region)
            for c in region.cells:
                d.shift_x(c, bounds.x_left(c.id))
            assert verify_placement(d, check_registration=False) == []

    def test_rightmost_placement_is_legal(self, rng):
        from repro.checker import verify_placement

        for trial in range(20):
            d = random_legal_design(random.Random(200 + trial), n_cells=12)
            region = region_of(d, Rect(0, 0, 30, 8))
            bounds = compute_bounds(region)
            for c in region.cells:
                d.shift_x(c, bounds.x_right(c.id))
            assert verify_placement(d, check_registration=False) == []

    @pytest.mark.parametrize(
        "row_width, cells, victim, new_x",
        [
            # Overlaps its right neighbour and breaks the order.
            pytest.param(10, [(3, 0), (3, 5)], 0, 6, id="overlap_out_of_order"),
            # Jumps past its neighbour without reordering the segment list.
            pytest.param(20, [(3, 0), (3, 5)], 0, 10, id="out_of_order"),
            # Overlaps its left neighbour but keeps the order.
            pytest.param(20, [(3, 0), (3, 5)], 1, 1, id="overlap_keeps_order"),
            # Sticks out past the segment end.
            pytest.param(20, [(4, 10)], 0, 18, id="past_segment_end"),
            # Unplaced after extraction.
            pytest.param(10, [(3, 0)], 0, None, id="unplaced"),
        ],
    )
    def test_corrupted_region_raises(self, row_width, cells, victim, new_x):
        d = make_design(num_rows=1, row_width=row_width)
        placed = [add_placed(d, w, 1, x, 0) for w, x in cells]
        region = region_of(d, Rect(0, 0, row_width, 1))
        placed[victim].x = new_x  # manual corruption after extraction
        with pytest.raises(ValueError, match="region placement is not legal"):
            compute_bounds(region)


class TestUnplacedValidation:
    def test_unplaced_cell_raises_value_error(self):
        # Regression: an unplaced cell in the region used to surface as a
        # bare TypeError from the (x, id) sort; it must be the same
        # "region placement is not legal" ValueError as other corruption.
        d = make_design(num_rows=1, row_width=10)
        a = add_placed(d, 3, 1, 0, 0)
        region = region_of(d, Rect(0, 0, 10, 1))
        a.x = None  # manual corruption after extraction
        with pytest.raises(ValueError, match="region placement is not legal"):
            compute_bounds(region)
        with pytest.raises(ValueError, match=repr(a.name)):
            compute_bounds(region)
