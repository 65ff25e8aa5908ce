"""Property-based tests (hypothesis) on the core invariants.

Strategies build random *legal* placements plus a random target cell;
the properties assert the contracts the rest of the library depends on:

1. Legalization output is always legal and loses no cell.
2. Leftmost/rightmost bounds sandwich current positions and are
   themselves legal placements.
3. The scanline enumerates exactly the brute-force insertion point set.
4. Exact evaluation equals measured post-realization displacement.
5. MLL either succeeds legally or leaves the design bit-identical.
6. The exhaustive exact optimum equals the MILP optimum.
7. A quarantined serial run on a possibly infeasible instance completes,
   is deterministic, and leaves a legal partial placement.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import solve_local_milp
from repro.bench import GeneratorConfig, generate_design
from repro.checker import verify_placement
from repro.core import (
    EvaluationMode,
    Legalizer,
    LegalizerConfig,
    MultiRowLocalLegalizer,
    build_insertion_intervals,
    compute_bounds,
    enumerate_insertion_points,
    enumerate_insertion_points_bruteforce,
    extract_local_region,
    legalize,
)
from repro.db import Rail
from repro.geometry import Rect
from repro.testing.faults import design_state_digest
from tests.conftest import add_unplaced, random_legal_design

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


design_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_rows": st.sampled_from([3, 4, 6, 8]),
        "row_width": st.sampled_from([14, 20, 28]),
        "n_cells": st.integers(3, 16),
    }
)

target_params = st.fixed_dictionaries(
    {
        "w": st.integers(1, 4),
        "h": st.integers(1, 3),
        "fx": st.floats(0, 1),
        "fy": st.floats(0, 1),
    }
)


def build(params):
    return random_legal_design(
        random.Random(params["seed"]),
        num_rows=params["num_rows"],
        row_width=params["row_width"],
        n_cells=params["n_cells"],
    )


def add_target(design, tp):
    fp = design.floorplan
    rail = Rail.GND if tp["h"] % 2 == 0 else None
    tx = tp["fx"] * max(0, fp.row_width - tp["w"])
    ty = tp["fy"] * max(0, fp.num_rows - tp["h"])
    return add_unplaced(design, tp["w"], tp["h"], tx, ty, rail=rail), tx, ty


class TestLegalizationInvariant:
    @SETTINGS
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 120),
        density=st.floats(0.15, 0.7),
        power=st.booleans(),
    )
    def test_legalize_generated_designs(self, seed, n, density, power):
        design = generate_design(
            GeneratorConfig(num_cells=n, target_density=density, seed=seed)
        )
        result = legalize(
            design, LegalizerConfig(seed=seed, power_aligned=power)
        )
        assert result.placed == n
        assert verify_placement(design, power_aligned=power) == []


class TestBoundsInvariant:
    @SETTINGS
    @given(params=design_params)
    def test_bounds_sandwich_and_are_legal(self, params):
        design = build(params)
        fp = design.floorplan
        region = extract_local_region(
            design, Rect(0, 0, fp.row_width, fp.num_rows)
        )
        bounds = compute_bounds(region)
        for c in region.cells:
            assert bounds.x_left(c.id) <= c.x <= bounds.x_right(c.id)
        for c in region.cells:
            design.shift_x(c, bounds.x_left(c.id))
        assert verify_placement(design, check_registration=False) == []
        for c in region.cells:
            design.shift_x(c, bounds.x_right(c.id))
        assert verify_placement(design, check_registration=False) == []


class TestEnumerationEquivalence:
    @SETTINGS
    @given(params=design_params, tp=target_params)
    def test_scanline_equals_bruteforce(self, params, tp):
        design = build(params)
        fp = design.floorplan
        region = extract_local_region(
            design, Rect(0, 0, fp.row_width, fp.num_rows)
        )
        bounds = compute_bounds(region)
        feasible, discarded = build_insertion_intervals(region, bounds, tp["w"])
        scan = enumerate_insertion_points(region, feasible, discarded, tp["h"])
        brute = enumerate_insertion_points_bruteforce(region, feasible, tp["h"])
        assert sorted(p.key() for p in scan) == sorted(p.key() for p in brute)


class TestMllContract:
    @SETTINGS
    @given(params=design_params, tp=target_params, power=st.booleans())
    def test_success_is_legal_failure_is_noop(self, params, tp, power):
        design = build(params)
        target, tx, ty = add_target(design, tp)
        snapshot = design.snapshot_positions()
        mll = MultiRowLocalLegalizer(
            design,
            LegalizerConfig(rx=10, ry=3, power_aligned=power),
        )
        result = mll.try_place(target, tx, ty)
        if result.success:
            assert verify_placement(
                design, power_aligned=power, require_all_placed=False
            ) == []
            assert target.is_placed
        else:
            assert design.snapshot_positions() == snapshot


class TestOptimalityEquivalence:
    @SETTINGS
    @given(params=design_params, tp=target_params)
    def test_exact_mll_equals_milp(self, params, tp):
        design = build(params)
        target, tx, ty = add_target(design, tp)
        cfg = LegalizerConfig(rx=8, ry=3, evaluation=EvaluationMode.EXACT)
        mll = MultiRowLocalLegalizer(design, cfg)
        candidates = mll.evaluate_candidates(target, tx, ty)
        region = extract_local_region(design, mll.window_for(target, tx, ty))
        sol = solve_local_milp(design, region, target, tx, ty)
        if candidates:
            assert sol is not None
            assert abs(min(c.cost for c in candidates) - sol.cost_um) < 1e-6
        else:
            assert sol is None


class TestQuarantinedRun:
    @given(params=design_params, seed=st.integers(0, 1_000))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_deterministic_legal_partial_placement(self, params, seed):
        def run():
            design = build(params)
            rng = random.Random(seed)
            for _ in range(6):
                w, h = rng.choice(((1, 1), (2, 1), (3, 1), (2, 2)))
                add_unplaced(
                    design,
                    w,
                    h,
                    rng.uniform(0, params["row_width"] - w),
                    rng.uniform(0, params["num_rows"] - h),
                )
            # quarantine: a randomly infeasible instance must complete
            # (reporting its stuck cells) instead of raising
            # LegalizationError.
            result = Legalizer(
                design, LegalizerConfig(seed=seed, quarantine=True)
            ).run()
            stuck = tuple(s.cell_id for s in result.stuck.cells)
            return design, (result.placed, stuck, design_state_digest(design))

        design, first = run()
        _, second = run()
        assert first == second
        assert verify_placement(design, require_all_placed=False) == []
