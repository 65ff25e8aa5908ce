"""The Multi-row Local Legalization primitive (paper Section 4).

``MultiRowLocalLegalizer.try_place`` attempts to insert one unplaced
target cell near a desired position: it extracts a local region around
the position, enumerates every valid insertion point, evaluates them, and
realizes the cheapest one.  On failure (no feasible insertion point) the
design is left untouched — the abort semantics Algorithm 1 relies on.
The realization step runs inside a :class:`~repro.db.journal.Transaction`,
so the guarantee also holds under *exceptions*: a mid-flight
:class:`~repro.core.realization.RealizationError` (or any injected
fault) rolls back to the exact pre-call state before propagating.  With
``config.audit`` enabled the realized region is additionally re-checked
by the independent checker and rolled back on any violation
(:class:`AuditError`).

The same primitive powers the incremental use cases the paper motivates
(cell moves with instant legalization, gate sizing, buffer insertion);
see :mod:`repro.apps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.bounds import compute_bounds
from repro.core.config import EvaluationMode, LegalizerConfig
from repro.core.enumeration import enumerate_insertion_points
from repro.core.evaluation import EvaluatedPoint, evaluate_insertion_point
from repro.core.intervals import build_insertion_intervals
from repro.core.local_region import LocalRegion, extract_local_region
from repro.core.realization import realize_insertion
from repro.db.cell import Cell
from repro.db.design import Design
from repro.db.journal import Transaction
from repro.geometry import Rect

if TYPE_CHECKING:
    from repro.checker.legality import Violation


class AuditError(Exception):
    """The post-realization legality audit found a violation.

    Raised only after the transactional journal has already rolled the
    offending insertion back: the design is in its pre-call state when
    this propagates.  Carries the checker's findings in ``violations``.
    """

    def __init__(
        self, message: str, violations: list["Violation"] | None = None
    ) -> None:
        super().__init__(message)
        self.violations = violations if violations is not None else []


@dataclass(frozen=True, slots=True)
class MllResult:
    """Outcome of one MLL invocation."""

    success: bool
    num_insertion_points: int = 0
    chosen: EvaluatedPoint | None = None

    @property
    def cost(self) -> float:
        """Estimated cost of the realized insertion (microns)."""
        return self.chosen.cost if self.chosen is not None else math.inf


class MultiRowLocalLegalizer:
    """MLL bound to one design and one configuration.

    Assign an :class:`~repro.core.instrumentation.MllTelemetry` to
    ``telemetry`` to record per-call observations; the default (``None``)
    costs nothing.
    """

    def __init__(self, design: Design, config: LegalizerConfig | None = None) -> None:
        self.design = design
        self.config = config if config is not None else LegalizerConfig()
        self.telemetry = None

    def window_for(self, target: Cell, x: float, y: float) -> Rect:
        """The local-region window of Section 3: lower-left corner at
        ``(x - Rx, y - Ry)``, size ``(2Rx + w_t) x (2Ry + h_t)``."""
        cfg = self.config
        return Rect(
            math.floor(x) - cfg.rx,
            math.floor(y) - cfg.ry,
            2 * cfg.rx + target.width,
            2 * cfg.ry + target.height,
        )

    def try_place(self, target: Cell, x: float, y: float) -> MllResult:
        """Insert *target* as close to ``(x, y)`` as possible.

        Returns a successful :class:`MllResult` and mutates the design
        when a feasible insertion point exists; otherwise returns a
        failure result and changes nothing.
        """
        if target.is_placed:
            raise ValueError(f"target {target.name!r} is already placed")
        if self.telemetry is not None:
            return self._try_place_instrumented(target, x, y)
        return self._try_place(target, x, y)

    def _try_place_instrumented(
        self, target: Cell, x: float, y: float
    ) -> MllResult:
        """try_place wrapped with telemetry recording."""
        import time

        from repro.core.instrumentation import MllCallRecord

        t0 = time.perf_counter()
        region_cells: list[tuple[Cell, int | None]] = []

        def capture(region: LocalRegion) -> None:
            region_cells.extend((c, c.x) for c in region.cells)

        result = self._try_place(target, x, y, on_region=capture)
        pushed = sum(1 for c, old_x in region_cells if c.x != old_x)
        self.telemetry.record(
            MllCallRecord(
                success=result.success,
                target_width=target.width,
                target_height=target.height,
                local_cells=len(region_cells),
                insertion_points=result.num_insertion_points,
                cells_pushed=pushed,
                cost_um=result.cost if result.success else float("nan"),
                runtime_s=time.perf_counter() - t0,
            )
        )
        return result

    def _try_place(
        self,
        target: Cell,
        x: float,
        y: float,
        on_region: Callable[[LocalRegion], None] | None = None,
    ) -> MllResult:
        design = self.design
        cfg = self.config

        region = extract_local_region(
            design, self.window_for(target, x, y), region_id=target.region
        )
        if on_region is not None:
            on_region(region)
        if not region.segments:
            return MllResult(success=False)
        evaluated = self._evaluate_region(region, target, x, y, cfg.evaluation)
        if not evaluated:
            return MllResult(success=False)

        best: EvaluatedPoint | None = None
        for ev in evaluated:
            if self._exceeds_displacement_cap(ev, x, y):
                continue
            if best is None or ev.cost < best.cost:
                best = ev
        if best is None:
            return MllResult(success=False, num_insertion_points=len(evaluated))
        # Transactional realization: any exception below (a
        # RealizationError, an audit violation, an injected fault, even a
        # KeyboardInterrupt) rolls the design back to the exact pre-call
        # state before propagating.
        with Transaction(design):
            realize_insertion(design, region, best.point, target, best.target_x)
            if cfg.audit:
                self._audit(region, target)
        return MllResult(
            success=True, num_insertion_points=len(evaluated), chosen=best
        )

    def _evaluate_region(
        self,
        region: LocalRegion,
        target: Cell,
        desired_x: float,
        desired_y: float,
        mode: EvaluationMode,
    ) -> list[EvaluatedPoint]:
        """bounds → intervals → enumeration → evaluation, one
        :class:`EvaluatedPoint` per insertion point in enumeration order."""
        fp = self.design.floorplan
        row_ok = self._row_predicate(target)
        bounds = compute_bounds(region)
        feasible, discarded = build_insertion_intervals(
            region, bounds, target.width
        )
        points = enumerate_insertion_points(
            region, feasible, discarded, target.height, row_ok
        )
        return [
            evaluate_insertion_point(
                region,
                point,
                target,
                desired_x=desired_x,
                desired_y=desired_y,
                site_width_um=fp.site_width_um,
                site_height_um=fp.site_height_um,
                mode=mode,
            )
            for point in points
        ]

    def _audit(self, region: LocalRegion, target: Cell) -> None:
        """Re-check the realized region with the independent checker.

        Runs inside the realization transaction so a violation raises
        :class:`AuditError` *after* rollback restored the pre-call state.
        """
        from repro.checker.legality import verify_cells

        cells = [target]
        cells.extend(c for c in region.cells if c is not target)
        violations = verify_cells(
            self.design, cells, power_aligned=self.config.power_aligned
        )
        if violations:
            head = "; ".join(str(v) for v in violations[:5])
            raise AuditError(
                f"post-realization audit of {target.name!r} found "
                f"{len(violations)} violations (insertion rolled back): "
                f"{head}",
                violations,
            )

    def _row_predicate(
        self, target: Cell
    ) -> Callable[[int], bool] | None:
        """Bottom-row filter combining power alignment and the optional
        Wu & Chu double-row restriction; None when nothing applies."""
        cfg = self.config
        design = self.design
        checks: list[Callable[[int], bool]] = []
        if cfg.power_aligned and target.master.needs_rail_alignment:
            checks.append(lambda r: design.row_compatible(target, r))
        if cfg.double_row_parity is not None and target.height == 2:
            parity = cfg.double_row_parity
            checks.append(lambda r: r % 2 == parity)
        if not checks:
            return None
        return lambda r: all(check(r) for check in checks)

    def _exceeds_displacement_cap(
        self, ev: EvaluatedPoint, desired_x: float, desired_y: float
    ) -> bool:
        """True when the target's own displacement breaks the optional
        per-call cap (config.max_target_displacement_um)."""
        cap = self.config.max_target_displacement_um
        if cap is None:
            return False
        fp = self.design.floorplan
        own = fp.displacement_um(
            ev.target_x - desired_x, ev.bottom_row - desired_y
        )
        return own > cap

    def evaluate_candidates(
        self,
        target: Cell,
        x: float,
        y: float,
        mode: EvaluationMode | None = None,
        apply_displacement_cap: bool = True,
    ) -> list[EvaluatedPoint]:
        """All evaluated insertion points near ``(x, y)``, without placing.

        A read-only variant of :meth:`try_place` used by analyses and the
        figure benchmarks.  By default the optional per-call displacement
        cap (``config.max_target_displacement_um``) filters the candidate
        list exactly like :meth:`try_place` rejects points — so the two
        methods agree on feasibility.  Pass
        ``apply_displacement_cap=False`` to see the uncapped candidate
        set (the figure benchmarks sweep cost over *all* points).
        """
        if target.is_placed:
            raise ValueError(f"target {target.name!r} is already placed")
        design = self.design
        cfg = self.config
        region = extract_local_region(
            design, self.window_for(target, x, y), region_id=target.region
        )
        if not region.segments:
            return []
        evaluated = self._evaluate_region(
            region, target, x, y, mode if mode is not None else cfg.evaluation
        )
        if apply_displacement_cap:
            evaluated = [
                ev
                for ev in evaluated
                if not self._exceeds_displacement_cap(ev, x, y)
            ]
        return evaluated
