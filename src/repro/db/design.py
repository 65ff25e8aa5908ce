"""The placement database facade.

:class:`Design` ties together floorplan, library, cell instances and
netlist, and owns the invariant that *every placed cell of height h is
registered in exactly the h segment cell lists it overlaps* (paper
Section 2.1.2).  All placement state changes must go through
:meth:`Design.place` / :meth:`Design.unplace` / :meth:`Design.shift_x`
so that the segment lists never go stale.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.db.cell import Cell
from repro.db.floorplan import Floorplan
from repro.db.journal import Journal, Transaction
from repro.db.library import CellMaster, Library
from repro.db.netlist import Netlist
from repro.db.segment import Segment
from repro.geometry import Rect


class PlacementError(Exception):
    """Raised when a placement operation violates a legality constraint."""


class Design:
    """A placement problem instance plus its mutable placement state."""

    def __init__(
        self,
        floorplan: Floorplan,
        library: Library | None = None,
        netlist: Netlist | None = None,
        name: str = "design",
    ) -> None:
        self.name = name
        self.floorplan = floorplan
        self.library = library if library is not None else Library()
        self.netlist = netlist if netlist is not None else Netlist()
        self.cells: list[Cell] = []
        self._next_cell_id = 0
        #: Active undo log (set by :class:`~repro.db.journal.Transaction`);
        #: when not ``None`` every placement mutation is journaled.
        self.journal: Journal | None = None
        #: Observer attached to newly created journals (fault injection /
        #: mutation counting; see :mod:`repro.testing.faults`).
        self.journal_hook = None

    def transaction(self) -> Transaction:
        """An atomic mutation scope: roll back on exception, else commit.

        Nested transactions are savepoints on the outermost journal; see
        :class:`~repro.db.journal.Transaction`.
        """
        return Transaction(self)

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------
    def add_cell(
        self,
        master: CellMaster,
        gp_x: float = 0.0,
        gp_y: float = 0.0,
        name: str | None = None,
        fixed: bool = False,
        region: int | None = None,
    ) -> Cell:
        """Create a new unplaced cell instance.

        The global-placement position ``(gp_x, gp_y)`` is the position the
        legalizer will try to preserve.  ``region`` assigns the cell to a
        fence region of the floorplan.
        """
        cell = Cell(
            id=self._next_cell_id,
            name=name if name is not None else f"c{self._next_cell_id}",
            master=master,
            gp_x=gp_x,
            gp_y=gp_y,
            fixed=fixed,
            region=region,
        )
        old_next = self._next_cell_id
        self._next_cell_id += 1
        self.cells.append(cell)
        if self.journal is not None:
            self.journal.note_cell_added(cell, old_next, site="design.add_cell")
        return cell

    def movable_cells(self) -> Iterator[Cell]:
        """All non-fixed cells."""
        return (c for c in self.cells if not c.fixed)

    def placed_cells(self) -> Iterator[Cell]:
        """All cells with a current position."""
        return (c for c in self.cells if c.is_placed)

    # ------------------------------------------------------------------
    # Placement state changes
    # ------------------------------------------------------------------
    def segments_of(self, cell: Cell) -> list[Segment]:
        """The segments a placed cell overlaps, bottom row first."""
        if cell.x is None or cell.y is None:
            raise PlacementError(f"cell {cell.name!r} is not placed")
        segs = []
        for row in cell.rows_spanned():
            seg = self.floorplan.segment_containing_span(row, cell.x, cell.width)
            if seg is None:
                raise PlacementError(
                    f"cell {cell.name!r} at ({cell.x},{cell.y}) is not "
                    f"contained in a segment of row {row}"
                )
            segs.append(seg)
        return segs

    def place(
        self,
        cell: Cell,
        x: int,
        y: int,
        power_aligned: bool = True,
        validate: bool = True,
    ) -> None:
        """Place *cell* with its lower-left corner at site ``(x, y)``.

        With ``validate`` (the default) the position is checked for
        containment, rail alignment and overlap first and a
        :class:`PlacementError` is raised on a violation, leaving the cell
        unplaced.
        """
        if cell.is_placed:
            raise PlacementError(f"cell {cell.name!r} is already placed")
        if validate and not self.can_place(cell, x, y, power_aligned=power_aligned):
            raise PlacementError(
                f"cannot place cell {cell.name!r} ({cell.width}x{cell.height}) "
                f"at ({x},{y})"
            )
        cell.x = x
        cell.y = y
        segs = self.segments_of(cell)
        for seg in segs:
            seg.insert_cell(cell)
        if self.journal is not None:
            self.journal.note_place(cell, tuple(segs), site="design.place")

    def unplace(self, cell: Cell) -> None:
        """Remove *cell* from the placement, deregistering it everywhere."""
        if not cell.is_placed:
            raise PlacementError(f"cell {cell.name!r} is not placed")
        old_x, old_y = cell.x, cell.y
        segs = self.segments_of(cell)
        indices = tuple(seg.index_of(cell) for seg in segs)
        for seg in segs:
            seg.remove_cell(cell)
        cell.x = None
        cell.y = None
        if self.journal is not None:
            self.journal.note_unplace(
                cell, tuple(segs), indices, old_x, old_y, site="design.unplace"
            )

    def shift_x(self, cell: Cell, new_x: int) -> None:
        """Move a placed cell horizontally without changing its row.

        Used by the realization step (paper Algorithm 2), which only ever
        shifts cells within their segments while preserving the relative
        cell order — so no re-registration is needed.
        """
        if cell.x is None:
            raise PlacementError(f"cell {cell.name!r} is not placed")
        old_x = cell.x
        cell.x = new_x
        if self.journal is not None:
            self.journal.note_shift_x(cell, old_x, site="design.shift_x")

    # ------------------------------------------------------------------
    # Occupancy queries
    # ------------------------------------------------------------------
    def can_place(
        self,
        cell: Cell,
        x: int,
        y: int,
        power_aligned: bool = True,
        ignore: frozenset[int] | None = None,
    ) -> bool:
        """True when placing *cell* at ``(x, y)`` would be legal.

        ``ignore`` is a set of cell ids excluded from the overlap check
        (used when re-placing a cell near its old position).
        """
        h = cell.height
        if y < 0 or y + h > self.floorplan.num_rows:
            return False
        if power_aligned and not self.row_compatible(cell, y):
            return False
        for row in range(y, y + h):
            seg = self.floorplan.segment_containing_span(row, x, cell.width)
            if seg is None or seg.region != cell.region:
                return False
            for other in seg.cells_overlapping(x, x + cell.width):
                if other is cell:
                    continue
                if ignore is not None and other.id in ignore:
                    continue
                return False
        return True

    def orientation_of(self, cell: Cell) -> str:
        """Vertical flip of a placed cell: ``"N"`` (natural) or ``"FS"``.

        Odd-height cells are flipped whenever their natural bottom rail
        disagrees with the row's (paper Figure 1(b)); even-height cells
        are only ever placed on matching rows, so they are always ``N``.
        """
        if cell.y is None:
            raise PlacementError(f"cell {cell.name!r} is not placed")
        if cell.master.needs_rail_alignment:
            return "N"
        from repro.db.library import Rail

        nominal = cell.master.bottom_rail or Rail.GND
        row_rail = self.floorplan.rows[cell.y].bottom_rail
        return "N" if row_rail is nominal else "FS"

    def row_compatible(self, cell: Cell, y: int) -> bool:
        """True when row *y* satisfies the power-rail rule for *cell*.

        Odd-height cells can be flipped onto any row; even-height cells
        need a matching bottom rail (paper Section 2, constraint 4).
        """
        if not cell.master.needs_rail_alignment:
            return True
        assert cell.master.bottom_rail is not None
        return self.floorplan.row_allows_bottom(y, cell.master.bottom_rail)

    def cells_overlapping_rect(
        self, rect: Rect, ignore: frozenset[int] | None = None
    ) -> list[Cell]:
        """Placed cells whose area intersects *rect* (each cell once)."""
        seen: set[int] = set()
        out: list[Cell] = []
        row_lo = max(0, int(rect.y))
        row_hi = min(self.floorplan.num_rows, int(-(-rect.y1 // 1)))
        for row in range(row_lo, row_hi):
            for seg in self.floorplan.segments_in_row(row):
                if seg.x1 <= rect.x or seg.x0 >= rect.x1:
                    continue
                for c in seg.cells_overlapping(rect.x, rect.x1):
                    if c.id in seen or (ignore and c.id in ignore):
                        continue
                    seen.add(c.id)
                    out.append(c)
        return out

    # ------------------------------------------------------------------
    # Position snapping
    # ------------------------------------------------------------------
    def candidate_rows(
        self, cell: Cell, ty: float, power_aligned: bool = True
    ) -> list[int]:
        """Row start indices for *cell*, nearest to ``ty`` first.

        Only rows where the cell fits vertically (and, when
        ``power_aligned``, with matching rail parity) are yielded.
        """
        max_y = self.floorplan.num_rows - cell.height
        rows = [
            y
            for y in range(0, max_y + 1)
            if not power_aligned or self.row_compatible(cell, y)
        ]
        rows.sort(key=lambda y: (abs(y - ty), y))
        return rows

    def nearest_position(
        self, cell: Cell, tx: float, ty: float, power_aligned: bool = True
    ) -> tuple[int, int] | None:
        """Nearest site-aligned, rail-matching position to ``(tx, ty)``.

        This is the position Algorithm 1 first tries for every cell.  It
        ignores other cells (overlap is resolved later by MLL) but does
        require the footprint to lie in segments.  Returns ``None`` when
        the cell fits nowhere near ``tx`` on any compatible row.
        """
        for y in self.candidate_rows(cell, ty, power_aligned=power_aligned):
            x = self._nearest_x_in_row(cell, int(round(tx)), y)
            if x is not None:
                return x, y
        return None

    def _nearest_x_in_row(self, cell: Cell, tx: int, y: int) -> int | None:
        """Nearest x on row *y* whose footprint lies inside segments.

        Considers, in every row the cell would span, the segment nearest
        to ``tx``; the footprint must fit in one segment per row.
        """
        lo = 0
        hi = self.floorplan.row_width - cell.width
        if hi < lo:
            return None
        x = min(max(tx, lo), hi)

        def span_ok(cand: int) -> bool:
            for rr in range(y, y + cell.height):
                seg = self.floorplan.segment_containing_span(rr, cand, cell.width)
                if seg is None or seg.region != cell.region:
                    return False
            return True

        # Fast path: already inside matching segments in all rows.
        if span_ok(x):
            return x
        # Otherwise scan candidate x positions built from segment edges.
        best: int | None = None
        best_d = None
        for r in range(y, y + cell.height):
            for seg in self.floorplan.segments_in_row(r):
                if seg.width < cell.width or seg.region != cell.region:
                    continue
                cand = min(max(tx, seg.x0), seg.x1 - cell.width)
                if span_ok(cand):
                    d = abs(cand - tx)
                    if best_d is None or d < best_d:
                        best, best_d = cand, d
        return best

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot_positions(self) -> dict[int, tuple[int, int] | None]:
        """Current position of every cell, by cell id."""
        return {
            c.id: ((c.x, c.y) if c.is_placed else None) for c in self.cells
        }

    def reset_placement(self) -> None:
        """Unplace every cell (segment lists become empty)."""
        for seg in self.floorplan.segments:
            seg.cells.clear()
        for c in self.cells:
            c.x = None
            c.y = None

    def restore_positions(
        self, snapshot: dict[int, tuple[int, int] | None]
    ) -> None:
        """Restore a snapshot taken with :meth:`snapshot_positions`."""
        self.reset_placement()
        by_id = {c.id: c for c in self.cells}
        for cid, pos in snapshot.items():
            if pos is not None:
                cell = by_id[cid]
                cell.x, cell.y = pos
                for seg in self.segments_of(cell):
                    seg.insert_cell(cell)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def density(self) -> float:
        """Total movable+fixed cell area over placeable area."""
        cell_area = sum(c.width * c.height for c in self.cells)
        return cell_area / max(1, self.floorplan.placeable_area())

    def hpwl_um(self, use_gp: bool = False) -> float:
        """Total netlist HPWL in microns."""
        return self.netlist.hpwl_um(
            self.floorplan.site_width_um,
            self.floorplan.site_height_um,
            use_gp=use_gp,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(1 for c in self.cells if c.is_placed)
        return (
            f"Design({self.name!r}, {len(self.cells)} cells "
            f"({placed} placed), {self.floorplan!r})"
        )


def build_design(
    floorplan: Floorplan,
    cell_specs: Iterable[tuple[CellMaster, float, float]],
    library: Library | None = None,
    name: str = "design",
) -> Design:
    """Convenience constructor: a design from (master, gp_x, gp_y) triples."""
    design = Design(floorplan, library=library, name=name)
    for master, gx, gy in cell_specs:
        design.add_cell(master, gp_x=gx, gp_y=gy)
    return design
