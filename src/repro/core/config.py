"""Legalizer configuration.

The defaults mirror the paper's implementation choices: window half-sizes
``Rx = 30`` sites and ``Ry = 5`` rows (Section 3), approximate insertion
point evaluation using neighboring cells only (Section 5.2), and power
rail alignment enforced (the relaxation experiment of Section 6 turns it
off).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum


def _audit_default() -> bool:
    """Default of :attr:`LegalizerConfig.audit`.

    Reads the ``REPRO_AUDIT`` environment variable so test harnesses can
    switch the post-realization legality audit on globally (the repo's
    ``tests/conftest.py`` does) while production runs default to off.
    """
    return os.environ.get("REPRO_AUDIT", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def _coerce_site_count(name: str, value: object) -> int:
    """Normalize a window half-size to an ``int`` number of sites.

    ``random.Random.randint`` (used for the retry amplitudes of
    Algorithm 1, ``Rand_x(k) ∈ [-Rx·(k-1), Rx·(k-1)]``) requires integer
    bounds, so a float config like ``rx=30.5`` would crash in retry round
    k >= 2.  Integral floats (``30.0``) and other integral numbers are
    coerced; anything fractional is a configuration error reported at
    construction time instead.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer number of sites")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(
        f"{name} must be an integral number of sites (got {value!r}); "
        f"retry amplitudes Rx·(k-1)/Ry·(k-1) feed random integer draws"
    )


class CellOrder(Enum):
    """Order in which Algorithm 1 processes cells.

    The paper processes cells "in an arbitrary order" (INPUT).  On small,
    dense dies placing tall cells first avoids fragmenting the vertical
    space they need (TALL_FIRST), at a small displacement cost for the
    single-row majority.
    """

    INPUT = "input"
    TALL_FIRST = "tall_first"


class EvaluationMode(Enum):
    """How an insertion point's cost and target position are computed."""

    APPROX = "approx"
    """Neighbor-only critical positions (paper Section 5.2, last
    paragraph) — O(h_t) per insertion point; the paper's default."""

    EXACT = "exact"
    """Full critical positions via longest-path propagation over the push
    chains — O(|C_W|) per insertion point, exact cost."""


@dataclass(frozen=True, slots=True)
class LegalizerConfig:
    """Tunable parameters of Algorithm 1 and MLL."""

    rx: int = 30
    """Horizontal window half-size in sites (paper: Rx = 30)."""

    ry: int = 5
    """Vertical window half-size in rows (paper: Ry = 5)."""

    power_aligned: bool = True
    """Enforce power-rail alignment of even-height cells (constraint 4).

    ``False`` reproduces the "Power Line Not Aligned" experiment."""

    evaluation: EvaluationMode = EvaluationMode.APPROX
    """Insertion point evaluation mode."""

    seed: int = 0
    """Seed of the retry-perturbation RNG (Algorithm 1 lines 9-17)."""

    order: CellOrder = CellOrder.INPUT
    """Cell processing order of the first pass."""

    max_rounds: int = 200
    """Safety bound on retry rounds before giving up on a design."""

    double_row_parity: int | None = None
    """Emulate Wu & Chu's restriction (paper ref [10], TCAD'16): double-
    row-height cells may only start on rows whose index has this parity
    (0 = even rows).  ``None`` (default) is the paper's unrestricted
    algorithm; the ablation bench quantifies what the restriction costs."""

    max_target_displacement_um: float | None = None
    """Optional cap on the target cell's own displacement per MLL call
    — the displacement-constrained instant legalization of the paper's
    ref [11] (Chow et al., ISPD 2014).  Insertion points that would move
    the target farther than this are rejected; MLL fails when none
    remain.  ``None`` (default) disables the cap, matching the paper."""

    quarantine: bool = False
    """Quarantine cells that exhaust the retry budget instead of
    raising :class:`~repro.core.legalizer.LegalizationError`.

    The paper's Algorithm 1 retries "until everything is placed"; its
    benchmarks always converge, so exhaustion is an abort there.  In a
    long-running service one pathological cell must not discard an
    otherwise-finished run: with ``quarantine=True`` the driver
    completes normally, reports the stuck cells in
    ``LegalizationResult.stuck`` (a :class:`~repro.core.legalizer.
    StuckCellReport` with per-cell coordinates and retry counts), and
    leaves every successfully placed cell in place — partial legality
    the caller can audit, persist, or feed back to a placer."""

    audit: bool = field(default_factory=_audit_default)
    """Run the independent legality checker over the realized region
    after every successful MLL insertion (:func:`repro.checker.
    verify_cells`).  A violation raises :class:`~repro.core.mll.
    AuditError` *after* the journal has rolled the insertion back, so a
    realization bug can never corrupt the design silently.  Defaults to
    the ``REPRO_AUDIT`` environment variable (the test suite switches it
    on); production runs default to off."""

    def __post_init__(self) -> None:
        # Normalize rx/ry first (frozen dataclass: go through the
        # descriptor machinery explicitly).
        object.__setattr__(self, "rx", _coerce_site_count("rx", self.rx))
        object.__setattr__(self, "ry", _coerce_site_count("ry", self.ry))
        if self.rx < 1 or self.ry < 0:
            raise ValueError("rx must be >= 1 and ry >= 0")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        if (
            self.max_target_displacement_um is not None
            and self.max_target_displacement_um < 0
        ):
            raise ValueError("max_target_displacement_um must be >= 0")
        if self.double_row_parity not in (None, 0, 1):
            raise ValueError("double_row_parity must be None, 0 or 1")
