"""Fault injection for the transactional mutation layer.

The journal (:mod:`repro.db.journal`) records every primitive design
mutation — each record is a *mutation site* at which a crash could
strike.  This harness turns those sites into a systematic test: arm a
design with a :class:`FaultInjector`, run any flow (``try_place``, an
app primitive, a whole engine reconcile), and the injector raises
:class:`InjectedFault` at the chosen site, *after* the mutation has been
applied and journaled — the worst possible moment.  The enclosing
transaction must then restore the design to a byte-identical pre-call
state, which :func:`design_state` / :func:`design_state_digest` make
checkable.

:func:`fault_sweep` automates the full protocol: count the sites of a
flow on a fresh design, then re-run the flow once per site with the
fault armed there, asserting state restoration each time.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.db.design import Design
from repro.db.journal import JournalEntry


class InjectedFault(RuntimeError):
    """A deliberately injected crash at a journaled mutation site."""

    def __init__(self, site: str, index: int) -> None:
        super().__init__(
            f"injected fault at mutation #{index} (site {site!r})"
        )
        self.site = site
        self.index = index


class FaultInjector:
    """Arm a design to raise at its ``trip_at``-th journaled mutation.

    Used as a context manager::

        with FaultInjector(design, trip_at=3) as inj:
            with pytest.raises(InjectedFault):
                mll.try_place(target, x, y)
        assert inj.tripped_site is not None

    ``trip_at=None`` never trips — the injector then just counts
    mutations (``seen``), which :func:`count_journaled_mutations` uses to
    size a sweep.  The hook attaches via ``design.journal_hook`` and is
    picked up by every :class:`~repro.db.journal.Transaction` opened
    while armed; rollbacks do not fire it, so undo operations are never
    counted or tripped.
    """

    def __init__(self, design: Design, trip_at: int | None) -> None:
        self.design = design
        self.trip_at = trip_at
        self.seen = 0
        self.tripped_site: str | None = None
        self.sites: list[str] = []

    # ------------------------------------------------------------------
    def _hook(self, entry: JournalEntry) -> None:
        self.seen += 1
        self.sites.append(entry.site)
        if self.trip_at is not None and self.seen == self.trip_at:
            self.tripped_site = entry.site
            raise InjectedFault(entry.site, self.seen)

    def __enter__(self) -> "FaultInjector":
        if self.design.journal_hook is not None:
            raise RuntimeError("design already has a journal hook armed")
        self.design.journal_hook = self._hook
        # A transaction may already be open (nested use): attach to the
        # live journal too.
        if self.design.journal is not None:
            self.design.journal.on_record = self._hook
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.design.journal_hook = None
        if self.design.journal is not None:
            self.design.journal.on_record = None
        return False


def count_journaled_mutations(
    design: Design, action: Callable[[], object]
) -> int:
    """Run *action* once, counting its journaled mutation sites.

    The action executes for real (mutations commit); run it on a
    scratch design you can discard or rebuild.
    """
    with FaultInjector(design, trip_at=None) as counter:
        action()
    return counter.seen


# ----------------------------------------------------------------------
# Worker fault modes (the shard coordinator's chaos monkey)
# ----------------------------------------------------------------------
#: Environment variable read by :func:`worker_fault_from_env`.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULT"

#: Fault modes: three break the worker or its shard computation, three
#: its link to the coordinator (see :class:`ShardFaultSpec`).
FAULT_MODES = ("crash", "hang", "raise", "drop", "stall", "dup")


class WorkerFault(RuntimeError):
    """Raised by the ``raise`` fault mode inside a shard attempt."""

    def __init__(self, shard_id: int, attempt: int) -> None:
        super().__init__(
            f"injected worker fault in shard {shard_id} (attempt {attempt})"
        )
        self.shard_id = shard_id
        self.attempt = attempt


@dataclass(frozen=True, slots=True)
class ShardFaultSpec:
    """A deliberate worker failure, armed per shard and per attempt.

    Where :class:`FaultInjector` crashes *mutations* to test the
    journal, this spec breaks *workers* to test the shard coordinator
    (:mod:`repro.engine.remote`).  A ``repro worker`` fires it around
    one leased task, so the coordinator sees exactly what a real OOM
    kill, hang, bug or network failure would produce.  The spec travels
    inside the pickled :class:`~repro.engine.shard_worker.ShardTask`
    (``legalize_sharded(fault=...)``), or is armed per worker
    (``WorkerConfig.fault`` or the ``REPRO_WORKER_FAULT`` environment
    variable); the task's spec wins.

    Modes:

    ``crash``
        ``os._exit(exitcode)`` right after the worker accepts the task,
        lease live: the process vanishes like an OOM kill, and the
        coordinator sees a dropped connection.
    ``hang``
        ``time.sleep(sleep_s)`` while heartbeats keep the lease alive:
        a wedged computation that only ``shard_timeout_s`` catches.
    ``raise``
        raise :class:`WorkerFault` inside the shard: the worker ships
        the traceback home as a failed attempt.
    ``drop``
        compute the shard, then reset the connection instead of
        delivering (a yanked cable); the worker reconnects.
    ``stall``
        stop heartbeating and sit on the finished result for
        ``sleep_s`` seconds: the lease expires, the shard requeues, and
        the late delivery is a duplicate the coordinator must drop.
    ``dup``
        deliver the result twice (a retransmit).

    ``attempts`` bounds the blast radius: the fault fires while the
    task's attempt number is ``<= attempts``, so ``attempts=1`` means
    "fail once, then recover" — the retry must then produce a result
    byte-identical to a fault-free run (same derived shard seed).
    """

    shard_id: int
    mode: str = "crash"
    attempts: int = 1
    sleep_s: float = 30.0
    exitcode: int = 13

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown worker fault mode {self.mode!r}")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")
        if self.sleep_s < 0:
            raise ValueError("sleep_s must be >= 0")

    # ------------------------------------------------------------------
    def armed_for(self, shard_id: int, attempt: int) -> bool:
        """Does this fault fire for *shard_id*'s *attempt*-th try?"""
        return shard_id == self.shard_id and attempt <= self.attempts

    def trip(self, shard_id: int, attempt: int) -> None:
        """Fire a process mode (call only when :meth:`armed_for` holds).

        Only a worker process calls this, before it computes the shard;
        the network modes are no-ops here (the worker's delivery path
        fires them).
        """
        if self.mode == "crash":
            os._exit(self.exitcode)
        elif self.mode == "hang":
            time.sleep(self.sleep_s)
        elif self.mode == "raise":
            raise WorkerFault(shard_id, attempt)


def worker_fault_from_env(env: str | None = None) -> ShardFaultSpec | None:
    """Parse a :class:`ShardFaultSpec` from ``REPRO_WORKER_FAULT``.

    Format: ``mode,shard=ID[,attempts=N][,sleep=S][,exitcode=E]``, e.g.
    ``crash,shard=0,attempts=1``.  Lets a real ``repro legalize
    --workers N`` run, or a ``repro worker``, inject faults without any
    code hook.  Returns ``None`` when the variable is unset/empty;
    raises :class:`ValueError` on a malformed value (a chaos experiment
    that silently does not run is worse than one that fails loudly).
    """
    raw = os.environ.get(WORKER_FAULT_ENV, "") if env is None else env
    raw = raw.strip()
    if not raw:
        return None
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    mode = parts[0]
    kwargs: dict[str, float | int] = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key == "shard":
            kwargs["shard_id"] = int(value)
        elif key == "attempts":
            kwargs["attempts"] = int(value)
        elif key == "sleep":
            kwargs["sleep_s"] = float(value)
        elif key == "exitcode":
            kwargs["exitcode"] = int(value)
        else:
            raise ValueError(
                f"unknown {WORKER_FAULT_ENV} key {key!r} in {raw!r}"
            )
    if "shard_id" not in kwargs:
        raise ValueError(
            f"{WORKER_FAULT_ENV} must name a shard, e.g. 'crash,shard=0'"
        )
    return ShardFaultSpec(mode=mode, **kwargs)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# State fingerprinting
# ----------------------------------------------------------------------
def design_state(design: Design) -> tuple:
    """A deep, comparison-friendly snapshot of all placement state.

    Covers every cell's position *and* master footprint, every segment's
    exact cell ordering, the cell roster, and the id counter — the state
    the transactional layer promises to restore.  Two designs with equal
    ``design_state`` are placement-indistinguishable.
    """
    cells = tuple(
        (c.id, c.name, c.width, c.height, c.x, c.y, c.fixed, c.region)
        for c in design.cells
    )
    segments = tuple(
        (seg.id, tuple(c.id for c in seg.cells))
        for seg in design.floorplan.segments
    )
    return (cells, segments, design._next_cell_id)


def design_state_digest(design: Design) -> str:
    """SHA-256 hex digest of :func:`design_state` — "byte-identical"."""
    return hashlib.sha256(repr(design_state(design)).encode()).hexdigest()


# ----------------------------------------------------------------------
# The sweep protocol
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FaultSweepReport:
    """Outcome of one :func:`fault_sweep`."""

    sites: int
    """Journaled mutation sites the reference run recorded."""

    tripped: list[str] = field(default_factory=list)
    """Site label tripped at each swept index, in order."""

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"FaultSweepReport(sites={self.sites})"


def fault_sweep(
    factory: Callable[[], tuple[Design, Callable[[], object]]],
    max_sites: int | None = None,
    stride: int = 1,
) -> FaultSweepReport:
    """Crash-consistency sweep: inject a fault at every mutation site.

    *factory* must return a fresh ``(design, action)`` pair each call,
    deterministic across calls (same seed → same mutation schedule).
    The protocol:

    1. build once, run *action* with a counting hook → N sites;
    2. for each site ``i`` (optionally strided/capped for expensive
       actions): rebuild, arm a fault at ``i``, run the action, require
       that the fault tripped and propagated, and that
       :func:`design_state` equals the pre-action state exactly.

    Raises :class:`AssertionError` on any miss — a site that did not
    trip (non-deterministic factory) or a state mismatch (a rollback
    hole in the journal coverage).
    """
    design, action = factory()
    total = count_journaled_mutations(design, action)
    report = FaultSweepReport(sites=total)

    indices = range(1, total + 1, stride)
    if max_sites is not None:
        indices = list(indices)[:max_sites]
    for i in indices:
        design, action = factory()
        before = design_state(design)
        with FaultInjector(design, trip_at=i) as inj:
            try:
                action()
            except InjectedFault:
                pass
            else:
                raise AssertionError(
                    f"fault armed at mutation #{i}/{total} did not trip "
                    f"(saw {inj.seen}); factory is not deterministic"
                )
        after = design_state(design)
        if after != before:
            raise AssertionError(
                f"state not restored after injected fault at mutation "
                f"#{i}/{total} (site {inj.tripped_site!r}): the journal "
                f"rollback left the design corrupted"
            )
        assert inj.tripped_site is not None
        report.tripped.append(inj.tripped_site)
    return report
