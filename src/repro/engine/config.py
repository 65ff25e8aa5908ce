"""Configuration of the sharded parallel legalization engine.

:class:`EngineConfig` complements :class:`~repro.core.config.LegalizerConfig`:
the legalizer config describes *what* Algorithm 1 / MLL do, the engine
config describes *how the work is split and executed* — shard count,
worker count, halo width, the coordinator's retry and lease policy, and
when to fall back to the plain sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LegalizerConfig


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Knobs of the sharded parallel engine (:mod:`repro.engine`)."""

    workers: int = 1
    """Worker processes.  ``1`` executes shards serially in-process (the
    sharded code path is still exercised when ``shards > 1``); more
    runs them through the shard coordinator with that many local
    ``repro worker`` processes; ``0`` means "one per available CPU"."""

    shards: int | None = None
    """Vertical-stripe shard count.  ``None`` derives it from
    ``workers`` (one shard per worker).  The partitioner may lower the
    effective count on narrow floorplans — see
    :func:`repro.engine.partition.partition_design`."""

    halo_sites: int | None = None
    """Halo width in sites added on both sides of each shard's interior.
    ``None`` derives it from the legalizer config, see
    :func:`derive_halo_sites`.  The halo is placeable overflow room: a
    shard may place cells up to ``halo_sites`` beyond its interior, so
    cross-shard conflicts are confined to seam bands of width
    ``2 * halo_sites``."""

    halo_retry_rounds: int = 3
    """Retry rounds of Algorithm 1 the derived halo budgets for: the
    round-``k`` perturbation amplitude is ``Rx * (k - 1)``, so the
    derived halo covers targets perturbed up to
    ``Rx * halo_retry_rounds`` sites sideways.  Retry targets beyond the
    shard slice simply snap back to the slice edge (the shard floorplan
    has no segments outside it), so this is a quality knob, not a
    correctness one."""

    serial_threshold: int = 2048
    """Designs with fewer movable cells than this run the plain
    sequential :class:`~repro.core.legalizer.Legalizer` — below this
    size, process fan-out costs more than it saves."""

    balance_by_cells: bool = True
    """Place stripe boundaries at cell-count quantiles of the GP x
    distribution (balanced work per shard) instead of equal-width
    stripes."""

    validate: bool = True
    """Run the independent checker on the merged placement and raise
    :class:`~repro.engine.reconcile.ReconcileError` on any violation, so
    the engine's contract is *exactly* the sequential path's."""

    # -- the coordinator (fault tolerance of the worker fleet) ---------
    shard_timeout_s: float | None = None
    """Hard wall-clock budget of one shard attempt, measured from the
    lease grant; heartbeats do not extend it.  On expiry the
    coordinator kills the local worker holding the lease (or drops the
    connection of an external one) and retries the shard (a
    ``"timeout"`` :class:`~repro.engine.remote.ShardAttempt` in
    ``SupervisionReport.attempts``).  ``None`` (default) disables it."""

    max_shard_retries: int = 2
    """Retries per shard after its first attempt.  A shard that fails
    them all ends the sharded plan (see :attr:`serial_fallback`).
    Retried attempts reuse the shard's derived seed, so any successful
    attempt is byte-identical.  The local fleet is not replenished: a
    crash, a dropped link or a hard-deadline kill ends that local
    worker, so the fleet survives at most ``workers - 1`` such failures
    before the run falls back (lease expiries and shipped errors leave
    the worker alive)."""

    backoff_base_s: float = 0.25
    """First retry delay; attempt *k* waits ``backoff_base_s *
    2**(k-1)`` seconds (capped at :attr:`backoff_max_s`), plus jitter.
    Backoff gives a transiently-starved host (OOM pressure, CPU
    squeeze) room to recover before the shard is re-dispatched."""

    backoff_max_s: float = 30.0
    """Upper bound on a single backoff delay."""

    backoff_jitter: float = 0.25
    """Multiplicative jitter fraction: the delay is scaled by a factor
    drawn uniformly from ``[1, 1 + backoff_jitter]``, seeded from the
    shard seed and attempt (deterministic, decorrelated across shards
    so retries do not stampede in lockstep).  ``0`` disables jitter."""

    serial_fallback: bool = True
    """Second and last rung of the degradation ladder: when a shard
    fails every retry, or no worker is left to run the queue, abandon
    the sharded plan and legalize the whole design with the plain
    sequential driver (correct by construction, just not parallel).
    ``False`` raises
    :class:`~repro.engine.errors.ShardRetriesExhaustedError` /
    :class:`~repro.engine.errors.WorkerUnavailableError` instead."""

    lease_ttl_s: float = 30.0
    """Per-shard lease: a dispatched shard must deliver its outcome or
    a heartbeat within this window, or the coordinator declares the
    worker dead/partitioned/hung and requeues the shard (recorded as a
    lease expiry in the supervision report)."""

    heartbeat_interval_s: float = 5.0
    """How often a busy worker renews its lease.  Sent to the worker
    inside each task message (workers need no local configuration);
    must be smaller than :attr:`lease_ttl_s`."""

    worker_wait_s: float = 30.0
    """How long work may sit queued with no worker connected before
    the run takes the last ladder rung.  A local fleet that has died
    out entirely takes it at once."""

    drain_grace_s: float = 5.0
    """On coordinator shutdown (SIGTERM or run teardown) with leases
    still in flight, how long to keep accepting results so a final
    checkpoint captures every shard that was about to land."""

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.halo_sites is not None and self.halo_sites < 0:
            raise ValueError("halo_sites must be >= 0")
        if self.halo_retry_rounds < 0:
            raise ValueError("halo_retry_rounds must be >= 0")
        if self.serial_threshold < 0:
            raise ValueError("serial_threshold must be >= 0")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive (or None)")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_interval_s >= self.lease_ttl_s:
            raise ValueError(
                "heartbeat_interval_s must be smaller than lease_ttl_s "
                "(a healthy worker must renew before its lease expires)"
            )
        if self.worker_wait_s < 0:
            raise ValueError("worker_wait_s must be >= 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")

    def resolved_workers(self) -> int:
        """Worker count with ``0`` resolved to the available CPUs."""
        if self.workers > 0:
            return self.workers
        import os

        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)


def derive_halo_sites(
    config: LegalizerConfig, max_cell_width: int, retry_rounds: int = 3
) -> int:
    """Halo width guaranteeing full MLL feasibility for interior targets.

    An MLL window for a target position ``tx`` spans ``[tx - Rx,
    tx + Rx + w_t)`` (paper Section 3), and Algorithm 1 perturbs retry
    targets by up to ``Rx * (k - 1)`` sites in round ``k``.  A halo of::

        2*Rx + max_cell_width + Rx * min(max_rounds - 1, retry_rounds)

    therefore keeps the *entire* window of any interior cell — including
    its first ``retry_rounds`` retry perturbations — inside the shard
    slice, so no MLL window is clipped by the shard boundary and no MLL
    window reaches past the neighbor's halo into *its* interior's far
    side.  See ``docs/parallel_engine.md`` for the full argument.
    """
    rounds = min(max(config.max_rounds - 1, 0), retry_rounds)
    return 2 * config.rx + max(0, max_cell_width) + config.rx * rounds
