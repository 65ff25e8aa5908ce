"""Sharded parallel legalization engine.

The MLL primitive is strictly local — every decision it makes lives
inside a window of ``(2Rx + w_t) x (2Ry + h_t)`` around the target
position (paper Section 3) — so MLL calls whose windows do not overlap
commute.  This package exploits that: it tiles the floorplan into
vertical-stripe *shards* with a halo (:mod:`repro.engine.partition`),
legalizes every shard with the unmodified sequential legalizer on a
fleet of worker processes fed by a shard coordinator
(:mod:`repro.engine.shard_worker`, :mod:`repro.engine.remote`,
:mod:`repro.engine.executor`), and merges the per-shard deltas back,
resolving the (rare) cross-seam conflicts with one final sequential MLL
pass (:mod:`repro.engine.reconcile`).

The merged placement passes :func:`~repro.checker.verify_placement`
exactly like the sequential path, and ``workers=N`` runs are
bit-reproducible for a fixed seed and shard count.  See
``docs/parallel_engine.md`` for the halo-correctness argument.
"""

from repro.engine.checkpoint import (
    CheckpointManager,
    CheckpointState,
    load_checkpoint,
    run_fingerprint,
    save_checkpoint,
)
from repro.engine.config import EngineConfig, derive_halo_sites
from repro.engine.errors import (
    CheckpointError,
    EngineError,
    RemoteProtocolError,
    ResumeMismatchError,
    ShardRetriesExhaustedError,
    TransportError,
    WorkerUnavailableError,
)
from repro.engine.executor import EngineResult, ShardedLegalizer, legalize_sharded
from repro.engine.partition import Partition, Shard, partition_design
from repro.engine.reconcile import (
    ReconcileError,
    SeamReport,
    apply_shard_outcomes,
    reconcile,
)
from repro.engine.remote import (
    ShardAttempt,
    SupervisionReport,
    TcpTransport,
    TransportResult,
    WorkerConfig,
    backoff_delay_s,
    make_transport,
    run_worker,
    spawn_worker_process,
)
from repro.engine.shard_worker import (
    ShardCellSpec,
    ShardOutcome,
    ShardTask,
    build_shard_design,
    run_shard,
    shard_seed,
)
__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "CheckpointState",
    "EngineConfig",
    "EngineError",
    "EngineResult",
    "Partition",
    "ReconcileError",
    "RemoteProtocolError",
    "ResumeMismatchError",
    "SeamReport",
    "Shard",
    "ShardAttempt",
    "ShardCellSpec",
    "ShardOutcome",
    "ShardRetriesExhaustedError",
    "ShardTask",
    "ShardedLegalizer",
    "SupervisionReport",
    "TcpTransport",
    "TransportError",
    "TransportResult",
    "WorkerConfig",
    "WorkerUnavailableError",
    "apply_shard_outcomes",
    "backoff_delay_s",
    "build_shard_design",
    "derive_halo_sites",
    "legalize_sharded",
    "load_checkpoint",
    "make_transport",
    "partition_design",
    "reconcile",
    "run_fingerprint",
    "run_shard",
    "run_worker",
    "save_checkpoint",
    "shard_seed",
    "spawn_worker_process",
]
