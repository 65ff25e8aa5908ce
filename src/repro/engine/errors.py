"""Structured failure taxonomy of the parallel engine.

Every way an engine run can fail maps to one exception class here, so
callers (the CLI, tests) can react to *categories* instead of
string-matching messages.  Failures of single shard attempts (a worker
crash, a timeout, a shard that raised) are not exceptions: the
coordinator contains them, retries the shard and records each attempt
in its :class:`~repro.engine.remote.SupervisionReport`.

``EngineError``
    root of the taxonomy; carries the shard id where applicable.

``ShardRetriesExhaustedError``
    a shard failed every retry; raised only when the whole-design
    serial fallback is disabled (``EngineConfig.serial_fallback=False``).

``CheckpointError`` / ``ResumeMismatchError``
    a checkpoint file is unreadable / belongs to a different run
    (design, config, or partition fingerprint differs).

``TransportError`` / ``RemoteProtocolError`` / ``WorkerUnavailableError``
    the shard coordinator failed: a drain stopped it with shards
    outstanding, a wire message was malformed or version-mismatched,
    or no worker was left to run the queue (and the serial fallback
    was disabled).

All classes are picklable (they reduce to their constructor args), so
they can cross the process boundary intact.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class of all parallel-engine failures.

    ``shard_id`` is the shard the failure is attributed to, or ``None``
    for run-level failures (checkpoint problems, ladder exhaustion
    without a single culprit).
    """

    def __init__(self, message: str, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id

    def __reduce__(
        self,
    ) -> tuple[type["EngineError"], tuple[str, int | None]]:
        # picklable across the process boundary
        return (type(self), (self.args[0], self.shard_id))


class ShardRetriesExhaustedError(EngineError):
    """A shard failed every retry.

    Only surfaces when ``EngineConfig.serial_fallback`` is off;
    otherwise the coordinator reports the exhaustion and the executor
    degrades to the whole-design sequential path instead of raising.
    """


class CheckpointError(EngineError):
    """A checkpoint file could not be read, parsed, or written."""


class ResumeMismatchError(CheckpointError):
    """The checkpoint belongs to a different run.

    The fingerprint covers the design identity, the legalizer config
    fields that shape placement (seed, windows, ordering), and the
    partition (shard boundaries + derived per-shard seeds): resuming
    with any of those changed would splice incompatible deltas, so it
    is refused outright.
    """


class TransportError(EngineError):
    """Root of the shard-coordinator failures.

    Raised for coordinator-side faults that are not attributable to a
    single shard attempt (those are contained, retried and recorded in
    the :class:`~repro.engine.remote.SupervisionReport` instead).
    """


class RemoteProtocolError(TransportError):
    """A wire message could not be framed, parsed, or validated.

    Covers JSON/base64/pickle decode failures, unknown operations, and
    protocol-version mismatches between a coordinator and a worker.
    The offending peer's connection is dropped; its leases requeue.
    """


class WorkerUnavailableError(TransportError):
    """Shards were queued but no worker was left to run them.

    Either no worker joined within ``EngineConfig.worker_wait_s``, or
    the coordinator's local fleet died out.  Only surfaces when
    ``EngineConfig.serial_fallback`` is off; otherwise the executor
    degrades to the whole-design sequential path.
    """
