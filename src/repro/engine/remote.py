"""The shard coordinator: a lease-based work-stealing queue over TCP.

Every parallel run (``workers > 1``) executes its shards here.  The
run that owns the design acts as the **coordinator**: it binds a
listening socket, serves its shard queue to ``repro worker`` processes,
and merges their outcomes.  Where the workers come from is the only
thing that differs between one host and many:

* by default (:func:`make_transport`) the coordinator binds
  ``127.0.0.1:0`` and forks a fleet of ``workers`` local worker
  processes before it starts any thread.  It owns them: it kills one
  that overruns its hard deadline and reaps them all before
  :meth:`TcpTransport.execute` returns;
* given an address (``TcpTransport(engine, bind=...)``, the CLI's
  ``--bind``), it forks nothing and serves external ``repro worker
  --connect`` processes, on this host or others.

Workers are dumb and stateless — connect, ``hello``, then steal tasks
until told to drain.  Every failure becomes a queue event:

* every dispatched shard holds a **lease** (``EngineConfig.
  lease_ttl_s``) that a busy worker renews with heartbeats.  A worker
  that crashes drops its connection; one that hangs or falls off the
  network stops renewing.  Either way the shard requeues with
  exponential backoff (:func:`backoff_delay_s`).  ``shard_timeout_s``
  is a hard deadline on the lease that heartbeats do not extend;
* results are **idempotent**: a zombie worker delivering a shard that
  already settled (late stall, retransmit) is counted and dropped,
  never applied twice;
* the **degradation ladder** has two rungs: this queue, then the
  whole-design serial fallback, taken when a shard fails every retry
  or no worker is left to run the queue.  ``serial_fallback=False``
  raises instead;
* on **drain** (:meth:`TcpTransport.request_drain`, or SIGINT/SIGTERM
  unwinding the CLI) the coordinator stops dispatching, honors
  in-flight leases for ``drain_grace_s`` so their outcomes reach the
  checkpoint, and stops; a later run resumes from the checkpoint
  watermark.

Determinism: leases, steals, worker deaths and duplicates decide only
*when and where* a shard runs, never *what it computes* — every
attempt reuses the shard's derived seed and the executor applies
deltas in shard-id order, so the final placement is byte-identical
under any failure schedule that the queue survives.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.engine.config import EngineConfig
from repro.engine.errors import (
    RemoteProtocolError,
    ShardRetriesExhaustedError,
    TransportError,
    WorkerUnavailableError,
)
from repro.engine.shard_worker import ShardOutcome, ShardTask, run_shard
from repro.engine.wire import (
    WIRE_VERSION,
    LineChannel,
    message_float,
    message_int,
    message_str,
    pack_payload,
    unpack_payload,
)
from repro.testing.faults import ShardFaultSpec, worker_fault_from_env

#: Seconds between polls of the coordinator's serving loop.
POLL_INTERVAL_S = 0.02

#: Delay a worker is told to sleep before re-stealing when the queue is
#: momentarily empty but work may still requeue (live leases).
STEAL_WAIT_S = 0.05

#: How long teardown waits for local workers to exit on their own
#: before killing them.
REAP_GRACE_S = 1.0

#: Type of the per-outcome delivery hook (the checkpoint layer).
OutcomeHook = Callable[[ShardOutcome], None]


def lease_id(shard_id: int, attempt: int) -> str:
    """The attempt id a lease (and its result) is keyed by."""
    return f"s{shard_id}a{attempt}"


def backoff_delay_s(engine: EngineConfig, seed: int, attempt: int) -> float:
    """Exponential backoff with deterministic, decorrelated jitter.

    Attempt *k* (1-based) waits ``backoff_base_s * 2**(k-1)`` seconds,
    jittered by a factor drawn from ``[1, 1 + backoff_jitter]`` using a
    generator seeded from ``(seed, attempt)`` — the same (shard-derived)
    seed always reproduces the same delay sequence, and distinct shards
    decorrelate so retries never stampede in lockstep.
    ``backoff_max_s`` is a hard ceiling applied *after* jitter.
    """
    delay = min(
        engine.backoff_base_s * (2 ** (attempt - 1)), engine.backoff_max_s
    )
    if engine.backoff_jitter > 0 and delay > 0:
        rng = random.Random((seed << 8) ^ attempt)
        delay = min(
            delay * (1.0 + engine.backoff_jitter * rng.random()),
            engine.backoff_max_s,
        )
    return delay


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ShardAttempt:
    """One attempt at one shard, as the coordinator saw it."""

    shard_id: int
    attempt: int
    status: str
    """``"ok"``, ``"crash"`` (connection lost with the lease live),
    ``"timeout"`` (lease expiry or hard deadline), ``"error"`` (the
    worker shipped a traceback) or ``"duplicate"`` (redelivery of a
    shard that already settled)."""
    elapsed_s: float
    detail: str = ""


@dataclass(slots=True)
class SupervisionReport:
    """What the coordinator observed across one engine run."""

    attempts: list[ShardAttempt] = field(default_factory=list)
    crashes: int = 0
    timeouts: int = 0
    errors: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    lease_expiries: int = 0
    """Leases that expired without an outcome or heartbeat (counted in
    :attr:`timeouts` too)."""
    duplicate_results: int = 0
    """Outcomes redelivered for an already-settled shard — dropped,
    never applied twice."""
    workers_joined: int = 0
    """Distinct worker connections that said ``hello``."""
    failed_shards: list[int] = field(default_factory=list)
    """Shards that failed every retry."""
    skipped_shards: list[int] = field(default_factory=list)
    """Shards satisfied from a resume checkpoint, never dispatched."""
    serial_fallback: bool = False
    """True when the executor must abandon the sharded plan and run the
    whole design through the sequential driver."""
    fallback_reason: str = ""

    @property
    def faults(self) -> int:
        """Total failed attempts of any kind."""
        return self.crashes + self.timeouts + self.errors

    def summary(self) -> str:
        """One-line digest for logs and the CLI."""
        parts = [
            f"attempts={len(self.attempts)}",
            f"crashes={self.crashes}",
            f"timeouts={self.timeouts}",
            f"errors={self.errors}",
            f"retries={self.retries}",
            f"lease_expiries={self.lease_expiries}",
            f"duplicates={self.duplicate_results}",
            f"workers_joined={self.workers_joined}",
        ]
        if self.skipped_shards:
            parts.append(f"resumed={len(self.skipped_shards)}")
        if self.serial_fallback:
            parts.append("serial_fallback=yes")
        return "coordinator: " + " ".join(parts)


@dataclass(slots=True)
class TransportResult:
    """What a shard execution hands back to the executor."""

    outcomes: list[ShardOutcome] = field(default_factory=list)
    """Successful shard outcomes in shard-id order."""

    supervision: SupervisionReport | None = None
    """The coordinator's record; ``None`` for in-process runs."""

    workers: int = 1
    """Concurrency actually used: the local fleet size, or the number
    of external workers that joined."""

    @property
    def serial_fallback(self) -> bool:
        """True when the sharded plan is unsalvageable and the executor
        must degrade to the whole-design sequential driver."""
        return (
            self.supervision is not None
            and self.supervision.serial_fallback
        )


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Lease:
    """One dispatched shard attempt, held by one worker connection."""

    task: ShardTask
    attempt: int
    conn_id: int
    started: float
    deadline: float
    """Renewable: pushed out by every heartbeat."""
    hard_deadline: float
    """``started + shard_timeout_s``; never renewed."""


class TcpTransport:
    """Serve the shard queue to workers; single-use per run.

    With *bind* ``None`` the coordinator listens on an ephemeral
    loopback port and :meth:`execute` forks its own fleet of local
    workers; with ``(host, port)`` it listens there and waits for
    external ones.  The socket binds in the constructor, so
    :attr:`port` is known before any worker starts.  Connection handler
    threads mutate the queue under one lock and only *enqueue*
    outcomes — the calling thread applies them, because the checkpoint
    hook is not thread-safe.
    """

    def __init__(
        self, engine: EngineConfig, bind: tuple[str, int] | None = None
    ) -> None:
        self.engine = engine
        self.owns_fleet = bind is None
        self._listener = socket.create_server(
            bind if bind is not None else ("127.0.0.1", 0), backlog=16
        )
        address = self._listener.getsockname()
        self.host: str = address[0]
        """The bound listen address."""
        self.port: int = address[1]
        """The bound listen port (resolves port ``0``)."""
        self._lock = threading.Lock()
        self._channels: dict[int, LineChannel] = {}
        self._worker_pids: dict[int, int] = {}
        """Connection id -> pid of every worker that said hello."""
        self._next_conn_id = 0
        self._threads: list[threading.Thread] = []
        self._fleet: list[multiprocessing.process.BaseProcess] = []
        self._pending: list[tuple[float, int, ShardTask, int]] = []
        self._leases: dict[str, _Lease] = {}
        self._settled: dict[int, ShardOutcome] = {}
        self._failed: set[int] = set()
        self._deliveries: list[ShardOutcome] = []
        self._unavailable: str | None = None
        self._last_worker_s: float | None = None
        self._draining = False
        self._drain_requested = False
        self._closing = False
        self.report = SupervisionReport()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop listening (idempotent).

        ``shutdown`` before ``close`` wakes a thread blocked in
        ``accept``; a bare ``close`` would leave the port listening
        until that thread returned."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never listened, or already shut down
        self._listener.close()

    def request_drain(self) -> None:
        """Graceful shutdown: stop dispatching, honor in-flight leases
        for ``drain_grace_s``, then abort the run with
        :class:`TransportError` so a resume picks up from the checkpoint
        watermark.  Safe to call from another thread."""
        with self._lock:
            self._drain_requested = True
            self._draining = True

    # ------------------------------------------------------------------
    def execute(
        self,
        tasks: list[ShardTask],
        *,
        workers: int,
        on_outcome: OutcomeHook | None = None,
        completed: dict[int, ShardOutcome] | None = None,
    ) -> TransportResult:
        """Run every task not already in *completed*.

        *on_outcome* fires once per newly computed outcome, from the
        calling thread.  A result whose ``serial_fallback`` is set means
        the outcomes are unusable as a set; the executor then runs the
        sequential driver (the coordinator never does)."""
        outcomes: dict[int, ShardOutcome] = {}
        with self._lock:
            for task in sorted(tasks, key=lambda t: t.shard_id):
                if completed and task.shard_id in completed:
                    outcome = completed[task.shard_id]
                    self._settled[task.shard_id] = outcome
                    outcomes[task.shard_id] = outcome
                    self.report.skipped_shards.append(task.shard_id)
                else:
                    self._pending.append((0.0, task.shard_id, task, 1))
            queued = bool(self._pending)
        try:
            if queued:
                if self.owns_fleet:
                    self._start_fleet(workers)
                self._spawn_thread(self._accept_loop, "accept")
                self._serve(time.monotonic(), on_outcome, outcomes)
        finally:
            try:
                self._drain(on_outcome, outcomes)
            finally:
                self._reap_fleet()
        self._settle_run(len(tasks), len(outcomes))
        return TransportResult(
            outcomes=[outcomes[sid] for sid in sorted(outcomes)],
            supervision=self.report,
            workers=(
                workers
                if self.owns_fleet
                else max(1, self.report.workers_joined)
            ),
        )

    def _settle_run(self, total: int, done: int) -> None:
        """Raise or mark the serial fallback once the queue is shut."""
        if self._drain_requested and done < total:
            raise TransportError(
                "coordinator drained on request with shards "
                "outstanding; completed work is checkpointed — "
                "rerun with --resume to continue from the watermark"
            )
        with self._lock:
            failed = sorted(self._failed)
            reason = self._unavailable
            if reason is None and failed:
                reason = f"shards {failed} failed every retry"
            if reason is None:
                return
            if not self.engine.serial_fallback:
                if self._unavailable is not None:
                    raise WorkerUnavailableError(
                        f"{reason} and serial_fallback is off"
                    )
                raise ShardRetriesExhaustedError(
                    f"{reason} and serial_fallback is off",
                    shard_id=failed[0],
                )
            self.report.failed_shards = failed
            self.report.serial_fallback = True
            self.report.fallback_reason = reason

    # ------------------------------------------------------------------
    # The local fleet
    # ------------------------------------------------------------------
    def _start_fleet(self, workers: int) -> None:
        """Fork *workers* local workers (before any coordinator thread
        exists, so no lock can be inherited mid-acquire)."""
        for index in range(workers):
            config = WorkerConfig(
                host=self.host,
                port=self.port,
                name=f"local{index}",
                connect_retries=1,
            )
            self._fleet.append(spawn_worker_process(config, self._listener))

    def _fleet_dead(self) -> bool:
        """Every local worker has exited (always False without a fleet).

        Main thread only: ``is_alive`` reaps, and two threads reaping
        one child race."""
        return bool(self._fleet) and not any(
            process.is_alive() for process in self._fleet
        )

    def _kill_worker(self, pid: int | None) -> None:
        """Kill the local worker with *pid*, if it is one of ours."""
        for process in self._fleet:
            if process.pid == pid and process.is_alive():
                process.kill()

    def _reap_fleet(self) -> None:
        """Join every local worker; kill the ones that do not exit."""
        deadline = time.monotonic() + REAP_GRACE_S
        for process in self._fleet:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join()
            process.close()
        self._fleet.clear()

    # ------------------------------------------------------------------
    # Main-thread serving loop
    # ------------------------------------------------------------------
    def _serve(
        self,
        started: float,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        while True:
            self._apply_deliveries(on_outcome, outcomes)
            fleet_dead = self._fleet_dead()
            with self._lock:
                if self._draining or self._unavailable is not None:
                    return
                now = time.monotonic()
                overdue = [
                    (self._worker_pids.get(conn_id), self._channels.get(conn_id))
                    for conn_id in self._expire_leases(now)
                ]
                self._check_workers(started, now, fleet_dead)
                idle = (
                    not self._pending
                    and not self._leases
                    and not self._deliveries
                )
            for pid, channel in overdue:
                self._kill_worker(pid)
                if channel is not None:
                    channel.close()
            if idle:
                return
            time.sleep(POLL_INTERVAL_S)

    def _apply_deliveries(
        self,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        """Apply queued outcomes from the calling thread, in order."""
        with self._lock:
            batch = self._deliveries
            self._deliveries = []
        for outcome in batch:
            outcomes[outcome.shard_id] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

    def _expire_leases(self, now: float) -> list[int]:
        """Requeue the shards of silent or overdue workers; return the
        connections past a hard deadline (the caller evicts them).

        Caller holds the lock."""
        evict: list[int] = []
        for key in [
            k
            for k, rec in self._leases.items()
            if min(rec.deadline, rec.hard_deadline) <= now
        ]:
            rec = self._leases.pop(key)
            sid = rec.task.shard_id
            if sid in self._settled:
                continue  # a zombie already delivered this shard
            self.report.timeouts += 1
            if rec.hard_deadline <= now:
                evict.append(rec.conn_id)
                detail = (
                    f"shard {sid} attempt {rec.attempt} exceeded its "
                    f"{self.engine.shard_timeout_s}s wall-clock budget"
                )
            else:
                self.report.lease_expiries += 1
                detail = (
                    f"lease {key} expired after {self.engine.lease_ttl_s}s "
                    f"without heartbeat or result"
                )
            self._record(sid, rec.attempt, "timeout", now - rec.started, detail)
            self._retry_or_fail(rec.task, rec.attempt, now)
        return evict

    def _check_workers(
        self, started: float, now: float, fleet_dead: bool
    ) -> None:
        """Work is queued but no worker is connected: give up when none
        can come (the local fleet died out) or none came in time.

        The wait clock restarts whenever the last worker leaves, so a
        fleet that crashed out gets ``worker_wait_s`` to reconnect.

        Caller holds the lock."""
        if self._worker_pids or not self._pending:
            return
        if fleet_dead:
            self._unavailable = (
                "every local worker exited with shards still queued"
            )
            return
        reference = (
            self._last_worker_s if self._last_worker_s is not None else started
        )
        if now - reference > self.engine.worker_wait_s:
            again = "re" if self.report.workers_joined else ""
            self._unavailable = (
                f"no worker {again}joined within {self.engine.worker_wait_s}s"
            )

    def _drain(
        self,
        on_outcome: OutcomeHook | None,
        outcomes: dict[int, ShardOutcome],
    ) -> None:
        """Stop dispatching (every steal is now answered ``drain``) and
        keep reading each connection until its worker hangs up or
        ``drain_grace_s`` runs out, so in-flight outcomes still reach
        the checkpoint and late duplicates are counted; then close
        every socket and join the connection threads."""
        with self._lock:
            self._draining = True
        try:
            now = time.monotonic()
            deadline = now + self.engine.drain_grace_s
            while now < deadline:
                self._apply_deliveries(on_outcome, outcomes)
                with self._lock:
                    # A lease lives only as long as its connection.
                    if not self._channels:
                        break
                time.sleep(POLL_INTERVAL_S)
                now = time.monotonic()
            self._apply_deliveries(on_outcome, outcomes)
        finally:
            with self._lock:
                self._closing = True
                channels = list(self._channels.values())
                self._channels.clear()
            self.close()
            for channel in channels:
                channel.close()
            for thread in self._threads:
                thread.join(timeout=REAP_GRACE_S)

    # ------------------------------------------------------------------
    # Connection handling (one thread per worker connection)
    # ------------------------------------------------------------------
    def _spawn_thread(
        self, target: Callable[..., None], name: str, *args: object
    ) -> None:
        thread = threading.Thread(
            target=target,
            args=args,
            name=f"repro-coordinator-{name}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down: the run is over
            with self._lock:
                if self._closing:
                    sock.close()
                    return
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                channel = LineChannel(sock)
                self._channels[conn_id] = channel
            self._spawn_thread(
                self._serve_peer, f"peer{conn_id}", conn_id, channel
            )

    def _serve_peer(self, conn_id: int, channel: LineChannel) -> None:
        try:
            while True:
                message = channel.recv()
                if message is None:
                    return  # clean disconnect
                op = message_str(message, "op")
                if op == "hello":
                    self._on_hello(conn_id, message)
                elif op == "steal":
                    self._on_steal(conn_id, channel)
                elif op == "heartbeat":
                    self._on_heartbeat(message)
                elif op == "result":
                    self._on_result(message)
                else:
                    raise RemoteProtocolError(
                        f"unexpected worker op {op!r}"
                    )
        except (OSError, RemoteProtocolError, ValueError):
            return  # broken peer: leases requeue in _drop_peer
        finally:
            self._drop_peer(conn_id, channel)

    def _on_hello(self, conn_id: int, message: dict[str, object]) -> None:
        version = message_int(message, "version")
        if version != WIRE_VERSION:
            raise RemoteProtocolError(
                f"worker speaks wire version {version}, "
                f"coordinator speaks {WIRE_VERSION}"
            )
        pid = message_int(message, "pid")
        with self._lock:
            if conn_id not in self._worker_pids:
                self._worker_pids[conn_id] = pid
                self._last_worker_s = time.monotonic()
                self.report.workers_joined += 1

    def _on_steal(self, conn_id: int, channel: LineChannel) -> None:
        with self._lock:
            if conn_id not in self._worker_pids:
                raise RemoteProtocolError("steal before hello")
            now = time.monotonic()
            if self._draining:
                reply: dict[str, object] = {"op": "drain"}
            else:
                self._pending.sort()
                ready = self._pending and self._pending[0][0] <= now
                if ready:
                    _, sid, task, attempt = self._pending.pop(0)
                    key = lease_id(sid, attempt)
                    timeout = self.engine.shard_timeout_s
                    self._leases[key] = _Lease(
                        task=task,
                        attempt=attempt,
                        conn_id=conn_id,
                        started=now,
                        deadline=now + self.engine.lease_ttl_s,
                        hard_deadline=(
                            now + timeout if timeout is not None else float("inf")
                        ),
                    )
                    reply = {
                        "op": "task",
                        "lease": key,
                        "shard": sid,
                        "attempt": attempt,
                        "heartbeat": self.engine.heartbeat_interval_s,
                        "payload": pack_payload(
                            replace(task, attempt=attempt)
                        ),
                    }
                elif self._pending or self._leases:
                    reply = {"op": "wait", "delay": STEAL_WAIT_S}
                else:
                    reply = {"op": "drain"}
        channel.send(reply)

    def _on_heartbeat(self, message: dict[str, object]) -> None:
        key = message_str(message, "lease")
        with self._lock:
            rec = self._leases.get(key)
            if rec is not None:
                rec.deadline = time.monotonic() + self.engine.lease_ttl_s

    def _on_result(self, message: dict[str, object]) -> None:
        key = message_str(message, "lease")
        sid = message_int(message, "shard")
        status = message_str(message, "status")
        with self._lock:
            now = time.monotonic()
            rec = self._leases.pop(key, None)
            elapsed = now - rec.started if rec is not None else 0.0
            attempt = rec.attempt if rec is not None else _lease_attempt(key)
            if sid in self._settled or sid in self._failed:
                # Idempotence: zombie redelivery of a shard that is
                # already decided (stall past its lease, retransmit).
                self.report.duplicate_results += 1
                self._record(
                    sid, attempt, "duplicate", elapsed,
                    f"redelivery of settled shard {sid} ({key}) dropped",
                )
                return
            if status == "ok":
                # repro-lint: disable=RL12 -- workers are operator
                # -deployed trusted peers (the wire contract in wire.py
                # restricts payloads to frozen value objects); the
                # isinstance check below rejects anything else.
                payload = unpack_payload(message_str(message, "payload"))
                if not isinstance(payload, ShardOutcome):
                    raise RemoteProtocolError(
                        f"result payload for shard {sid} is not a "
                        f"ShardOutcome"
                    )
                self._settled[sid] = payload
                self._pending[:] = [
                    p for p in self._pending if p[1] != sid
                ]
                self._deliveries.append(payload)
                self._record(sid, attempt, "ok", elapsed)
            else:
                detail = message_str(message, "detail")
                self.report.errors += 1
                self._record(sid, attempt, "error", elapsed, detail)
                if rec is not None:
                    self._retry_or_fail(rec.task, rec.attempt, now)

    def _drop_peer(self, conn_id: int, channel: LineChannel) -> None:
        """Connection gone (EOF, RST, protocol violation, eviction):
        requeue its leases as crashes and forget the channel."""
        with self._lock:
            self._channels.pop(conn_id, None)
            now = time.monotonic()
            if self._worker_pids.pop(conn_id, None) is not None:
                self._last_worker_s = now
            orphaned = [
                k
                for k, rec in self._leases.items()
                if rec.conn_id == conn_id
            ]
            for key in orphaned:
                rec = self._leases.pop(key)
                sid = rec.task.shard_id
                if sid in self._settled:
                    continue
                self.report.crashes += 1
                self._record(
                    sid, rec.attempt, "crash", now - rec.started,
                    f"worker connection lost with lease {key} in flight",
                )
                self._retry_or_fail(rec.task, rec.attempt, now)
        channel.close()

    # ------------------------------------------------------------------
    def _retry_or_fail(
        self, task: ShardTask, attempt: int, now: float
    ) -> None:
        """Requeue with backoff, or mark the shard failed when its
        retries are spent.

        Caller holds the lock."""
        sid = task.shard_id
        if attempt <= self.engine.max_shard_retries:
            delay = backoff_delay_s(self.engine, task.seed, attempt)
            self.report.retries += 1
            self.report.backoff_total_s += delay
            self._pending.append((now + delay, sid, task, attempt + 1))
        else:
            self._failed.add(sid)
            if self.engine.serial_fallback:
                # The run falls back: any further outcome is discarded.
                self._draining = True

    def _record(
        self,
        shard_id: int,
        attempt: int,
        status: str,
        elapsed_s: float,
        detail: str = "",
    ) -> None:
        """Append an attempt record.  Caller holds the lock."""
        self.report.attempts.append(
            ShardAttempt(
                shard_id=shard_id,
                attempt=attempt,
                status=status,
                elapsed_s=elapsed_s,
                detail=detail,
            )
        )


def _lease_attempt(key: str) -> int:
    """Best-effort attempt number parsed back out of a lease id."""
    _, _, tail = key.rpartition("a")
    try:
        return int(tail)
    except ValueError:
        return 0


def make_transport(engine: EngineConfig) -> TcpTransport:
    """The default coordinator: loopback, with its own local fleet."""
    return TcpTransport(engine)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WorkerConfig:
    """One ``repro worker``'s connection parameters."""

    host: str
    port: int
    name: str = ""
    connect_retries: int = 20
    """Connection attempts before giving up — external workers
    routinely start before the coordinator binds, so the first
    connects may fail."""
    connect_backoff_s: float = 0.25
    """Base delay between connection attempts (doubles, capped 2s)."""
    fault: ShardFaultSpec | None = None
    """Chaos hook armed for every task this worker runs (a task's own
    spec wins); when ``None`` the ``REPRO_WORKER_FAULT`` environment
    variable is consulted."""


def _connect(config: WorkerConfig) -> LineChannel:
    """Dial the coordinator with bounded exponential backoff."""
    attempts = max(1, config.connect_retries)
    delay = config.connect_backoff_s
    last_error = ""
    for attempt in range(attempts):
        try:
            sock = socket.create_connection(
                (config.host, config.port), timeout=10.0
            )
        except OSError as exc:
            last_error = str(exc)
            if attempt + 1 < attempts:
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
            continue
        try:
            sock.settimeout(None)
            return LineChannel(sock)
        except Exception:
            # A post-connect failure (settimeout / makefile) must not
            # leak the dialed socket; dial errors retry above, setup
            # errors propagate.
            sock.close()
            raise
    raise TransportError(
        f"could not reach coordinator at {config.host}:{config.port} "
        f"after {attempts} attempts: {last_error}"
    )


def _heartbeat_loop(
    channel: LineChannel,
    key: str,
    interval_s: float,
    stop: threading.Event,
) -> None:
    """Renew one lease until the shard finishes (or the link dies)."""
    while not stop.wait(interval_s):
        try:
            channel.send({"op": "heartbeat", "lease": key})
        except (OSError, ValueError):
            return


def run_worker(config: WorkerConfig) -> int:
    """Serve shards until the coordinator drains; returns an exit code.

    ``0`` — drained cleanly (or the coordinator closed while we were
    idle); ``1`` — the connection died and the reconnect budget ran
    out mid-run.
    """
    fault = config.fault if config.fault is not None else worker_fault_from_env()
    reconnects = max(1, config.connect_retries)
    while True:
        try:
            channel = _connect(config)
        except TransportError:
            return 1
        try:
            channel.send(
                {
                    "op": "hello",
                    "version": WIRE_VERSION,
                    "name": config.name or f"worker-{os.getpid()}",
                    "pid": os.getpid(),
                }
            )
            verdict = _steal_loop(channel, fault)
        except (OSError, ValueError, RemoteProtocolError):
            verdict = "lost"
        finally:
            channel.close()
        if verdict in ("drain", "closed"):
            return 0
        reconnects -= 1
        if reconnects <= 0:
            return 1


def _steal_loop(channel: LineChannel, fault: ShardFaultSpec | None) -> str:
    """One connection's steal/compute/deliver cycle.

    Returns ``"drain"`` (told to exit), ``"closed"`` (EOF while idle),
    or ``"lost"`` (link broke; caller may reconnect)."""
    while True:
        channel.send({"op": "steal"})
        reply = channel.recv()
        if reply is None:
            return "closed"
        op = message_str(reply, "op")
        if op == "drain":
            return "drain"
        if op == "wait":
            time.sleep(message_float(reply, "delay"))
            continue
        if op != "task":
            raise RemoteProtocolError(f"unexpected coordinator op {op!r}")
        verdict = _run_task(channel, reply, fault)
        if verdict != "ok":
            return verdict


def _run_task(
    channel: LineChannel,
    reply: dict[str, object],
    worker_fault: ShardFaultSpec | None,
) -> str:
    """Execute one leased task and deliver (or chaos-break) its result."""
    key = message_str(reply, "lease")
    sid = message_int(reply, "shard")
    attempt = message_int(reply, "attempt")
    interval_s = message_float(reply, "heartbeat")
    # repro-lint: disable=RL12 -- the coordinator is the worker's own
    # operator-deployed peer (workers dial it by explicit host:port);
    # the isinstance check below rejects any non-ShardTask payload.
    task = unpack_payload(message_str(reply, "payload"))
    if not isinstance(task, ShardTask):
        raise RemoteProtocolError(
            f"task payload for lease {key} is not a ShardTask"
        )
    fault = task.fault if task.fault is not None else worker_fault
    if fault is not None and not fault.armed_for(sid, attempt):
        fault = None
    mode = fault.mode if fault is not None else ""

    stop = threading.Event()
    heartbeat: threading.Thread | None = None
    if mode != "stall":  # a stalled worker goes silent: no renewals
        heartbeat = threading.Thread(
            target=_heartbeat_loop,
            args=(channel, key, interval_s, stop),
            name=f"repro-worker-heartbeat-{key}",
            daemon=True,
        )
        heartbeat.start()
    try:
        result: dict[str, object]
        try:
            if fault is not None:
                fault.trip(sid, attempt)  # crash / hang / raise
            outcome = run_shard(task)
        except Exception:  # noqa: BLE001 - ship every failure home
            result = {
                "op": "result",
                "lease": key,
                "shard": sid,
                "status": "error",
                "detail": traceback.format_exc(),
            }
        else:
            result = {
                "op": "result",
                "lease": key,
                "shard": sid,
                "status": "ok",
                "payload": pack_payload(outcome),
            }
    finally:
        stop.set()
        if heartbeat is not None:
            heartbeat.join(timeout=1.0)

    if mode == "drop":
        channel.abort()  # RST: the computed result dies with the link
        return "lost"
    if fault is not None and mode == "stall":
        time.sleep(fault.sleep_s)  # lease expires; we become a zombie
    channel.send(result)
    if mode == "dup":
        channel.send(result)  # retransmit: must dedupe coordinator-side
    return "ok"


def _worker_entry(
    config: WorkerConfig, listener: socket.socket | None
) -> None:
    """Entry point of a forked worker process.

    Closing the inherited copy of the coordinator's *listener* lets its
    port close when the coordinator closes it.  SIGINT is ignored so a
    Ctrl-C reaches the coordinator alone, which drains and then ends
    the connections; SIGTERM gets its default action back."""
    if listener is not None:
        listener.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sys.exit(run_worker(config))


def spawn_worker_process(
    config: WorkerConfig, listener: socket.socket | None = None
) -> multiprocessing.process.BaseProcess:
    """Fork a child process that runs :func:`run_worker` on *config*.

    The coordinator starts its local fleet with it, passing its own
    *listener* for the child to close; tests, benchmarks and
    single-host drills of a ``bind``-ed coordinator start external
    workers with it."""
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(
        target=_worker_entry,
        args=(config, listener),
        name=f"repro-worker-{config.name or 'anon'}",
        daemon=True,
    )
    process.start()
    return process
