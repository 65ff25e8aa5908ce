"""Checkpoint/resume for the sharded engine.

A production legalization run on a large instance is minutes of CPU
time; a preempted VM, an operator ``kill -9`` or a power cut should not
cost all of it.  This module snapshots the engine's *driver state* to
disk as shards complete, and lets a fresh process pick the run back up,
skipping everything already done.

What a checkpoint holds (``CheckpointState``):

* **placed-cell deltas** — the completed shards' outcomes, verbatim
  (:class:`~repro.engine.shard_worker.ShardOutcome` carries exactly the
  per-cell ``(id, x, y)`` deltas plus statistics — nothing larger ever
  crosses the process boundary, and nothing larger needs persisting);
* **rng state** — the run seed plus the full map of derived per-shard
  seeds (:func:`~repro.engine.shard_worker.shard_seed` is deterministic,
  so the *map* doubles as a verification artifact: a resume recomputes
  it and refuses to continue on any difference);
* **shard completion map** — which shard ids are done (the keys of
  ``completed``);
* **telemetry watermark** — how many MLL call records the completed
  outcomes carry, so a resumed run's merged telemetry can be
  cross-checked against a fault-free one.

Writes are atomic: the snapshot is pickled to a temp file in the target
directory, fsynced, then ``os.replace``d over the destination — a crash
mid-write leaves the previous checkpoint intact, never a torn file.

A checkpoint is bound to its run by a **fingerprint** over the design
identity (name, floorplan, every cell's geometry and GP position), the
placement-shaping legalizer-config fields, and the partition (shard
slices + derived seeds).  Resuming against anything different raises
:class:`~repro.engine.errors.ResumeMismatchError` — splicing deltas
into a changed run would silently corrupt the placement.

The checkpoint covers the *shard phase* only: seam reconciliation is a
single sequential pass that re-runs in full on resume (it is cheap —
tens of cells — and deterministic, so the resumed run's final placement
is byte-identical to an uninterrupted one).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import LegalizerConfig
from repro.db.design import Design
from repro.engine.errors import CheckpointError, ResumeMismatchError
from repro.engine.partition import Partition
from repro.engine.shard_worker import ShardOutcome, shard_seed

#: Bump on any incompatible change to the pickled payload.
CHECKPOINT_FORMAT = 1

#: Leading bytes of a checksummed checkpoint file; the 32-byte SHA-256
#: of the pickled payload follows, then the payload itself.  Files
#: without the magic are read as legacy raw pickles (pre-checksum).
CHECKPOINT_MAGIC = b"RPCKPT1\n"


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def run_fingerprint(
    design: Design, config: LegalizerConfig, partition: Partition
) -> str:
    """SHA-256 identity of one (design, config, partition) run.

    Covers everything that shapes shard outcomes: the design's cells
    and floorplan, the legalizer-config fields that influence placement,
    and the shard geometry with its derived seeds.  Telemetry and
    supervision knobs are deliberately excluded — retry counts and
    timeouts change *when* a shard finishes, never *what* it produces.
    """
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    fp = design.floorplan
    put(
        "design", design.name, fp.num_rows, fp.row_width,
        fp.site_width_um, fp.site_height_um,
        tuple(fp.blockages), tuple(fp.fences),
    )
    for c in design.cells:
        put(c.id, c.name, c.width, c.height, c.gp_x, c.gp_y,
            c.fixed, c.x, c.y)
    put(
        "config", config.seed, config.rx, config.ry, config.power_aligned,
        config.evaluation, config.order, config.max_rounds,
        config.double_row_parity, config.max_target_displacement_um,
        config.quarantine,
    )
    put("partition", partition.halo_sites)
    for shard in partition.shards:
        put(
            shard.id, shard.interior_x0, shard.interior_x1,
            shard.slice_x0, shard.slice_x1, tuple(shard.cell_ids),
            shard_seed(config.seed, shard.id),
        )
    put("deferred", tuple(partition.deferred_cell_ids))
    return h.hexdigest()


# ----------------------------------------------------------------------
# State
# ----------------------------------------------------------------------
@dataclass(slots=True)
class CheckpointState:
    """The persisted driver state of one sharded run."""

    fingerprint: str
    seed: int
    num_shards: int
    shard_seeds: dict[int, int]
    """Derived per-shard RNG seeds — the run's entire "rng state" (the
    sequential retry RNG is re-derived from ``seed``; shards are pure
    functions of their seeds)."""
    completed: dict[int, ShardOutcome] = field(default_factory=dict)
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)

    @property
    def telemetry_watermark(self) -> int:
        """MLL call records carried by the completed outcomes."""
        return sum(
            len(o.telemetry_records) for o in self.completed.values()
        )


def save_checkpoint(path: str, state: CheckpointState) -> None:
    """Atomically persist *state* to *path* (write temp + rename).

    The file is framed as ``CHECKPOINT_MAGIC + sha256(body) + body``:
    the digest lets :func:`load_checkpoint` distinguish a *truncated or
    bit-rotted* snapshot (a real torn write on a dying filesystem, an
    interrupted copy between hosts) from a merely outdated one, and
    refuse it with a precise error instead of unpickling garbage.
    """
    body = pickle.dumps(
        {"format": CHECKPOINT_FORMAT, "state": state},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    digest = hashlib.sha256(body).digest()
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=".ckpt-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(digest)
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(
            f"cannot write checkpoint {path!r}: {exc}"
        ) from exc


def load_checkpoint(path: str) -> CheckpointState:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Checksummed files (leading :data:`CHECKPOINT_MAGIC`) are verified
    before unpickling: a truncated or corrupt snapshot raises a
    :class:`CheckpointError` naming the file, never a pickle traceback
    and never a silently wrong resume.  Files without the magic are
    read as legacy raw pickles.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint at {path!r}") from exc
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is unreadable: {exc}"
        ) from exc

    if raw.startswith(CHECKPOINT_MAGIC):
        header_len = len(CHECKPOINT_MAGIC) + hashlib.sha256().digest_size
        digest = raw[len(CHECKPOINT_MAGIC):header_len]
        body = raw[header_len:]
        if len(raw) < header_len or hashlib.sha256(body).digest() != digest:
            raise CheckpointError(
                f"checkpoint {path!r} is truncated or corrupt "
                f"(checksum mismatch over {len(body)} payload bytes); "
                f"delete it and rerun without --resume"
            )
    else:
        body = raw  # legacy pre-checksum snapshot: raw pickle

    try:
        payload = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            IndexError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is unreadable: {exc}"
        ) from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != CHECKPOINT_FORMAT
        or not isinstance(payload.get("state"), CheckpointState)
    ):
        raise CheckpointError(
            f"checkpoint {path!r} has an unsupported format "
            f"(expected format {CHECKPOINT_FORMAT})"
        )
    return payload["state"]


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Cadence-controlled checkpointing bound to one file.

    Created by the caller (CLI or library user) with a *path* and a
    flush cadence (*every* completed shards per write; 1 = every
    shard).  The executor calls :meth:`open` once the partition — and
    hence the fingerprint — is known, feeds :meth:`record` from the
    coordinator's ``on_outcome`` hook, and :meth:`flush`es a final time
    when the shard phase ends (or when a signal handler needs a last
    snapshot before dying).

    With ``resume=True``, :meth:`open` loads the existing file and
    verifies its fingerprint; completed shards are then available via
    :attr:`completed` and are never re-dispatched.
    """

    def __init__(
        self,
        path: str,
        every: int = 1,
        resume: bool = False,
        on_record: "Callable[[CheckpointState], None] | None" = None,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint cadence must be >= 1 shard")
        self.path = path
        self.every = every
        self.resume = resume
        self.on_record = on_record
        self.state: CheckpointState | None = None
        self._pending = 0

    # ------------------------------------------------------------------
    def open(
        self,
        design: Design,
        config: LegalizerConfig,
        partition: Partition,
    ) -> "CheckpointManager":
        """Bind the manager to a concrete run (compute the fingerprint).

        In resume mode the file must exist and match; otherwise a fresh
        state is created (an existing file is overwritten on the first
        flush — checkpoints are per-run artifacts, not archives).
        """
        fingerprint = run_fingerprint(design, config, partition)
        shard_seeds = {
            s.id: shard_seed(config.seed, s.id) for s in partition.shards
        }
        if self.resume:
            state = load_checkpoint(self.path)
            if state.fingerprint != fingerprint:
                raise ResumeMismatchError(
                    f"checkpoint {self.path!r} belongs to a different run "
                    f"(design, config, or partition changed); refusing to "
                    f"splice its deltas"
                )
            if state.shard_seeds != shard_seeds:  # pragma: no cover
                # The fingerprint already covers the seeds; this guards
                # against a hand-edited checkpoint.
                raise ResumeMismatchError(
                    f"checkpoint {self.path!r} carries different derived "
                    f"shard seeds than this run"
                )
            self.state = state
        else:
            self.state = CheckpointState(
                fingerprint=fingerprint,
                seed=config.seed,
                num_shards=len(partition.shards),
                shard_seeds=shard_seeds,
            )
        return self

    # ------------------------------------------------------------------
    @property
    def completed(self) -> dict[int, ShardOutcome]:
        """Shard outcomes already persisted (resume injects these)."""
        return self.state.completed if self.state is not None else {}

    def record(self, outcome: ShardOutcome) -> None:
        """Note a completed shard; flush when the cadence is due."""
        if self.state is None:
            raise CheckpointError(
                "CheckpointManager.record before open(): no run bound"
            )
        self.state.completed[outcome.shard_id] = outcome
        self._pending += 1
        if self._pending >= self.every:
            self.flush()
        if self.on_record is not None:
            self.on_record(self.state)

    def flush(self) -> None:
        """Write the current state to disk now (atomic, idempotent)."""
        if self.state is None:
            return
        self.state.updated = time.time()
        save_checkpoint(self.path, self.state)
        self._pending = 0
