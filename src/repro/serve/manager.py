"""Resident-session registry: create, look up, evict, flush.

The :class:`SessionManager` is the server's only map from tenant name
to :class:`~repro.serve.session.DesignSession`.  It needs no locking:
name reservation happens synchronously on the event loop **before** a
build is dispatched (so two concurrent opens cannot both claim a name),
and every other registry access is a single dict operation — atomic
under the GIL — ordered by the per-design FIFO queue.

Capacity is part of admission control: at most ``max_sessions`` designs
stay resident; an ``open``/``generate`` beyond that is rejected with
``busy`` rather than silently evicting another tenant — eviction is an
explicit client decision (``close``), never a side effect of someone
else's traffic.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import LegalizerConfig
from repro.serve.errors import (
    AdmissionError,
    ProtocolError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.serve.protocol import (
    param_bool,
    param_float,
    param_int,
    param_str,
)
from repro.serve.session import DesignSession, SessionInfo


class SessionManager:
    """Owns every resident :class:`DesignSession`."""

    def __init__(
        self,
        base_config: LegalizerConfig | None = None,
        max_sessions: int = 8,
        fault_budget: int = 3,
        snapshot_dir: str | None = None,
        allow_fault_injection: bool = False,
    ) -> None:
        self.base_config = (
            base_config if base_config is not None else LegalizerConfig()
        )
        self.max_sessions = max_sessions
        self.fault_budget = fault_budget
        self.snapshot_dir = snapshot_dir
        self.allow_fault_injection = allow_fault_injection
        self._sessions: dict[str, DesignSession] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def get(self, name: str) -> DesignSession:
        session = self._sessions.get(name)
        if session is None or session is _RESERVED:
            raise UnknownSessionError(
                f"no resident session named {name!r} "
                f"(open or generate it first)"
            )
        return session

    def list_info(self) -> list[SessionInfo]:
        """Session summaries in deterministic (name-sorted) order."""
        return [
            self._sessions[name].info()
            for name in sorted(self._sessions)
            if self._sessions[name] is not _RESERVED
        ]

    # ------------------------------------------------------------------
    # Creation (the design build runs in a worker thread; the caller
    # reserves the name first so two concurrent opens cannot both build)
    # ------------------------------------------------------------------
    def reserve(self, name: str) -> None:
        """Claim *name* before the (slow, threaded) design build.

        Raises if the name is taken or the server is at capacity; on
        success the slot holds a placeholder until :meth:`install` or
        :meth:`release`.
        """
        if name in self._sessions:
            raise SessionExistsError(
                f"session {name!r} is already resident (close it first)"
            )
        if len(self._sessions) >= self.max_sessions:
            raise AdmissionError(
                f"server is at capacity ({self.max_sessions} resident "
                f"sessions); close one or retry later"
            )
        self._sessions[name] = _RESERVED

    def install(self, session: DesignSession) -> None:
        """Fill a reserved slot with the built session."""
        self._sessions[session.name] = session

    def release(self, name: str) -> None:
        """Drop a reserved slot after a failed build."""
        if self._sessions.get(name) is _RESERVED:
            del self._sessions[name]

    def build(self, name: str, op: str, params: dict[str, object]) -> DesignSession:
        """Construct the session for an ``open``/``generate`` request.

        Pure construction — safe off-loop; the caller must hold a
        reservation for *name* and :meth:`install` the result.
        """
        config = self._request_config(params)
        if op == "open":
            # repro-lint: disable=RL12 -- the aux path is the operator's
            # own design file: the serve CLI is a single-operator tool
            # and `open` is documented to read any path the server
            # account can; snapshots (the server-written side) stay
            # confined by _confine_snapshot_dir.
            return DesignSession.load(
                name,
                param_str(params, "aux"),
                config,
                fault_budget=self.fault_budget,
                snapshot_dir=self.snapshot_dir,
                allow_fault_injection=self.allow_fault_injection,
            )
        return DesignSession.generate(
            name,
            params,
            config,
            fault_budget=self.fault_budget,
            snapshot_dir=self.snapshot_dir,
            allow_fault_injection=self.allow_fault_injection,
        )

    def _request_config(self, params: dict[str, object]) -> LegalizerConfig:
        """Session config = server base config + per-open overrides."""
        config = self.base_config
        overrides: dict[str, object] = {}
        if "seed" in params:
            overrides["seed"] = param_int(
                params, "seed", minimum=0, maximum=2**32 - 1
            )
        if "rx" in params:
            overrides["rx"] = param_float(
                params, "rx", minimum=0.0, maximum=1000.0
            )
        if "ry" in params:
            overrides["ry"] = param_float(
                params, "ry", minimum=0.0, maximum=1000.0
            )
        if "relaxed" in params and param_bool(params, "relaxed"):
            overrides["power_aligned"] = False
        if overrides:
            try:
                config = replace(config, **overrides)  # type: ignore[arg-type]
            except ValueError as exc:
                # The wire check is only a range guard; LegalizerConfig
                # owns the real validation (integral, rx >= 1, ...).
                raise ProtocolError(f"invalid session config: {exc}") from exc
        return config

    # ------------------------------------------------------------------
    # Eviction / flush
    # ------------------------------------------------------------------
    def evict(self, name: str) -> DesignSession:
        """Remove and return a resident session (``close``)."""
        session = self.get(name)
        del self._sessions[name]
        return session

    def flush_all(self) -> list[str]:
        """Snapshot every resident design (graceful-shutdown path).

        Returns the written ``.aux`` paths in name order.  A session
        with no snapshot directory is skipped rather than failing the
        shutdown of everyone else.
        """
        written: list[str] = []
        for name in sorted(self._sessions):
            session = self._sessions[name]
            if session is _RESERVED or session.snapshot_dir is None:
                continue
            written.append(session.snapshot())
        return written


class _ReservedSlot(DesignSession):
    """Placeholder occupying a name between reserve() and install()."""

    def __init__(self) -> None:  # pragma: no cover - trivial
        # Deliberately skip DesignSession.__init__: the slot is never
        # used as a session, it only occupies the registry key.
        self.name = "<reserved>"


_RESERVED = _ReservedSlot()
