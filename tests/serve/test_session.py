"""DesignSession unit tests: commit-or-rollback, faults, quarantine."""

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.serve import DesignSession, EcoError, SessionQuarantinedError
from repro.serve.errors import ProtocolError
from repro.testing.faults import InjectedFault


def make_session(
    name: str = "t", cells: int = 60, seed: int = 3, **kwargs
) -> DesignSession:
    design = generate_design(
        GeneratorConfig(num_cells=cells, seed=seed, name=name)
    )
    return DesignSession(
        name, design, LegalizerConfig(seed=seed), **kwargs
    )


def legalized_session(**kwargs) -> DesignSession:
    session = make_session(**kwargs)
    session.execute("legalize", {})
    return session


class TestLifecycle:
    def test_legalize_commits_and_audits(self):
        session = make_session()
        result = session.execute("legalize", {})
        assert result["committed"] is True
        assert result["violations"] == 0
        assert result["placed"] == len(session.design.cells)
        assert result["seq"] == 1
        assert result["digest"] == session.digest()

    def test_parallel_legalize_streams_progress_and_matches_serial(
        self, tmp_path
    ):
        """workers=2 runs through the shard coordinator: the result is
        parallel, checkpoint watermarks stream as progress, no worker
        outlives the request, and the placement equals workers=1."""
        import multiprocessing

        events = []
        session = make_session(
            cells=400, snapshot_dir=str(tmp_path / "snap")
        )
        result = session.execute(
            "legalize", {"workers": 2, "shards": 2}, progress=events.append
        )
        assert result["parallel"] is True
        assert result["workers"] == 2 and result["num_shards"] == 2
        assert result["violations"] == 0
        shards = [e for e in events if e["stage"] == "shards"]
        assert [e["done"] for e in shards] == [1, 2]
        assert all(e["total"] == 2 for e in shards)
        assert events[0]["stage"] == "started"
        assert events[-1]["stage"] == "audited"
        assert multiprocessing.active_children() == []

        serial = make_session(cells=400)
        serial.execute("legalize", {"workers": 1, "shards": 2})
        assert result["digest"] == serial.digest()

    def test_stats_and_digest_do_not_advance_seq(self):
        session = legalized_session()
        seq = session.seq
        stats = session.execute("stats", {})
        digest = session.execute("digest", {})
        assert session.seq == seq
        assert stats["seq"] == seq
        assert digest["digest"] == session.digest()
        assert len(stats["die_um"]) == 2

    def test_snapshot_roundtrips_a_legal_design(self, tmp_path):
        from repro.checker import verify_placement
        from repro.io import read_bookshelf

        session = legalized_session()
        aux = session.snapshot(str(tmp_path))
        reread = read_bookshelf(aux)
        assert verify_placement(reread, require_all_placed=False) == []
        assert sum(1 for c in reread.cells if c.is_placed) == len(
            session.design.cells
        )

    def test_snapshot_without_directory_fails(self):
        session = make_session()
        with pytest.raises(EcoError):
            session.snapshot()

    def test_snapshot_op_confines_dir_to_snapshot_dir(self, tmp_path):
        snap = tmp_path / "snap"
        session = legalized_session(snapshot_dir=str(snap))
        result = session.execute("snapshot", {"dir": "sub"})
        assert result["path"].startswith(str(snap))
        for escape in ("../outside", str(tmp_path / "elsewhere")):
            with pytest.raises(EcoError):
                session.execute("snapshot", {"dir": escape})
        assert not (tmp_path / "outside").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_snapshot_op_dir_requires_configured_snapshot_dir(
        self, tmp_path
    ):
        session = legalized_session()
        with pytest.raises(EcoError):
            session.execute("snapshot", {"dir": str(tmp_path)})


class TestEcoCommitOrRollback:
    def test_committed_move_changes_digest(self):
        session = legalized_session()
        before = session.digest()
        cell = next(c for c in session.design.cells if not c.fixed)
        result = session.execute(
            "eco",
            {
                "kind": "move",
                "cell": cell.name,
                "x": cell.x + 2.0,
                "y": float(cell.y),
            },
        )
        assert result["committed"] is True
        assert result["digest"] != before
        assert result["seq"] == 2

    def test_infeasible_move_rolls_back(self):
        session = legalized_session()
        before = session.digest()
        cell = next(c for c in session.design.cells if not c.fixed)
        result = session.execute(
            "eco",
            {"kind": "move", "cell": cell.name, "x": 1e6, "y": 1e6},
        )
        assert result["committed"] is False
        assert result["rolled_back"] is True
        assert result["digest"] == before
        # A rolled-back request still advances seq: it executed.
        assert result["seq"] == 2

    def test_unknown_cell_is_client_error_not_fault(self):
        session = legalized_session()
        before = session.digest()
        with pytest.raises(EcoError):
            session.execute(
                "eco", {"kind": "move", "cell": "zzz", "x": 1, "y": 1}
            )
        assert session.digest() == before
        assert session.consecutive_faults == 0
        assert session.seq == 1

    def test_unknown_kind_rejected(self):
        session = legalized_session()
        with pytest.raises(EcoError):
            session.execute("eco", {"kind": "teleport"})

    def test_wire_bounds_rejected_before_any_work(self):
        session = make_session()
        with pytest.raises(ProtocolError, match="must be >= 1"):
            session.execute("legalize", {"workers": 0})
        with pytest.raises(ProtocolError, match="must be <= 64"):
            session.execute("legalize", {"workers": 65})
        with pytest.raises(ProtocolError, match="must be <= 256"):
            session.execute("legalize", {"shards": 1000})
        assert session.seq == 0  # nothing committed

    def test_generate_bounds_rejected(self):
        config = LegalizerConfig(seed=1)
        with pytest.raises(ProtocolError, match="must be >= 1"):
            DesignSession.generate("g", {"cells": 0}, config)
        with pytest.raises(ProtocolError, match="must be <= 0.95"):
            DesignSession.generate("g", {"density": 0.99}, config)
        with pytest.raises(ProtocolError, match="must be >= 0"):
            DesignSession.generate("g", {"seed": -1}, config)

    def test_unknown_op_rejected(self):
        session = legalized_session()
        with pytest.raises(ProtocolError):
            session.execute("frobnicate", {})

    def test_improve_and_swap_pass_commit(self):
        session = legalized_session()
        improved = session.execute(
            "eco", {"kind": "improve", "passes": 1, "max_moves": 10}
        )
        assert improved["committed"] is True
        swapped = session.execute(
            "eco", {"kind": "swap_pass", "max_pairs": 8}
        )
        assert swapped["committed"] is True
        assert swapped["seq"] == 3


class TestResetRollback:
    @pytest.mark.parametrize("trip_at", [1, 30, 70])
    def test_failed_reset_legalize_restores_prior_placement(
        self, trip_at
    ):
        """A fault mid reset+legalize must roll back to the exact
        pre-request placement — the reset is journaled, so a failure
        cannot leave the design unplaced (trip_at 1/30 land inside the
        reset itself, 70 inside the re-legalization)."""
        from repro.testing.faults import FaultInjector

        session = legalized_session()
        before = session.digest()
        with FaultInjector(session.design, trip_at=trip_at):
            with pytest.raises(InjectedFault):
                session.execute("legalize", {"reset": True})
        assert session.digest() == before
        assert not session.quarantined
        assert session.consecutive_faults == 1
        assert session.seq == 1

    def test_reset_legalize_commits_a_full_replacement(self):
        session = legalized_session()
        result = session.execute("legalize", {"reset": True})
        assert result["committed"] is True
        assert result["violations"] == 0
        assert result["placed"] == len(session.design.cells)
        assert result["seq"] == 2


class TestSerializedReplay:
    def test_same_eco_order_gives_identical_digest(self):
        trace = [
            {"kind": "improve", "passes": 1, "max_moves": 12},
            {"kind": "swap_pass", "max_pairs": 10},
            {"kind": "move", "cell": "c3", "x": 10.0, "y": 4.0},
            {"kind": "move", "cell": "c7", "x": 1e6, "y": 1e6},
            {"kind": "resize", "cell": "c5", "width": 2},
        ]
        digests = []
        for _ in range(2):
            session = legalized_session()
            for params in trace:
                session.execute("eco", dict(params))
            digests.append(session.digest())
        assert digests[0] == digests[1]


class TestFaultDomain:
    def test_injected_fault_rolls_back_without_poisoning(self):
        session = legalized_session(allow_fault_injection=True)
        before = session.digest()
        cell = next(c for c in session.design.cells if not c.fixed)
        with pytest.raises(InjectedFault):
            session.execute(
                "eco",
                {
                    "kind": "move",
                    "cell": cell.name,
                    "x": cell.x + 2.0,
                    "y": float(cell.y),
                    "fault_at": 1,
                },
            )
        # Rolled back to the byte, charged to the budget, not fatal.
        assert session.digest() == before
        assert session.consecutive_faults == 1
        assert not session.quarantined
        # A clean request resets the consecutive-fault counter.
        result = session.execute(
            "eco",
            {
                "kind": "move",
                "cell": cell.name,
                "x": cell.x + 2.0,
                "y": float(cell.y),
            },
        )
        assert result["seq"] == 2
        assert session.consecutive_faults == 0

    def test_fault_injection_disabled_by_default(self):
        session = legalized_session()
        with pytest.raises(EcoError):
            session.execute(
                "eco",
                {"kind": "move", "cell": "c1", "x": 1.0, "y": 1.0,
                 "fault_at": 1},
            )

    def test_budget_exhaustion_quarantines(self):
        session = legalized_session(
            allow_fault_injection=True, fault_budget=2
        )
        cell = next(c for c in session.design.cells if not c.fixed)
        params = {
            "kind": "move",
            "cell": cell.name,
            "x": cell.x + 2.0,
            "y": float(cell.y),
            "fault_at": 1,
        }
        for _ in range(2):
            with pytest.raises(InjectedFault):
                session.execute("eco", dict(params))
        assert session.quarantined
        assert "budget" in (session.quarantine_reason or "")
        with pytest.raises(SessionQuarantinedError):
            session.execute(
                "eco",
                {"kind": "move", "cell": cell.name, "x": 1.0, "y": 1.0},
            )
        # Salvage paths stay open.
        assert session.execute("digest", {})["digest"] == session.digest()
        assert session.execute("stats", {})["seq"] == session.seq
