"""End-to-end server tests over real sockets.

The two acceptance-critical properties live here:

* concurrent conflicting ECOs on one design serialize to
  commit-or-rollback whose final state is **byte-identical** to
  replaying the server's executed order sequentially;
* a fault-injected request rolls back without poisoning its session,
  and a quarantined session never takes its neighbors down.
"""

import threading

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.io import write_bookshelf
from repro.serve import (
    Client,
    DesignSession,
    RequestFailed,
    ServeConfig,
    ServerHandle,
)

CELLS = 80
SEED = 11

# Mirrors the `generate` op defaults (replay must rebuild identically).
GENERATE_DENSITY = 0.45
GENERATE_DOUBLE_FRACTION = 0.1


@pytest.fixture
def server(tmp_path):
    handle = ServerHandle(
        ServeConfig(
            snapshot_dir=str(tmp_path / "snap"),
            allow_fault_injection=True,
            max_sessions=4,
        )
    ).start()
    yield handle
    handle.stop()


def open_session(client: Client, name: str, seed: int = SEED) -> None:
    client.result("generate", name, {"cells": CELLS, "seed": seed})
    client.result("legalize", name, {})


def replay_digest(
    name: str, executed: list[tuple[int, dict]], seed: int = SEED
) -> str:
    """Fresh identical design + the server's seq order, sequentially."""
    design = generate_design(
        GeneratorConfig(
            num_cells=CELLS,
            target_density=GENERATE_DENSITY,
            double_row_fraction=GENERATE_DOUBLE_FRACTION,
            seed=seed,
            name=name,
        )
    )
    session = DesignSession(name, design, LegalizerConfig(seed=seed))
    session.execute("legalize", {})
    for _, params in sorted(executed, key=lambda pair: pair[0]):
        session.execute("eco", params)
    return session.digest()


class TestBasics:
    def test_ping_and_lifecycle(self, server):
        with server.client() as client:
            ping = client.result("ping")
            assert ping["protocol"] == 1
            assert ping["sessions"] == 0
            open_session(client, "chipA")
            listing = client.result("sessions")["sessions"]
            assert [s["name"] for s in listing] == ["chipA"]
            assert listing[0]["placed"] == CELLS
            closed = client.result("close", "chipA", {"snapshot": True})
            assert closed["closed"] == "chipA"
            assert closed["snapshot"].endswith("chipA.aux")
            assert client.result("ping")["sessions"] == 0

    def test_error_codes_on_the_wire(self, server):
        with server.client() as client:
            with pytest.raises(RequestFailed) as err:
                client.result("digest", "ghost")
            assert err.value.code == "unknown_session"
            open_session(client, "chipA")
            with pytest.raises(RequestFailed) as err:
                client.result("generate", "chipA", {"cells": 10})
            assert err.value.code == "session_exists"
            with pytest.raises(RequestFailed) as err:
                client.result("eco", "chipA", {"kind": "teleport"})
            assert err.value.code == "eco"

    @pytest.mark.parametrize("op", ["open", "generate"])
    @pytest.mark.parametrize(
        "overrides",
        [{"rx": 0.5}, {"rx": 0}, {"ry": 2.5}],
        ids=["rx_fractional", "rx_zero", "ry_fractional"],
    )
    def test_invalid_config_override_is_protocol_error(
        self, server, tmp_path, op, overrides
    ):
        """rx/ry pass the wire range check but fail LegalizerConfig: the
        client gets the typed protocol error and the name is released."""
        if op == "open":
            design = generate_design(GeneratorConfig(num_cells=10, seed=SEED))
            params = {"aux": write_bookshelf(design, str(tmp_path / "in"))}
        else:
            params = {"cells": 10}
        with server.client() as client:
            with pytest.raises(RequestFailed) as err:
                client.result(op, "chipA", {**params, **overrides})
            assert err.value.code == "protocol"
            assert client.result("sessions")["sessions"] == []

    def test_progress_events_stream(self, server):
        with server.client() as client:
            client.result("generate", "chipA", {"cells": CELLS})
            rid = client.send("legalize", "chipA", {})
            response = client.recv(rid)
            assert response.ok
            stages = [e.data.get("stage") for e in client.events(rid)]
            assert "started" in stages
            assert "audited" in stages


class TestConcurrentIsolation:
    def test_conflicting_ecos_serialize_to_replayable_order(self, server):
        """8 clients hammer the same cells of one design concurrently;
        the committed state must equal the sequential replay."""
        with server.client() as setup:
            open_session(setup, "chipA")

        executed: list[tuple[int, dict]] = []
        errors: list[str] = []
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            with server.client() as client:
                for k in range(4):
                    # Every worker fights over the same three cells.
                    cell = f"c{(worker + k) % 3}"
                    params = {
                        "kind": "move",
                        "cell": cell,
                        "x": 2.0 * worker + k,
                        "y": float(k % 4),
                    }
                    response = client.request("eco", "chipA", params)
                    with lock:
                        if response.ok:
                            executed.append(
                                (response.result["seq"], params)
                            )
                        else:
                            errors.append(
                                response.error_code or "internal"
                            )

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()

        assert not errors
        assert len(executed) == 32
        # seq values are the server's total execution order: unique,
        # gapless, starting right after the legalize request (seq 1).
        seqs = sorted(seq for seq, _ in executed)
        assert seqs == list(range(2, 34))

        with server.client() as check:
            server_digest = check.result("digest", "chipA")["digest"]
        assert replay_digest("chipA", executed) == server_digest

    def test_two_designs_take_traffic_independently(self, server):
        with server.client() as client:
            open_session(client, "chipA", seed=SEED)
            open_session(client, "chipB", seed=SEED + 1)

        results: dict[str, int] = {}
        lock = threading.Lock()

        def drive(name: str) -> None:
            with server.client() as client:
                done = 0
                for k in range(6):
                    response = client.request(
                        "eco",
                        name,
                        {"kind": "improve", "passes": 1, "max_moves": 5},
                    )
                    if response.ok:
                        done += 1
                with lock:
                    results[name] = done

        threads = [
            threading.Thread(target=drive, args=(n,))
            for n in ("chipA", "chipB")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {"chipA": 6, "chipB": 6}


class TestFaultDomains:
    def test_injected_fault_rolls_back_session_survives(self, server):
        with server.client() as client:
            open_session(client, "chipA")
            before = client.result("digest", "chipA")["digest"]
            with pytest.raises(RequestFailed) as err:
                client.result(
                    "eco",
                    "chipA",
                    {"kind": "move", "cell": "c1", "x": 3.0, "y": 1.0,
                     "fault_at": 1},
                )
            assert err.value.code == "fault"
            after = client.result("digest", "chipA")
            assert after["digest"] == before
            # The session still takes work afterwards.
            result = client.result(
                "eco",
                "chipA",
                {"kind": "improve", "passes": 1, "max_moves": 5},
            )
            assert result["committed"] is True

    def test_quarantine_is_per_tenant(self, tmp_path):
        handle = ServerHandle(
            ServeConfig(
                snapshot_dir=str(tmp_path / "snap"),
                allow_fault_injection=True,
                fault_budget=1,
            )
        ).start()
        try:
            with handle.client() as client:
                open_session(client, "chipA")
                open_session(client, "chipB", seed=SEED + 1)
                with pytest.raises(RequestFailed) as err:
                    client.result(
                        "eco",
                        "chipA",
                        {"kind": "move", "cell": "c1", "x": 3.0,
                         "y": 1.0, "fault_at": 1},
                    )
                assert err.value.code == "fault"
                # chipA is quarantined now (budget 1)...
                with pytest.raises(RequestFailed) as err:
                    client.result(
                        "eco",
                        "chipA",
                        {"kind": "improve", "passes": 1},
                    )
                assert err.value.code == "quarantined"
                # ...but chipB never noticed, and chipA can still be
                # snapshotted and closed (salvage, not eviction).
                ok = client.result(
                    "eco", "chipB", {"kind": "improve", "passes": 1}
                )
                assert ok["committed"] is True
                names = [
                    s["name"]
                    for s in client.result("sessions")["sessions"]
                ]
                assert names == ["chipA", "chipB"]
                closed = client.result(
                    "close", "chipA", {"snapshot": True}
                )
                assert closed["snapshot"].endswith("chipA.aux")
        finally:
            handle.stop()


class TestAdmissionAndShutdown:
    def test_queue_full_rejects_with_busy(self, tmp_path):
        handle = ServerHandle(
            ServeConfig(max_inflight=1, queue_depth=1)
        ).start()
        try:
            with handle.client() as client:
                open_session(client, "chipA")
                # Pipeline several slow requests without reading
                # responses: 1 executes, 1 queues, the rest must be
                # rejected at the door.
                rids = [
                    client.send(
                        "eco",
                        "chipA",
                        {"kind": "improve", "passes": 2},
                    )
                    for _ in range(5)
                ]
                responses = [client.recv(rid) for rid in rids]
                busy = [
                    r
                    for r in responses
                    if not r.ok and r.error_code == "busy"
                ]
                served = [r for r in responses if r.ok]
                assert busy, "admission control never rejected"
                assert served, "no request was served at all"
        finally:
            handle.stop()

    def test_shutdown_flushes_all_sessions(self, tmp_path):
        snap = tmp_path / "snap"
        handle = ServerHandle(
            ServeConfig(snapshot_dir=str(snap))
        ).start()
        with handle.client() as client:
            open_session(client, "chipA")
            open_session(client, "chipB", seed=SEED + 1)
        flushed = handle.stop()
        assert sorted(p.rsplit("/", 1)[-1] for p in flushed) == [
            "chipA.aux",
            "chipB.aux",
        ]
        from repro.checker import verify_placement
        from repro.io import read_bookshelf

        for path in flushed:
            design = read_bookshelf(path)
            assert (
                verify_placement(design, require_all_placed=False) == []
            )

    def test_shutdown_op_stops_server(self, tmp_path):
        handle = ServerHandle(ServeConfig()).start()
        with handle.client() as client:
            assert client.result("shutdown")["shutting_down"] is True
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
