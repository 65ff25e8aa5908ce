"""Fleet hygiene: a ``workers=2`` run leaves nothing behind.

Every parallel run forks a local worker fleet and opens a coordinator
port, so a leaked child, socket or thread would now hit every run.
After ``legalize_sharded`` returns or raises, no child process may be
alive, the coordinator port must refuse connections, and no
coordinator thread may be running — on a clean run, on a run whose
worker crashed, and on a run drained with a hung worker in flight.
"""

import multiprocessing
import socket
import threading

import pytest

import repro.engine.executor as executor_module
from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.engine import EngineConfig, TransportError, legalize_sharded
from repro.testing import ShardFaultSpec

GEN = GeneratorConfig(num_cells=700, target_density=0.5, seed=9)
CFG = LegalizerConfig(seed=1)
ENG = dict(
    workers=2, shards=2, serial_threshold=0,
    backoff_base_s=0.01, backoff_max_s=0.05,
)


@pytest.fixture
def coordinators(monkeypatch):
    """Every coordinator the executor builds during the test."""
    built = []
    make = executor_module.make_transport

    def recording(engine):
        transport = make(engine)
        built.append(transport)
        return transport

    monkeypatch.setattr(executor_module, "make_transport", recording)
    return built


def assert_no_leftovers(coordinators):
    assert len(coordinators) == 1
    assert multiprocessing.active_children() == []
    port = coordinators[0].port
    assert port > 0
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    alive = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-coordinator")
    ]
    assert alive == []


def test_clean_run_leaves_no_children(coordinators):
    result = legalize_sharded(
        generate_design(GEN), CFG, EngineConfig(**ENG)
    )
    assert result.parallel
    assert_no_leftovers(coordinators)


def test_crashed_worker_is_reaped(coordinators):
    result = legalize_sharded(
        generate_design(GEN), CFG, EngineConfig(**ENG),
        fault=ShardFaultSpec(shard_id=0, mode="crash", attempts=1),
    )
    assert result.parallel and result.supervision.crashes == 1
    assert_no_leftovers(coordinators)


def test_drain_abort_reaps_a_hung_worker(coordinators, monkeypatch):
    """Shard 1's worker hangs (heartbeating, no timeout); a drain
    request mid-run aborts with the resume hint, and the hung worker
    is killed rather than left sleeping."""
    record = executor_module.make_transport
    timers = []

    def drain_soon(engine):
        transport = record(engine)
        timers.append(threading.Timer(0.5, transport.request_drain))
        timers[-1].start()
        return transport

    monkeypatch.setattr(executor_module, "make_transport", drain_soon)
    with pytest.raises(TransportError, match="--resume"):
        legalize_sharded(
            generate_design(GEN), CFG,
            EngineConfig(**ENG, drain_grace_s=0.2),
            fault=ShardFaultSpec(
                shard_id=1, mode="hang", attempts=1, sleep_s=60.0
            ),
        )
    for timer in timers:
        timer.join()
    assert_no_leftovers(coordinators)
