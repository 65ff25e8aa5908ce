"""Shard execution seam: selection, injection, and path parity.

The executor runs ``workers=1`` in-process and everything else through
the shard coordinator (:class:`~repro.engine.remote.TcpTransport`).
The contract under test here: the default coordinator forks its own
local fleet, ``make_transport`` builds it, an injected coordinator is
actually the one the executor uses, and both paths produce the same
shard deltas.
"""

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.core import LegalizerConfig
from repro.engine import (
    EngineConfig,
    SupervisionReport,
    TcpTransport,
    TransportResult,
    legalize_sharded,
    make_transport,
)
from repro.engine.executor import _run_inprocess
from repro.testing import design_state_digest

GEN = GeneratorConfig(num_cells=900, target_density=0.5, seed=6)
CFG = LegalizerConfig(seed=1)
ENG = dict(
    workers=2, shards=2, serial_threshold=0,
    backoff_base_s=0.01, backoff_max_s=0.05,
)


def fresh_design():
    return generate_design(GEN)


class CapturingTransport(TcpTransport):
    """The default coordinator, recording what it was handed."""

    def __init__(self, engine):
        super().__init__(engine)
        self.calls = 0
        self.tasks = []

    def execute(self, tasks, **kwargs):
        self.calls += 1
        self.tasks = list(tasks)
        return super().execute(tasks, **kwargs)


# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_local(self):
        """The default coordinator listens on loopback and owns a
        local fleet."""
        transport = make_transport(EngineConfig())
        try:
            assert isinstance(transport, TcpTransport)
            assert transport.owns_fleet
            assert transport.host == "127.0.0.1"
        finally:
            transport.close()

    def test_tcp_is_selected_and_binds_eagerly(self):
        engine = EngineConfig()
        transport = TcpTransport(engine, bind=("127.0.0.1", 0))
        try:
            assert not transport.owns_fleet  # serves external workers
            # Port is known before any worker starts.
            assert transport.port > 0
            assert transport.host == "127.0.0.1"
        finally:
            transport.close()

    def test_engine_result_reports_transport(self):
        result = legalize_sharded(fresh_design(), CFG, EngineConfig(**ENG))
        assert result.parallel
        assert result.workers == 2
        report = result.supervision
        assert report is not None
        assert sorted(a.shard_id for a in report.attempts) == [0, 1]


# ----------------------------------------------------------------------
class TestInjection:
    def test_injected_transport_is_used_and_byte_identical(self):
        baseline = fresh_design()
        legalize_sharded(baseline, CFG, EngineConfig(**ENG))

        design = fresh_design()
        engine = EngineConfig(**ENG)
        transport = CapturingTransport(engine)
        result = legalize_sharded(design, CFG, engine, transport=transport)
        assert result.parallel
        assert transport.calls == 1
        assert sorted(t.shard_id for t in transport.tasks) == [0, 1]
        assert design_state_digest(design) == design_state_digest(baseline)


# ----------------------------------------------------------------------
class TestLocalPaths:
    @pytest.fixture(scope="class")
    def tasks(self):
        """Real shard tasks, captured from a real partitioned run."""
        engine = EngineConfig(**ENG)
        transport = CapturingTransport(engine)
        legalize_sharded(fresh_design(), CFG, engine, transport=transport)
        return transport.tasks

    def test_inprocess_honors_completed_and_hook(self, tasks):
        first = _run_inprocess(tasks, None, None)

        done = {tasks[0].shard_id: first[0]}
        fired = []
        second = _run_inprocess(tasks, fired.append, done)
        # The completed shard is returned verbatim, never recomputed,
        # and the hook fires only for newly computed outcomes.
        assert [o.shard_id for o in fired] == [tasks[1].shard_id]
        assert second[0] is first[0]
        assert [o.placements for o in second] == [
            o.placements for o in first
        ]

    def test_supervised_path_reports(self, tasks):
        engine = EngineConfig(**ENG)
        result = TcpTransport(engine).execute(tasks, workers=2)
        assert result.supervision is not None
        assert result.workers == 2
        assert not result.serial_fallback
        serial = _run_inprocess(tasks, None, None)
        assert [o.placements for o in result.outcomes] == [
            o.placements for o in serial
        ]


# ----------------------------------------------------------------------
class TestTransportResult:
    def test_serial_fallback_defaults_false(self):
        assert TransportResult().serial_fallback is False

    def test_serial_fallback_follows_supervision(self):
        report = SupervisionReport()
        assert TransportResult(supervision=report).serial_fallback is False
        report.serial_fallback = True
        assert TransportResult(supervision=report).serial_fallback is True
