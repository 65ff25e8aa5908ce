"""One legalization pass in a fresh process, as a `repro legalize` user runs it.

Started by ``run.py`` once per pass.  The process imports ``repro``,
reads the workload's Bookshelf bundle and reports how long that took
from the moment the parent launched it (``setup_s``); mode ``setup``
stops there.  It then legalizes the whole design (serially, or sharded
at ``workers=2`` with two shards), checks the placement, and, pinned to
ECO_CPU, times the seed's point moves from :mod:`repro.bench.traffic`
on the legalized design through ``repro.apps.move_cell``.  It prints
one JSON object as its last line; every timing comes with its
``time.monotonic`` stamps, so ``run.py`` can rescale it by the host
speed measured at that moment.

Usage (normally only from ``run.py``)::

    python3 perfbench/legalize_pass.py AUX serial|sharded|setup SEED \\
        LAUNCHED_MONOTONIC MOVES TRACE(0|1) ECO_CPU
"""

from __future__ import annotations

import os
import sys
import time

#: ``repro.bench.traffic.DEFAULT_MIX`` without the batch ``improve`` and
#: ``swap_pass`` ECOs: those run 10-50x longer than a point ECO, so with
#: them the p95 latency fell on the boundary between two populations.
POINT_ECO_MIX = (("move", 0.45), ("swap", 0.20), ("resize", 0.12), ("buffer", 0.08))
#: The ECOs timed after a legalization pass: moves only.  Without the
#: server's two digests per request, a resize or swap costs a fraction of
#: a move, so with the full point mix the p50 fell on the boundary
#: between the move and non-move populations and swung with the seed.
MOVE_MIX = (("move", 1.0),)


def main(argv: list[str]) -> int:
    aux, mode, seed_s, launched_s, eco_s, trace_s, eco_cpu = argv
    seed, eco_requests, traced = int(seed_s), int(eco_s), trace_s == "1"
    launched = float(launched_s)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    import json
    import resource

    import repro.apps
    import repro.io
    from repro.checker import verify_placement
    from repro.checker.metrics import displacement_stats
    from repro.core.config import LegalizerConfig
    from repro.core.legalizer import Legalizer
    from repro.db.journal import Transaction
    from repro.engine import EngineConfig, legalize_sharded
    from repro.testing.faults import design_state_digest

    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    design = repro.io.read_bookshelf(aux)
    ready = time.monotonic()
    out: dict[str, object] = {"setup_s": ready - launched, "setup_t": (launched, ready)}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    config = LegalizerConfig(seed=seed)
    t0 = time.monotonic()
    if mode == "serial":
        result = Legalizer(design, config).run()
        engine = None
    else:
        engine = legalize_sharded(design, config, EngineConfig(workers=2, shards=2))
        result = engine.result
    t1 = time.monotonic()
    out["legalize_s"] = t1 - t0
    out["legalize_t"] = (t0, t1)

    movable = sum(1 for _ in design.movable_cells())
    out["all_placed"] = all(c.is_placed for c in design.movable_cells())
    out["violations"] = len(verify_placement(design, power_aligned=config.power_aligned))
    out["digest"] = design_state_digest(design)
    out["avg_disp_sites"] = displacement_stats(design).avg_sites
    out["hpwl_ratio"] = design.hpwl_um() / design.hpwl_um(use_gp=True)
    out["cells"] = movable
    out["direct"] = result.direct_placements
    out["placed"] = result.placed
    out["rounds"] = result.rounds
    out["mll_calls"] = result.mll_calls
    out["mll_failures"] = result.mll_failures
    if engine is not None:
        out["parallel"] = engine.parallel
        out["num_shards"] = engine.num_shards
        out["seam_conflicts"] = engine.seam.conflicts
        out["shard_runtime_s"] = [s.runtime_s for s in engine.shard_stats]
    if tracer is not None:
        out["layers"] = tracer.fold(("core.legalize", "engine.legalize_sharded"))
        tracer.clear()

    cells = {c.name: c for c in design.cells}
    fp = design.floorplan
    trace = point_eco_trace(
        seed, ("design",), eco_requests, len(cells), 0, (fp.row_width, fp.num_rows), MOVE_MIX
    )
    # The moves run inside one transaction.  Their end state is checked,
    # then rolled back, which must restore the legalized state exactly.
    # Each latency is stored as [start, ms].
    os.sched_setaffinity(0, {int(eco_cpu)})
    latencies = []
    committed = errors = 0
    with Transaction(design) as txn:
        for request in trace:
            move = request.params
            t0 = time.monotonic()
            try:
                committed += repro.apps.move_cell(
                    design, cells[move["cell"]], move["x"], move["y"], config
                )
            except ValueError:
                errors += 1  # move_cell's precondition check: a client error
            latencies.append((t0, (time.monotonic() - t0) * 1e3))
        out["eco_violations"] = len(verify_placement(design, power_aligned=config.power_aligned))
        out["eco_digest"] = design_state_digest(design)
        txn.rollback()
    out["eco_rollback_exact"] = design_state_digest(design) == out["digest"]
    out["eco_latencies_ms"] = latencies
    out["eco_committed"] = committed
    out["eco_errors"] = errors
    if tracer is not None:
        out["eco_layers"] = tracer.fold()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = rss_kb / 1024.0
    print(json.dumps(out))
    return 0


def point_eco_trace(
    seed: int,
    sessions: tuple[str, ...],
    requests: int,
    cells: int,
    nets: int,
    extent_sites: tuple[int, int],
    mix: tuple[tuple[str, float], ...] = POINT_ECO_MIX,
) -> list:
    """The seed's point-ECO traffic from :mod:`repro.bench.traffic`.

    Move targets are drawn over the whole die, in sites.  A buffer
    insertion replaces its net by two new nets, so a later request to
    buffer the same net of the same session could only be refused; such
    repeats are dropped, and every request left can succeed.
    """
    from repro.bench.traffic import TrafficConfig, generate_traffic

    config = TrafficConfig(
        seed=seed,
        num_requests=requests,
        sessions=sessions,
        cells_per_session=cells,
        nets_per_session=nets,
        extent_um=(float(extent_sites[0]), float(extent_sites[1])),
        mix=mix,
    )
    buffered: set[tuple[str, object]] = set()
    trace = []
    for request in generate_traffic(config):
        if request.params["kind"] == "buffer":
            key = (request.session, request.params["net"])
            if key in buffered:
                continue
            buffered.add(key)
        trace.append(request)
    return trace


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
