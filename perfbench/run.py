"""End-to-end benchmark of `repro legalize` and `repro serve`.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/WORKLOADS.md`` for why each was chosen and
which layers it stresses and bypasses):

``sparse_serial``  ``fft_a`` shape (density 0.25), 15,312 cells, serial
``dense_serial``   ``fft_1`` shape (density 0.84), 4,035 cells, serial
``dense_sharded``  the ``dense_serial`` bundle, ``legalize_sharded`` at
                   ``workers=2``, two shards
``eco_stream``     ``repro serve`` holding two legalized ``fft_2``-shaped
                   designs (density 0.5, 4,035 cells each), one
                   closed-loop client per session sending point ECOs

The inputs are generated from ``--seed`` by :mod:`repro.bench` and
written as Bookshelf bundles under ``perfbench/.work`` before anything
is timed; the program only ever reads the bundles.  Every legalization
and ECO answer is checked (see :func:`_check_passes`,
:func:`_legalize_sessions` and :func:`_replay_check`); a failed check
lowers ``ok_frac`` or fails the run, sets ``correct`` to false and makes
the command exit 1.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
PASS_SCRIPT = os.path.join(HERE, "legalize_pass.py")
COMMITTED_REFERENCES = os.path.join(HERE, "references.json")
LOCAL_REFERENCES = os.path.join(WORK, "references.json")

#: name -> (Table-1 shape, scale of the paper's cell count, mode)
LEGALIZE_WORKLOADS = {
    "sparse_serial": ("fft_a", 0.5, "serial"),
    "dense_serial": ("fft_1", 0.125, "serial"),
    "dense_sharded": ("fft_1", 0.125, "sharded"),
}
ECO_SHAPE, ECO_SCALE = "fft_2", 0.125
WORKLOADS = (*LEGALIZE_WORKLOADS, "eco_stream")

#: Each legalization pass runs in its own process; the median over at
#: least this many passes is reported.
MIN_PASSES = 3
MAX_PASSES = 9
#: Process launches per run that give ``setup_s``: the passes, then
#: launches that only import ``repro`` and read the bundle.
SETUP_LAUNCHES = 5
#: Point moves timed on the legalized design after each pass.
ECO_REQUESTS_PER_PASS = 400
#: ``repro serve`` is started this many times per run for ``setup_s``.
SERVER_LAUNCHES = 3
#: Point ECOs per second of ``--seconds`` on ``eco_stream``; never fewer
#: than 200, so at least ten samples lie beyond the p95.
ECO_STREAM_REQUESTS_PER_S = 40
MIN_ECO_SAMPLES = 200
CHILD_TIMEOUT_S = 150

#: Minimum share of the traced legalize_s that layer spans must cover on
#: the serial workloads.
COVERAGE_GATE = 0.90
#: Minimum share of its layer each workload must show in a traced run,
#: on any seed: the workload still loads the layer it was chosen for.
LAYER_LOAD_GATES = {
    "sparse_serial": ("db.nearest_position share of legalize_s", 0.15),
    "dense_serial": ("core.mll + stages share of legalize_s", 0.80),
    "dense_sharded": ("engine.transport share of legalize_s", 0.50),
    "eco_stream": ("serve.digest share of serve.execute", 0.40),
}


class CheckLog:
    """Counts operations attempted and the checks they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def operations(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed} of {attempted}: {what}")

    def operation(self, ok: bool, what: str) -> None:
        self.operations(1, 0 if ok else 1, what)

    def check(self, ok: bool, what: str) -> None:
        """A whole-run check: failing it fails the run, not one operation."""
        if not ok:
            self.messages.append(what)

    @property
    def correct(self) -> bool:
        return not self.messages

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


# ----------------------------------------------------------------------
# Inputs and references
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_AUDIT", None)  # the audit would be timed as legalization
    return env


def write_bundle(shape: str, scale: float, seed: int, directory: str, name: str) -> str:
    from repro.bench.ispd2015 import make_benchmark
    from repro.io import write_bookshelf

    design = make_benchmark(shape, scale=scale, seed=seed)
    return write_bookshelf(design, os.path.join(directory, name), name)


def _load_json(path: str) -> dict[str, str]:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def matches_reference(key: str, digest: str) -> bool:
    """Compare *digest* with the seed's reference.

    ``references.json`` holds the digests recorded when the benchmark
    was defined; a seed not listed there is pinned by its first run in
    this checkout (``.work/references.json``), so every later run of
    that seed must reproduce it.
    """
    committed = _load_json(COMMITTED_REFERENCES)
    if key in committed:
        return committed[key] == digest
    local = _load_json(LOCAL_REFERENCES)
    if key in local:
        return local[key] == digest
    local[key] = digest
    tmp = LOCAL_REFERENCES + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(local, f, indent=1, sort_keys=True)
    os.replace(tmp, LOCAL_REFERENCES)
    return True


def nearest_rank(samples: list[float], pct: float) -> float:
    from repro.core.stats import nearest_rank as _nearest_rank

    return _nearest_rank(sorted(samples), pct)


# ----------------------------------------------------------------------
# Legalize workloads
# ----------------------------------------------------------------------
def pinned(cpus: set[int]):
    """A ``preexec_fn`` confining the child process to *cpus* from its start."""
    return lambda: os.sched_setaffinity(0, cpus)


def run_pass(aux: str, mode: str, seed: int, traced: bool, cpus: set[int], eco_cpu: int) -> dict:
    """One legalization pass in a fresh interpreter confined to *cpus*."""
    launched = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            PASS_SCRIPT,
            aux,
            mode,
            str(seed),
            repr(launched),
            str(ECO_REQUESTS_PER_PASS),
            "1" if traced else "0",
            str(eco_cpu),
        ],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        preexec_fn=pinned(cpus),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"legalization pass failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_passes(workload: str, seed: int, passes: list[dict], log: CheckLog) -> None:
    first = passes[0]
    key = f"{workload}:{seed}:{first['cells']}"
    for i, p in enumerate(passes):
        ok = (
            p["all_placed"]
            and p["violations"] == 0
            and p["placed"] == p["cells"]
            and p["digest"] == first["digest"]
            and matches_reference(key, p["digest"])
            and (p["avg_disp_sites"], p["hpwl_ratio"])
            == (first["avg_disp_sites"], first["hpwl_ratio"])
        )
        log.operation(ok, f"pass {i}: legalization not clean or digest {p['digest'][:12]} differs")
        log.operations(
            len(p["eco_latencies_ms"]), p["eco_errors"], f"pass {i}: ECO requests raised"
        )
        log.check(p["eco_rollback_exact"], f"pass {i}: rolling the moves back changed the state")
        log.check(p["eco_violations"] == 0, f"pass {i}: ECOs left {p['eco_violations']} violations")
        log.check(
            p["eco_digest"] == first["eco_digest"],
            f"pass {i}: the ECO trace ended in another state",
        )


def _pass_cpus(mode: str, host: HostSpeed) -> tuple[set[int], tuple[int, ...]]:
    """CPUs a pass may run on, and those whose speed rescales its times.

    A serial pass keeps to ``host.cpus[0]``; a sharded pass and its two
    workers get every CPU, so both CPUs' speeds count.
    """
    if mode == "serial":
        return set(host.cpus[:1]), host.cpus[:1]
    return set(host.cpus), host.cpus


def legalize_workload(workload: str, seed: int, seconds: int, work: str) -> tuple[dict, CheckLog]:
    shape, scale, mode = LEGALIZE_WORKLOADS[workload]
    aux = write_bundle(shape, scale, seed, work, shape)
    log = CheckLog()
    passes: list[dict] = []
    with HostSpeed(work) as host:
        os.sched_setaffinity(0, {host.cpus[-1]})
        cpus, measured = _pass_cpus(mode, host)
        eco_cpus = host.cpus[:1]
        t0 = time.monotonic()
        while len(passes) < MIN_PASSES or (
            time.monotonic() - t0 < seconds and len(passes) < MAX_PASSES
        ):
            passes.append(run_pass(aux, mode, seed, False, cpus, eco_cpus[0]))
        setups = [(p["setup_s"], p["setup_t"]) for p in passes]
        while len(setups) < SETUP_LAUNCHES:
            only = run_pass(aux, "setup", seed, False, cpus, eco_cpus[0])
            setups.append((only["setup_s"], only["setup_t"]))
    _check_passes(workload, seed, passes, log)

    # Every time is rescaled to the reference host speed measured while
    # it ran.  Every pass times the same moves on the same legalized
    # design, so each move's latency is its median over the passes.
    setup = [host.scale(seconds, *t, measured) for seconds, t in setups]
    legalize = [host.scale(p["legalize_s"], *p["legalize_t"], measured) for p in passes]
    replays = [
        [host.scale(ms, t, t + ms / 1e3, eco_cpus) for t, ms in p["eco_latencies_ms"]]
        for p in passes
    ]
    latencies = [statistics.median(samples) for samples in zip(*replays)]
    committed = passes[0]["eco_committed"]
    answered = len(latencies) - passes[0]["eco_errors"]
    print(
        f"{workload}: before rescaling, setup_s "
        f"{statistics.median(seconds for seconds, _ in setups):.4f}; legalize_s/slowdown per pass "
        + " ".join(
            f"{p['legalize_s']:.3f}/{host.slowdown(*p['legalize_t'], measured):.3f}" for p in passes
        )
    )
    metrics = {
        "setup_s": statistics.median(setup),
        "legalize_s": statistics.median(legalize),
        "avg_disp_sites": passes[0]["avg_disp_sites"],
        "hpwl_ratio": passes[0]["hpwl_ratio"],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_frac": log.ok_frac,
        "eco_per_s": len(latencies) / (sum(latencies) / 1e3),
        "eco_p50_ms": nearest_rank(latencies, 50),
        "eco_p95_ms": nearest_rank(latencies, 95),
        "eco_commit_frac": committed / answered if answered else 0.0,
    }
    print(
        f"{workload} seed={seed}: {len(passes)} passes, "
        f"{passes[0]['cells']} cells, {len(latencies)} ECO latency samples "
        f"(median of {len(replays)} passes each), "
        f"digest {passes[0]['digest'][:16]}"
    )
    return metrics, log


def legalize_workload_traced(workload: str, seed: int, work: str) -> tuple[dict, CheckLog]:
    shape, scale, mode = LEGALIZE_WORKLOADS[workload]
    aux = write_bundle(shape, scale, seed, work, shape)
    log = CheckLog()
    with HostSpeed(work) as host:
        os.sched_setaffinity(0, {host.cpus[-1]})
        cpus, measured = _pass_cpus(mode, host)
        untraced = run_pass(aux, mode, seed, False, cpus, host.cpus[0])
        traced = run_pass(aux, mode, seed, True, cpus, host.cpus[0])
    _check_passes(workload, seed, [untraced, traced], log)

    legal = traced["layers"]
    legalize_s = traced["legalize_s"]
    overhead = host.scale(legalize_s, *traced["legalize_t"], measured) / host.scale(
        untraced["legalize_s"], *untraced["legalize_t"], measured
    )
    metrics = _layer_metrics(legal, traced["eco_layers"])
    mll_calls = traced["mll_calls"]
    metrics.update(
        {
            "core.direct_frac": traced["direct"] / traced["placed"],
            "core.retry_rounds": traced["rounds"],
            "core.mll.calls": mll_calls,
            "core.mll.success_frac": 1.0 - traced["mll_failures"] / mll_calls if mll_calls else 1.0,
            "trace.overhead_frac": overhead - 1.0,
            "trace.coverage_frac": legal["covered_s"] / legalize_s,
        }
    )
    if mode == "sharded":
        # The shards run in worker processes the wrappers do not see;
        # their compute time comes back on EngineResult.shard_stats.
        compute = traced["shard_runtime_s"]
        transport = legal["self_s"].get("engine.transport", 0.0)
        metrics.update(
            {
                "engine.transport_s": transport,
                "engine.shard_compute_max_s": max(compute),
                "engine.shard_imbalance": max(compute) / statistics.mean(compute),
                "engine.transport_wait_s": transport - max(compute),
                "engine.seam_conflicts": traced["seam_conflicts"],
            }
        )
        log.check(
            traced["parallel"] and traced["num_shards"] == 2,
            "the sharded pass fell back to the serial path",
        )
        share = transport / legalize_s
    elif workload == "sparse_serial":
        share = metrics["db.nearest_position_s"] / legalize_s
    else:
        share = sum(legal["self_s"].get(span, 0.0) for span in MLL_SPANS) / legalize_s
    if mode == "serial":
        log.check(
            metrics["trace.coverage_frac"] >= COVERAGE_GATE,
            f"traced self times cover only {metrics['trace.coverage_frac']:.1%} "
            f"of legalize_s (gate {COVERAGE_GATE:.0%})",
        )
    _check_layer_load(workload, share, log)
    return metrics, log


#: Per-layer metric -> the span whose summed self time it reports.
SELF_TIME_METRICS = {
    "io.read_bookshelf_s": "io.read_bookshelf",
    "db.nearest_position_s": "db.nearest_position",
    "db.can_place_s": "db.can_place",
    "db.place_s": "db.place",
    "core.mll.self_s": "core.mll",
    "core.local_region.extract_s": "core.local_region.extract",
    "core.bounds.compute_s": "core.bounds.compute",
    "core.intervals.build_s": "core.intervals.build",
    "core.enumeration.enumerate_s": "core.enumeration.enumerate",
    "core.evaluation.evaluate_s": "core.evaluation.evaluate",
    "core.realization.realize_s": "core.realization.realize",
    "engine.partition_s": "engine.partition",
    "engine.reconcile_s": "engine.reconcile",
    "serve.digest_s": "serve.digest",
    "apps.move_cell_s": "apps.move_cell",
    "apps.swap_cells_s": "apps.swap_cells",
    "apps.resize_cell_s": "apps.resize_cell",
    "apps.insert_buffer_s": "apps.insert_buffer",
}
MLL_SPANS = tuple(span for span in SELF_TIME_METRICS.values() if span.startswith("core."))


def _layer_metrics(*phases: dict) -> dict[str, float]:
    """The per-layer metrics the spans give directly.

    Each phase is one ``{"self_s": ..., "calls": ...}`` fold of spans;
    the self times and calls of the phases add up.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for phase in phases:
        for name, value in phase["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in phase["calls"].items():
            calls[name] = calls.get(name, 0) + value
    metrics = {metric: self_s.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    metrics["db.nearest_position_calls"] = calls.get("db.nearest_position", 0)
    metrics["core.evaluation.points"] = calls.get("core.evaluation.evaluate", 0)
    metrics["serve.digest_calls"] = calls.get("serve.digest", 0)
    return metrics


def _check_layer_load(workload: str, share: float, log: CheckLog) -> None:
    label, minimum = LAYER_LOAD_GATES[workload]
    print(f"{workload}: {label} = {share:.3f} (must be >= {minimum})")
    log.check(share >= minimum, f"{label} is {share:.3f}, below {minimum}")


# ----------------------------------------------------------------------
# eco_stream
# ----------------------------------------------------------------------
SESSIONS = ("chipA", "chipB")


def _start_server(work: str, cpus: set[int]) -> tuple[subprocess.Popen, int]:
    """Launch `repro serve` on *cpus* and an ephemeral port; return it and the port."""
    command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--max-sessions", "2"]
    command += ["--snapshot-dir", os.path.join(work, "snapshots")]
    with open(os.path.join(work, "serve.log"), "ab") as err:
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
            preexec_fn=pinned(cpus),
        )
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + 60
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=deadline - time.monotonic()):
                break
            line = proc.stdout.readline().decode()
            if not line:
                break
            if "listening on" in line:
                return proc, int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
    finally:
        selector.close()
    _stop_server(proc)
    raise RuntimeError("repro serve did not report its port")


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _eco_inputs(seed: int, work: str) -> tuple[dict[str, str], dict[str, float], list]:
    """Write both session bundles; return their paths, GP HPWLs and shapes."""
    from benchmarks.bench_serving import session_seed
    from repro.bench.ispd2015 import make_benchmark
    from repro.io import write_bookshelf

    aux: dict[str, str] = {}
    gp_hpwl: dict[str, float] = {}
    shapes = []
    for i, name in enumerate(SESSIONS):
        design = make_benchmark(ECO_SHAPE, scale=ECO_SCALE, seed=session_seed(seed, i))
        aux[name] = write_bookshelf(design, os.path.join(work, name), name)
        gp_hpwl[name] = design.hpwl_um(use_gp=True)
        fp = design.floorplan
        shapes.append((len(design.cells), len(design.netlist.nets), fp.row_width, fp.num_rows))
    return aux, gp_hpwl, shapes


def _eco_trace(seed: int, seconds: int, shapes: list) -> list:
    from legalize_pass import point_eco_trace

    return point_eco_trace(
        seed,
        SESSIONS,
        max(MIN_ECO_SAMPLES, ECO_STREAM_REQUESTS_PER_S * seconds),
        min(s[0] for s in shapes),
        min(s[1] for s in shapes),
        (min(s[2] for s in shapes), min(s[3] for s in shapes)),
    )


def _open_sessions(client, aux: dict[str, str], seed: int) -> None:
    from benchmarks.bench_serving import session_seed

    for i, name in enumerate(SESSIONS):
        client.result("open", name, {"aux": aux[name], "seed": session_seed(seed, i)})


def _legalize_sessions(client, log: CheckLog) -> tuple[list[tuple[float, float]], dict[str, str]]:
    """Legalize both sessions twice, the second time from a reset.

    Returns the latencies as ``(start, end)`` stamps and the sessions'
    snapshot bundles taken after legalization, which the replay starts
    from.  Both legalizations of a session must end in the same digest.
    """
    stamps = []
    digests: dict[str, str] = {}
    for reset in (False, True):
        for name in SESSIONS:
            t0 = time.monotonic()
            result = client.result("legalize", name, {"reset": reset})
            stamps.append((t0, time.monotonic()))
            digest = digests.setdefault(name, result["digest"])
            log.operation(
                result["violations"] == 0 and result["stuck"] == 0 and result["digest"] == digest,
                f"{name}: server legalization not clean or not reproducible",
            )
    snapshots = {}
    for name in SESSIONS:
        snap = client.result("snapshot", name, {"dir": "legalized"})
        log.check(snap["digest"] == digests[name], f"{name}: snapshot digest differs")
        snapshots[name] = str(snap["path"])
    return stamps, snapshots


def _drive_session(host: str, port: int, requests: list, result, lock, stamps: list) -> None:
    """One closed-loop client: ``bench_serving._drive_client`` that also
    records each request's start, so its latency can be rescaled."""
    from repro.serve import Client

    with Client(host, port, timeout=CHILD_TIMEOUT_S) as client:
        for request in requests:
            t0 = time.monotonic()
            response = client.request(request.op, request.session, request.params)
            latency_ms = (time.monotonic() - t0) * 1e3
            stamps.append((t0, latency_ms))
            with lock:
                result.latencies_ms.append(latency_ms)
                if not response.ok:
                    result.errors += 1
                    continue
                if response.result.get("committed", True):
                    result.committed += 1
                else:
                    result.rolled_back += 1
                seq = response.result.get("seq")
                if isinstance(seq, int):
                    result.executed.setdefault(request.session, []).append((seq, request))


def _drive_stream(host: str, port: int, trace: list):
    """One closed-loop client per session, each sending its requests in order.

    Returns the load result, each session's ``(start, latency_ms)`` per
    request and the stream's ``(start, end)``.
    """
    from benchmarks.bench_serving import LoadResult

    result = LoadResult()
    stamps: dict[str, list[tuple[float, float]]] = {name: [] for name in SESSIONS}
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_drive_session,
            args=(host, port, [r for r in trace if r.session == name], result, lock, stamps[name]),
        )
        for name in SESSIONS
    ]
    t0 = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t1 = time.monotonic()
    result.wall_s = t1 - t0
    return result, stamps, (t0, t1)


def _replay_check(load, snapshots: dict[str, str], shapes: list, seed: int, log: CheckLog) -> None:
    """Replay each session's executed requests in seq order and compare.

    ``bench_serving._replay_session`` rebuilds its designs with the
    generator and legalizes them; here its ``generate_design`` reads the
    snapshot the server wrote right after legalization instead, so its
    legalize step finds nothing left to place.
    """
    import benchmarks.bench_serving as bench_serving
    from repro.io import read_bookshelf

    generate = bench_serving.generate_design
    bench_serving.generate_design = lambda config: read_bookshelf(snapshots[config.name])
    try:
        for i, name in enumerate(SESSIONS):
            executed = load.executed.get(name, [])
            digest, violations = bench_serving._replay_session(
                name, i, shapes[i][0], seed, executed
            )
            live = load.final_digests[name]
            log.check(digest == live, f"{name}: replay digest {digest[:12]} != live {live[:12]}")
            log.check(violations == 0, f"{name}: final placement has {violations} violations")
            key = f"eco_stream:{seed}:{name}:{len(executed)}"
            log.check(matches_reference(key, live), f"{name}: final digest differs from the reference")
    finally:
        bench_serving.generate_design = generate


def _stream_metrics(
    load, log: CheckLog, clients_ms: list[list[float]]
) -> dict[str, float]:
    """ECO metrics from each closed-loop client's latencies.

    Throughput is each client's requests over the sum of its latencies,
    added over the clients (Little's law with no think time), so the
    tail in which one client has finished and the other runs alone does
    not count against it.
    """
    answered = load.committed + load.rolled_back
    served = answered + load.errors
    log.operations(served, load.errors, "ECO requests were answered with an error")
    latencies_ms = [ms for client in clients_ms for ms in client]
    print(f"eco_stream: {len(latencies_ms)} ECO latency samples over {load.wall_s:.2f} s")
    return {
        "eco_per_s": sum(len(client) / (sum(client) / 1e3) for client in clients_ms if client),
        "eco_p50_ms": nearest_rank(latencies_ms, 50),
        "eco_p95_ms": nearest_rank(latencies_ms, 95),
        "eco_commit_frac": load.committed / answered if answered else 0.0,
    }


def _final_state(client, load, gp_hpwl, legal_hpwl) -> dict[str, float]:
    disp = []
    for name in SESSIONS:
        load.final_digests[name] = str(client.result("digest", name)["digest"])
        disp.append(float(client.result("stats", name)["avg_disp_sites"]))
    return {
        "avg_disp_sites": statistics.mean(disp),
        "hpwl_ratio": statistics.mean(legal_hpwl[n] / gp_hpwl[n] for n in SESSIONS),
    }


def eco_workload(seed: int, seconds: int, work: str) -> tuple[dict, CheckLog]:
    from repro.serve import Client

    t_start = time.perf_counter()
    aux, gp_hpwl, shapes = _eco_inputs(seed, work)
    trace = _eco_trace(seed, seconds, shapes)
    log = CheckLog()
    setup = []
    phases = {"inputs": time.perf_counter() - t_start}
    proc = None
    # The server keeps to host.cpus[0], the clients to host.cpus[-1]; the
    # server's CPU speed rescales every time.
    with HostSpeed(work) as host:
        os.sched_setaffinity(0, {host.cpus[-1]})
        server_cpus = host.cpus[:1]
        try:
            for launch in range(SERVER_LAUNCHES):
                launched = time.monotonic()
                proc, port = _start_server(work, set(server_cpus))
                with Client("127.0.0.1", port, timeout=CHILD_TIMEOUT_S) as client:
                    _open_sessions(client, aux, seed)
                    setup.append((launched, time.monotonic()))
                    if launch < SERVER_LAUNCHES - 1:
                        _stop_server(proc)
                        continue
                    phases["setup"] = time.perf_counter() - t_start - phases["inputs"]
                    legalize, snapshots = _legalize_sessions(client, log)
                    legal_hpwl = {n: float(client.result("stats", n)["hpwl_um"]) for n in SESSIONS}
                    load, stamps, stream = _drive_stream("127.0.0.1", port, trace)
                    final = _final_state(client, load, gp_hpwl, legal_hpwl)
                    rss = _peak_rss_mb(proc.pid)
        finally:
            if proc is not None:
                _stop_server(proc)
    log.check(proc.returncode == 0, f"repro serve exited with {proc.returncode}")

    def rescaled(t0: float, t1: float) -> float:
        return host.scale(t1 - t0, t0, t1, server_cpus)

    clients_ms = [
        [host.scale(ms, t, t + ms / 1e3, server_cpus) for t, ms in stamps[name]]
        for name in SESSIONS
    ]
    metrics = _stream_metrics(load, log, clients_ms)
    print(
        f"eco_stream: before rescaling: setup_s {statistics.median(b - a for a, b in setup):.4f}, "
        f"legalize_s {statistics.median(b - a for a, b in legalize):.4f}, "
        f"eco_p50_ms {nearest_rank(load.latencies_ms, 50):.3f}; host slowdown over the stream "
        f"{host.slowdown(*stream, server_cpus):.3f}"
    )
    phases["legalize"] = sum(b - a for a, b in legalize)
    phases["stream"] = load.wall_s
    t_replay = time.perf_counter()
    _replay_check(load, snapshots, shapes, seed, log)
    phases["replay"] = time.perf_counter() - t_replay
    phases["total"] = time.perf_counter() - t_start
    print("eco_stream phases (s): " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    metrics.update(final)
    metrics.update(
        {
            "setup_s": statistics.median(rescaled(*t) for t in setup),
            "legalize_s": statistics.median(rescaled(*t) for t in legalize),
            "peak_rss_mb": rss,
            "ok_frac": log.ok_frac,
        }
    )
    return metrics, log


def eco_workload_traced(seed: int, seconds: int, work: str) -> tuple[dict, CheckLog]:
    """The same stream against an in-process server the wrappers can see."""
    from repro.core.config import LegalizerConfig
    from repro.core.legalizer import Legalizer
    from repro.io import read_bookshelf
    from repro.serve import ServeConfig, ServerHandle

    from benchmarks.bench_serving import session_seed
    from spans import Tracer, install

    aux, gp_hpwl, shapes = _eco_inputs(seed, work)
    trace = _eco_trace(seed, seconds, shapes)
    log = CheckLog()

    design = read_bookshelf(aux[SESSIONS[0]])
    with HostSpeed(work) as host:
        # Server, clients and the untraced legalization share one CPU.
        measured = host.cpus[:1]
        os.sched_setaffinity(0, set(measured))
        t0 = time.monotonic()
        Legalizer(design, LegalizerConfig(seed=session_seed(seed, 0))).run()
        untraced_t = (t0, time.monotonic())

        tracer = Tracer()
        install(tracer)
        handle = ServerHandle(
            ServeConfig(max_sessions=2, snapshot_dir=os.path.join(work, "snapshots")),
            LegalizerConfig(),
        ).start()
        try:
            with handle.client(timeout=CHILD_TIMEOUT_S) as client:
                _open_sessions(client, aux, seed)
                opened = tracer.fold()
                legalize, snapshots = _legalize_sessions(client, log)
                traced_s = tracer.durations("core.legalize")[0]
                legal_hpwl = {n: float(client.result("stats", n)["hpwl_um"]) for n in SESSIONS}
                # Per-layer figures cover the ECO stream only.
                tracer.clear()
                load, _, _ = _drive_stream("127.0.0.1", handle.port, trace)
                stream = tracer.fold(("serve.execute",))
                executes = tracer.durations("serve.execute")
                _final_state(client, load, gp_hpwl, legal_hpwl)
        finally:
            handle.stop()
    # The first legalize request is session A's traced legalization.
    overhead = host.scale(traced_s, *legalize[0], measured) / host.scale(
        untraced_t[1] - untraced_t[0], *untraced_t, measured
    )
    _stream_metrics(load, log, [load.latencies_ms])
    _replay_check(load, snapshots, shapes, seed, log)

    execute_s = sum(executes)
    execute_ms = execute_s / len(executes) * 1e3
    answered = load.committed + load.rolled_back
    metrics = _layer_metrics(stream)
    metrics["io.read_bookshelf_s"] = opened["self_s"].get("io.read_bookshelf", 0.0)
    mll_calls = stream["calls"].get("core.mll", 0)
    mll_successes = stream["counts"].get("core.mll.successes", 0)
    metrics.update(
        {
            "core.mll.calls": mll_calls,
            "core.mll.success_frac": mll_successes / mll_calls if mll_calls else 1.0,
            "serve.execute_ms": execute_ms,
            "serve.wait_ms": statistics.mean(load.latencies_ms) - execute_ms,
            "serve.rollback_frac": load.rolled_back / answered if answered else 0.0,
            "trace.overhead_frac": overhead - 1.0,
            "trace.coverage_frac": stream["covered_s"] / execute_s,
        }
    )
    _check_layer_load("eco_stream", metrics["serve.digest_s"] / execute_s, log)
    return metrics, log


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    os.environ.pop("REPRO_AUDIT", None)

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.workload == "eco_stream":
            run = eco_workload_traced if args.trace else eco_workload
            metrics, log = run(args.seed, args.seconds, work)
        elif args.trace:
            metrics, log = legalize_workload_traced(args.workload, args.seed, work)
        else:
            metrics, log = legalize_workload(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # A layer the workload does not run reads 0.
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in declared}
    for message in log.messages:
        print(f"CHECK FAILED: {message}")
    print(
        json.dumps(
            {
                "correct": log.correct,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0 if log.correct else 1


if __name__ == "__main__":
    sys.exit(main())
