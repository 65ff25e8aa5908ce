"""Lint-cache bench: cold vs warm interprocedural runs over the tree.

Measures one **cold** `repro lint --interprocedural src/` (empty cache,
every file parsed, the whole program linked) against a **warm** rerun
backed by the incremental cache, and gates on the ISSUE acceptance
contract the unit suite also pins:

* both runs report **zero findings** (the self-clean gate, re-checked
  here so a dirty tree cannot masquerade as a perf regression);
* the warm run is **>= 5x faster** than the cold run — the cache is
  the only thing that makes `repro lint` cheap enough to sit in
  pre-commit, so its speedup is a gated perf artifact, not a hope.

The **flow-sensitive pass** (RL12 taint + RL13 typestate, the rules
that build CFGs and run the interprocedural taint fixpoint) is additionally timed on its own cache: it is the most
expensive analysis layer, so its warm/cold ratio is gated separately
at the same >= 5x — a cache-key bug that silently re-runs only the
flow rules would hide inside the full-run ratio otherwise.

Appends all wall times, the ratios, and the file/rule counts to
``BENCH_lint.json`` via :mod:`benchmarks.trajectory` so the CI
``lint-bench`` step grows a reviewable trajectory across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

# Runnable as `python benchmarks/bench_lint.py`: that puts the script's
# own directory on sys.path, not the repo root that makes the
# `benchmarks` package importable; pytest runs from the root already.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:  # pragma: no cover - import bootstrap
    sys.path.insert(0, _SRC)

from benchmarks.trajectory import record_run
from repro.analysis.runner import lint_paths

MIN_SPEEDUP = 5.0

#: The flow-sensitive layer: CFG construction + interprocedural taint.
FLOW_RULES = ("RL12", "RL13")


def run_bench(target: str) -> dict[str, object]:
    """One cold + one warm interprocedural lint over *target*, plus a
    cold + warm flow-rules-only pass on its own cache."""
    with tempfile.TemporaryDirectory(prefix="repro-lint-bench-") as tmp:
        cache = os.path.join(tmp, "cache.json")
        t0 = time.perf_counter()
        cold_diags, cold_scan = lint_paths(
            [target], interprocedural=True, cache_path=cache
        )
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_diags, warm_scan = lint_paths(
            [target], interprocedural=True, cache_path=cache
        )
        warm_s = time.perf_counter() - t0

        flow_cache = os.path.join(tmp, "flow-cache.json")
        t0 = time.perf_counter()
        flow_cold, _ = lint_paths(
            [target],
            select=FLOW_RULES,
            interprocedural=True,
            cache_path=flow_cache,
        )
        flow_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        flow_warm, _ = lint_paths(
            [target],
            select=FLOW_RULES,
            interprocedural=True,
            cache_path=flow_cache,
        )
        flow_warm_s = time.perf_counter() - t0
    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else float("inf"),
        "flow_cold_s": round(flow_cold_s, 4),
        "flow_warm_s": round(flow_warm_s, 4),
        "flow_speedup": round(flow_cold_s / flow_warm_s, 2)
        if flow_warm_s > 0
        else float("inf"),
        "files": cold_scan.files_scanned,
        "rules": len(cold_scan.rules_run),
        "cold_findings": len(cold_diags),
        "warm_findings": len(warm_diags),
        "flow_findings": len(flow_cold) + len(flow_warm),
        "warm_matches_cold": [d.to_dict() for d in warm_diags]
        == [d.to_dict() for d in cold_diags],
        "files_stable": warm_scan.files_scanned == cold_scan.files_scanned,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--target",
        default=os.path.join(_ROOT, "src"),
        help="tree to lint (default: the repo's src/)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to BENCH_lint.json",
    )
    parser.add_argument(
        "--trajectory-dir",
        default=None,
        help="write BENCH_lint.json here instead of the repo root",
    )
    args = parser.parse_args(argv)

    metrics = run_bench(args.target)
    params = {"target": os.path.relpath(args.target, _ROOT)}
    if not args.no_trajectory:
        record_run(
            "lint", metrics, params, directory=args.trajectory_dir
        )
    print(json.dumps({"params": params, "metrics": metrics}, indent=2))

    failures = []
    if metrics["cold_findings"] or metrics["warm_findings"]:
        failures.append(
            f"tree is not self-clean: {metrics['cold_findings']} cold / "
            f"{metrics['warm_findings']} warm finding(s)"
        )
    if not metrics["warm_matches_cold"]:
        failures.append("warm diagnostics differ from cold diagnostics")
    if not metrics["files_stable"]:
        failures.append("warm file count differs from cold file count")
    if metrics["flow_findings"]:
        failures.append(
            "flow-sensitive pass (RL12-RL13) is not self-clean: "
            f"{metrics['flow_findings']} finding(s)"
        )
    if metrics["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"warm run only {metrics['speedup']}x faster than cold "
            f"(gate: >={MIN_SPEEDUP}x; cold {metrics['cold_s']}s, "
            f"warm {metrics['warm_s']}s)"
        )
    if metrics["flow_speedup"] < MIN_SPEEDUP:
        failures.append(
            f"warm flow pass only {metrics['flow_speedup']}x faster "
            f"than cold (gate: >={MIN_SPEEDUP}x; cold "
            f"{metrics['flow_cold_s']}s, warm {metrics['flow_warm_s']}s)"
        )
    for failure in failures:
        print(f"bench_lint: FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
