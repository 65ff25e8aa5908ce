"""Shared summary statistics.

One nearest-rank percentile implementation serves both the MLL
telemetry aggregates (:mod:`repro.core.instrumentation`) and the
perf-trajectory writer (``benchmarks/trajectory.py``).  Before this
module existed the two had diverged: telemetry used a homegrown
``int(0.95 * len)`` index (which returns the *maximum* for round
sample counts — ``int(0.95 * 20) == 19``, the last element) while the
benchmarks used proper nearest-rank.  Sharing the helper keeps serial
summaries, merged-shard summaries and benchmark reports on the same
definition.

Nearest-rank: the p-th percentile of ``n`` ascending samples is the
value at rank ``ceil(p/100 * n)`` (1-based), implemented here as
``round(p/100 * n) - 1`` clamped into ``[0, n-1]`` — exactly the math
``benchmarks/trajectory.py`` has always used.

Pure standard library: the benchmarks import this from outside the
package tree and must not pull in heavyweight dependencies at import
time.
"""

from __future__ import annotations

from typing import Sequence


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample.

    ``ordered`` must already be sorted ascending; an empty sample
    yields ``0.0`` (the convention of the trajectory files).
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    rank = max(0, min(n - 1, int(round(pct / 100.0 * n)) - 1))
    return ordered[rank]


def percentiles(
    samples: Sequence[float], points: tuple[float, ...] = (50.0, 90.0, 99.0)
) -> dict[str, float]:
    """Nearest-rank percentiles keyed ``p50``/``p90``/... for *samples*."""
    ordered = sorted(samples)
    return {f"p{int(p)}": nearest_rank(ordered, p) for p in points}
