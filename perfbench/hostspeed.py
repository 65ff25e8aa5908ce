"""Host-speed sampling, so that timings survive a shared host.

On a shared VM the speed of each CPU swings by up to 2x within seconds
and over minutes, and the two CPUs swing independently (other tenants'
work on the same physical cores).  A raw wall time then says more about
the neighbours than about the program.  So while a run measures, one
sampler process is pinned to each CPU.  Every ``PERIOD_S`` it runs a
small fixed pure-Python kernel and records how long it took.  A timed
interval on a set of CPUs is rescaled to the reference speed::

    slowdown = median(kernel times on those CPUs inside the interval)
               / REFERENCE_KERNEL_S
    rescaled = seconds / slowdown ** SLOWDOWN_EXPONENT

The kernel is a pointer chase around a ring of 4,000 small objects, a
working set of a few hundred KB: it slows down with the CPU the way the
legalizer does, but what the program under test does to the caches
hardly moves it.  It costs the measured CPU about 3 % of its time.

Run as ``python3 perfbench/hostspeed.py CPU OUT``: pin to CPU, print
``ready``, sample until SIGTERM, then write ``[[start, seconds], ...]``
(``time.monotonic`` stamps) to OUT as JSON.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.05
#: Kernel time at the reference speed, the typical figure on a shared
#: 2-CPU Xeon VM while a legalization ran on the same CPU.
REFERENCE_KERNEL_S = 0.7e-3
#: Fitted: log(time) against log(slowdown) had slope 0.79 over 15 dense
#: legalization passes (slowdown 1.3-2.2x), 1.01 over 61 replays of 400
#: dense point moves (1.0-1.8x) and 0.93 over 63 sparse replays
#: (1.0-2.4x), each with correlation 0.90-0.94.
SLOWDOWN_EXPONENT = 0.9
#: An interval shorter than this is judged by the samples in a window
#: this wide around its middle.
MIN_WINDOW_S = 0.5
RING = 4_000
STEPS = 12_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: _Node | None = None


def _ring() -> _Node:
    nodes = [_Node(i) for i in range(RING)]
    random.Random(1).shuffle(nodes)
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        a.next = b
    return nodes[0]


def _kernel(head: _Node) -> int:
    node, total = head, 0
    for _ in range(STEPS):
        total += node.value
        node = node.next
    return total


def sample(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    head = _ring()
    stop = False

    def on_term(signum, frame) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    print("ready", flush=True)
    samples = []
    due = time.monotonic()
    while not stop:
        # CPU time, not wall time: when the measured program preempts the
        # kernel, the wait must not count as slowness.
        t0, cpu0 = time.monotonic(), time.thread_time()
        _kernel(head)
        samples.append((t0, time.thread_time() - cpu0))
        due += PERIOD_S
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        else:
            due = time.monotonic()
    with open(out, "w") as f:
        json.dump(samples, f)


class HostSpeed:
    """One sampler per CPU for the duration of a ``with`` block.

    ``cpus[0]`` is the CPU the measured program is pinned to, when it
    runs on one CPU; the benchmark's own process keeps to ``cpus[-1]``.
    Intervals can be rescaled with :meth:`scale` once the block has
    exited and the samples are read.
    """

    def __init__(self, work: str) -> None:
        available = sorted(os.sched_getaffinity(0))
        self.cpus = tuple(dict.fromkeys((available[0], available[-1])))
        self.work = work
        self._procs: dict[int, subprocess.Popen] = {}
        self._samples: dict[int, tuple[list[float], list[float]]] = {}

    def __enter__(self) -> HostSpeed:
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu), self._path(cpu)],
                    stdout=subprocess.PIPE,
                    text=True,
                )
                self._procs[cpu] = proc
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"host-speed sampler on CPU {cpu} did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop()
        if exc_type is not None:
            return
        for cpu in self.cpus:
            with open(self._path(cpu)) as f:
                rows = json.load(f)
            self._samples[cpu] = ([t for t, _ in rows], [s for _, s in rows])

    def _path(self, cpu: int) -> str:
        return os.path.join(self.work, f"hostspeed-{cpu}.json")

    def _stop(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def slowdown(self, t0: float, t1: float, cpus: tuple[int, ...]) -> float:
        """Median kernel time on *cpus* within [t0, t1], over the reference."""
        if t1 - t0 < MIN_WINDOW_S:
            middle = (t0 + t1) / 2
            t0, t1 = middle - MIN_WINDOW_S / 2, middle + MIN_WINDOW_S / 2
        times: list[float] = []
        for cpu in cpus:
            starts, seconds = self._samples[cpu]
            times += seconds[bisect.bisect_left(starts, t0) : bisect.bisect_right(starts, t1)]
        if not times:
            raise RuntimeError(f"no host-speed samples between {t0:.3f} and {t1:.3f}")
        return statistics.median(times) / REFERENCE_KERNEL_S

    def scale(self, seconds: float, t0: float, t1: float, cpus: tuple[int, ...]) -> float:
        """*seconds*, measured over [t0, t1] on *cpus*, at the reference speed."""
        return seconds / self.slowdown(t0, t1, cpus) ** SLOWDOWN_EXPONENT


if __name__ == "__main__":
    sample(int(sys.argv[1]), sys.argv[2])
