"""Span tracing for the benchmark's traced runs, installed from outside.

Nothing in ``src`` knows about this module.  :func:`install` patches the
public functions of each layer in place (``Design`` methods on the
class, the stage functions bound in ``repro.core.mll``, the engine
stages bound in ``repro.engine.executor``, the ``repro.apps`` ECO
primitives and ``DesignSession.execute``/``digest``) with wrappers that
record a span — name, start, end, parent — per call.  Spans stay in
memory; :meth:`Tracer.fold` folds them into per-layer self times at
the end of the run.

``evaluate_insertion_point`` is the one exception: it runs once per
insertion point (millions of times on a dense design), so its wrapper
adds its duration and call count to an aggregate and charges the time
to the enclosing span instead of storing a span per call.

Wrappers pass straight through in any process other than the one that
installed them, so forked shard workers pay almost nothing; their time
is taken from ``EngineResult.shard_stats`` instead.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # One span: [name, start, end, parent span or None, child seconds].
        self.spans: list[list] = []
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def clear(self) -> None:
        """Drop everything recorded so far (start of a measured phase)."""
        self.spans.clear()
        self.leaf_s.clear()
        self.leaf_calls.clear()
        self.counts.clear()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """*fn* recording one span named *name* per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, _now(), 0.0, stack[-1] if stack else None, 0.0]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _now()
                if span[3] is not None:
                    span[3][4] += span[2] - span[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """*fn* adding its duration to an aggregate, not a span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack = self._stack()
                if stack:
                    stack[-1][4] += dt
                with self._lock:
                    self.leaf_s[name] += dt
                    self.leaf_calls[name] += 1

        return traced

    # ------------------------------------------------------------------
    def fold(self, roots: tuple[str, ...] = ()) -> dict[str, object]:
        """The recorded spans as JSON-ready per-layer totals.

        ``self_s`` and ``calls`` are summed per span name (leaves
        included); ``covered_s`` is the self time of everything below a
        *roots* span, the roots' own self time left out, so work no layer
        span covers (driver loops, journaling) lowers the coverage.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        under: set[int] = set()
        covered = 0.0
        for span in self.spans:  # parents are recorded before children
            name, start, end, parent, child_s = span
            self_s[name] += (end - start) - child_s
            calls[name] += 1
            if parent is not None and (id(parent) in under or parent[0] in roots):
                under.add(id(span))
                covered += (end - start) - child_s
        for name, seconds in self.leaf_s.items():
            self_s[name] += seconds
            calls[name] += self.leaf_calls[name]
            if roots:  # leaves only run inside MLL calls, below the roots
                covered += seconds
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "covered_s": covered,
        }

    def durations(self, name: str) -> list[float]:
        """Wall durations of every span named *name*."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported ``repro`` package."""
    import repro.apps
    import repro.core.legalizer as legalizer_mod
    import repro.core.mll as mll_mod
    import repro.engine.executor as executor_mod
    import repro.io
    from repro.db.design import Design
    from repro.serve.session import DesignSession

    def count_mll(result: object) -> None:
        tracer.count("core.mll.successes", bool(result.success))  # type: ignore[attr-defined]

    wrap = tracer.wrap
    repro.io.read_bookshelf = wrap("io.read_bookshelf", repro.io.read_bookshelf)
    Design.nearest_position = wrap("db.nearest_position", Design.nearest_position)
    Design.can_place = wrap("db.can_place", Design.can_place)
    Design.place = wrap("db.place", Design.place)
    legalizer_mod.Legalizer.run = wrap("core.legalize", legalizer_mod.Legalizer.run)

    mll_cls = mll_mod.MultiRowLocalLegalizer
    mll_cls.try_place = wrap("core.mll", mll_cls.try_place, count_mll)
    for attr, name in (
        ("extract_local_region", "core.local_region.extract"),
        ("compute_bounds", "core.bounds.compute"),
        ("build_insertion_intervals", "core.intervals.build"),
        ("enumerate_insertion_points", "core.enumeration.enumerate"),
        ("realize_insertion", "core.realization.realize"),
    ):
        setattr(mll_mod, attr, wrap(name, getattr(mll_mod, attr)))
    mll_mod.evaluate_insertion_point = tracer.wrap_leaf(
        "core.evaluation.evaluate", mll_mod.evaluate_insertion_point
    )

    sharded = executor_mod.ShardedLegalizer
    sharded.run = wrap("engine.legalize_sharded", sharded.run)
    executor_mod.partition_design = wrap("engine.partition", executor_mod.partition_design)
    executor_mod.reconcile = wrap("engine.reconcile", executor_mod.reconcile)
    make_transport = executor_mod.make_transport

    def traced_make_transport(*args, **kwargs):
        transport = make_transport(*args, **kwargs)
        transport.execute = wrap("engine.transport", transport.execute)
        return transport

    executor_mod.make_transport = traced_make_transport

    DesignSession.execute = wrap("serve.execute", DesignSession.execute)
    DesignSession.digest = wrap("serve.digest", DesignSession.digest)
    # The session imports these from the package at call time.
    for attr in ("move_cell", "swap_cells", "resize_cell", "insert_buffer"):
        setattr(repro.apps, attr, wrap(f"apps.{attr}", getattr(repro.apps, attr)))
