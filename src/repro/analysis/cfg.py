"""Intraprocedural control-flow graphs and the flow-rule scaffolding.

RL1-RL11 reason about *what* a function touches — calls, effects,
locksets — but are flow-insensitive inside a function body: they cannot
prove "this value was validated before reaching this sink" or "this
handle is closed on every path".  This module adds the missing layer:

* :class:`CFG` — basic blocks over one function body, with branch
  (``true``/``false``), loop back-edge, ``try``/``except``/``finally``,
  ``with``, and exception edges (any statement containing a call,
  ``raise``, ``assert`` or ``await`` may transfer control to the
  innermost handler, the pending ``finally``, or the synthetic
  exceptional exit).
* a generic forward/backward worklist dataflow solver the flow rules
  (RL12 taint, RL13 typestate) instantiate.

Precision notes, chosen deliberately:

* ``finally`` blocks are built once (not duplicated per continuation);
  their out-edges are the union of the continuations actually routed
  into them (``normal``/``exc``/``return``/``break``/``continue``), so
  a path that *merges* through a ``finally`` may mix continuations.
  May-analyses (leak, taint) stay sound: every real path exists.
* A ``try`` whose handlers include a bare ``except`` /
  ``except Exception`` / ``except BaseException`` is treated as
  catching everything; narrower handler lists let the exception edge
  continue outward.
* Statement granularity: compound statements (``if``/``while``/
  ``for``/``with``/``try``/``match``) anchor in the block that
  evaluates their header; their bodies get blocks of their own.  Every
  ``ast.stmt`` of the function body maps to exactly one block.

The model version below is mixed into the interprocedural cache key
(:func:`repro.analysis.cache.program_key`) so cached program results
self-invalidate when CFG construction or flow-rule semantics change.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import Program

#: Bumped whenever CFG construction or a flow rule changes meaning, so
#: warm caches never serve stale interprocedural results.
FLOW_MODEL_VERSION = "1"

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

# Edge kinds.
FLOW = "flow"
TRUE = "true"
FALSE = "false"
LOOP = "loop"
EXC = "exc"

#: Node types whose evaluation may raise (transfer control to a
#: handler).  Pure name/attribute/subscript loads are deliberately
#: excluded: treating every ``d[k]`` as a potential raise would drown
#: the flow rules in paths no reviewer would accept as findings.
_RAISING = (ast.Call, ast.Raise, ast.Assert, ast.Await)


def _own_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node* without descending into nested ``def``/``lambda``
    bodies (their code does not run at the definition site)."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _header_parts(stmt: ast.stmt) -> list[ast.AST]:
    """The sub-expressions evaluated *by the statement itself* (its
    header), excluding nested bodies that get blocks of their own."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return [stmt]


def header_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk the nodes evaluated by *stmt*'s own header.

    Compound bodies (which get basic blocks of their own) and nested
    ``def``/``lambda`` bodies are excluded — flow rules that scan a
    block's statements must see each evaluation site exactly once, in
    the block where it executes.
    """
    for part in _header_parts(stmt):
        yield from _own_walk(part)


def can_raise(stmt: ast.stmt) -> bool:
    """May executing *stmt*'s own header raise?  (Calls, ``raise``,
    ``assert`` and ``await``; nested bodies are judged separately.)"""
    for part in _header_parts(stmt):
        for node in _own_walk(part):
            if isinstance(node, _RAISING):
                return True
    return False


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------
@dataclass(slots=True)
class BasicBlock:
    """A maximal straight-line run of statements."""

    bid: int
    statements: list[ast.stmt] = field(default_factory=list)


class CFG:
    """Basic blocks + kinded edges for one function body."""

    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self._succs: dict[int, list[tuple[int, str]]] = {}
        self._preds: dict[int, list[tuple[int, str]]] = {}
        self.block_of: dict[int, int] = {}
        """``id(stmt)`` → owning block id."""

        self.entry: int = self.new_block()
        self.exit: int = self.new_block()
        """Synthetic normal exit (every ``return`` / fall-through)."""

        self.raise_exit: int = self.new_block()
        """Synthetic exceptional exit (uncaught exceptions)."""

    # ------------------------------------------------------------------
    def new_block(self) -> int:
        bid = len(self.blocks)
        self.blocks[bid] = BasicBlock(bid=bid)
        self._succs[bid] = []
        self._preds[bid] = []
        return bid

    def add_edge(self, src: int, dst: int, kind: str = FLOW) -> None:
        if (dst, kind) in self._succs[src]:
            return
        self._succs[src].append((dst, kind))
        self._preds[dst].append((src, kind))

    def successors(self, bid: int) -> list[tuple[int, str]]:
        return list(self._succs[bid])

    def predecessors(self, bid: int) -> list[tuple[int, str]]:
        return list(self._preds[bid])

    def block_of_stmt(self, stmt: ast.stmt) -> int | None:
        return self.block_of.get(id(stmt))

    def statements(self) -> Iterator[ast.stmt]:
        for bid in sorted(self.blocks):
            yield from self.blocks[bid].statements

    # ------------------------------------------------------------------
    def reachable(self) -> list[int]:
        """Blocks reachable from entry, in BFS order."""
        seen: list[int] = []
        seen_set: set[int] = set()
        queue = deque([self.entry])
        while queue:
            bid = queue.popleft()
            if bid in seen_set:
                continue
            seen_set.add(bid)
            seen.append(bid)
            queue.extend(s for s, _ in self._succs[bid])
        return seen


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _LoopFrame:
    break_to: int
    continue_to: int


@dataclass(slots=True)
class _TryFrame:
    handlers: list[int]
    catches_all: bool
    fin_entry: int | None
    pending: set[str] = field(default_factory=set)


_Frame = _LoopFrame | _TryFrame


def _handler_catches_all(handler: ast.ExceptHandler) -> bool:
    typ = handler.type
    if typ is None:
        return True
    names: list[ast.expr] = (
        list(typ.elts) if isinstance(typ, ast.Tuple) else [typ]
    )
    for name in names:
        if isinstance(name, ast.Name) and name.id in (
            "Exception",
            "BaseException",
        ):
            return True
    return False


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.current: int | None = self.cfg.entry
        self.frames: list[_Frame] = []

    # ------------------------------------------------------------------
    def build(self, func: _FunctionNode) -> CFG:
        self._visit_body(func.body)
        if self.current is not None:
            self.cfg.add_edge(self.current, self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------
    def _append(self, stmt: ast.stmt) -> int:
        if self.current is None:  # unreachable code keeps its own block
            self.current = self.cfg.new_block()
        block = self.cfg.blocks[self.current]
        block.statements.append(stmt)
        self.cfg.block_of[id(stmt)] = self.current
        if can_raise(stmt):
            self._route_raise(self.current)
        return self.current

    def _edge_from_current(self, dst: int, kind: str = FLOW) -> None:
        if self.current is not None:
            self.cfg.add_edge(self.current, dst, kind)

    # ------------------------------------------------------------------
    # Continuation routing through the frame stack
    # ------------------------------------------------------------------
    def _route_raise(self, src: int) -> None:
        for frame in reversed(self.frames):
            if not isinstance(frame, _TryFrame):
                continue
            for handler in frame.handlers:
                self.cfg.add_edge(src, handler, EXC)
            if frame.handlers and frame.catches_all:
                return
            if frame.fin_entry is not None:
                frame.pending.add("exc")
                self.cfg.add_edge(src, frame.fin_entry, EXC)
                return
        self.cfg.add_edge(src, self.cfg.raise_exit, EXC)

    def _route_return(self, src: int) -> None:
        for frame in reversed(self.frames):
            if isinstance(frame, _TryFrame) and frame.fin_entry is not None:
                frame.pending.add("return")
                self.cfg.add_edge(src, frame.fin_entry)
                return
        self.cfg.add_edge(src, self.cfg.exit)

    def _route_loop(self, src: int, kind: str) -> None:
        for frame in reversed(self.frames):
            if isinstance(frame, _TryFrame):
                if frame.fin_entry is not None:
                    frame.pending.add(kind)
                    self.cfg.add_edge(src, frame.fin_entry)
                    return
                continue
            target = (
                frame.break_to if kind == "break" else frame.continue_to
            )
            self.cfg.add_edge(src, target, LOOP if kind == "continue" else FLOW)
            return
        self.cfg.add_edge(src, self.cfg.exit)  # pragma: no cover - invalid

    # ------------------------------------------------------------------
    def _visit_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._visit_loop(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Match):
            self._visit_match(stmt)
        elif isinstance(stmt, ast.Return):
            src = self._append(stmt)
            self._route_return(src)
            self.current = None
        elif isinstance(stmt, ast.Break):
            src = self._append(stmt)
            self._route_loop(src, "break")
            self.current = None
        elif isinstance(stmt, ast.Continue):
            src = self._append(stmt)
            self._route_loop(src, "continue")
            self.current = None
        elif isinstance(stmt, ast.Raise):
            self._append(stmt)  # exception edge added by _append
            self.current = None
        else:
            self._append(stmt)

    # ------------------------------------------------------------------
    def _visit_if(self, stmt: ast.If) -> None:
        cond = self._append(stmt)
        after = self.cfg.new_block()
        then_entry = self.cfg.new_block()
        self.cfg.add_edge(cond, then_entry, TRUE)
        self.current = then_entry
        self._visit_body(stmt.body)
        self._edge_from_current(after)
        if stmt.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.add_edge(cond, else_entry, FALSE)
            self.current = else_entry
            self._visit_body(stmt.orelse)
            self._edge_from_current(after)
        else:
            self.cfg.add_edge(cond, after, FALSE)
        self.current = after

    def _visit_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor
    ) -> None:
        header = self.cfg.new_block()
        self._edge_from_current(header)
        self.current = header
        self._append(stmt)
        infinite = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        after = self.cfg.new_block()
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(header, body_entry, TRUE)
        self.frames.append(_LoopFrame(break_to=after, continue_to=header))
        self.current = body_entry
        self._visit_body(stmt.body)
        self._edge_from_current(header, LOOP)
        self.frames.pop()
        if stmt.orelse:
            else_entry = self.cfg.new_block()
            if not infinite:
                self.cfg.add_edge(header, else_entry, FALSE)
            self.current = else_entry
            self._visit_body(stmt.orelse)
            self._edge_from_current(after)
        elif not infinite:
            self.cfg.add_edge(header, after, FALSE)
        self.current = after

    def _visit_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        head = self._append(stmt)
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(head, body_entry)
        self.current = body_entry
        self._visit_body(stmt.body)
        after = self.cfg.new_block()
        self._edge_from_current(after)
        self.current = after

    def _visit_match(self, stmt: ast.Match) -> None:
        head = self._append(stmt)
        after = self.cfg.new_block()
        for case in stmt.cases:
            entry = self.cfg.new_block()
            self.cfg.add_edge(head, entry, TRUE)
            self.current = entry
            self._visit_body(case.body)
            self._edge_from_current(after)
        self.cfg.add_edge(head, after, FALSE)
        self.current = after

    # ------------------------------------------------------------------
    def _visit_try(self, stmt: ast.Try) -> None:
        head = self._append(stmt)
        fin_entry = self.cfg.new_block() if stmt.finalbody else None
        handler_entries = [self.cfg.new_block() for _ in stmt.handlers]
        after = self.cfg.new_block()
        frame = _TryFrame(
            handlers=list(handler_entries),
            catches_all=any(
                _handler_catches_all(h) for h in stmt.handlers
            ),
            fin_entry=fin_entry,
        )
        body_entry = self.cfg.new_block()
        self.cfg.add_edge(head, body_entry)
        self.frames.append(frame)
        self.current = body_entry
        self._visit_body(stmt.body)
        # Handlers stop catching outside the protected body; the
        # pending ``finally`` keeps applying to handlers and ``else``.
        frame.handlers = []
        if stmt.orelse and self.current is not None:
            self._visit_body(stmt.orelse)
        if self.current is not None:
            if fin_entry is not None:
                frame.pending.add("normal")
                self.cfg.add_edge(self.current, fin_entry)
            else:
                self.cfg.add_edge(self.current, after)
        for entry, handler in zip(handler_entries, stmt.handlers):
            self.current = entry
            self._visit_body(handler.body)
            if self.current is not None:
                if fin_entry is not None:
                    frame.pending.add("normal")
                    self.cfg.add_edge(self.current, fin_entry)
                else:
                    self.cfg.add_edge(self.current, after)
        self.frames.pop()
        if fin_entry is not None:
            self.current = fin_entry
            self._visit_body(stmt.finalbody)
            fin_out = self.current
            if fin_out is not None:
                for kind in sorted(frame.pending):
                    if kind == "normal":
                        self.cfg.add_edge(fin_out, after)
                    elif kind == "exc":
                        self._route_raise(fin_out)
                    elif kind == "return":
                        self._route_return(fin_out)
                    else:
                        self._route_loop(fin_out, kind)
        self.current = after


def build_cfg(func: _FunctionNode) -> CFG:
    """The control-flow graph of one function body."""
    return _Builder().build(func)


# ----------------------------------------------------------------------
# Generic worklist solvers
# ----------------------------------------------------------------------
T = TypeVar("T")


def solve_forward(
    cfg: CFG,
    entry_state: T,
    transfer: Callable[[int, T], dict[str, T]],
    join: Callable[[T, T], T],
    bottom: T,
) -> dict[int, T]:
    """Forward dataflow to fixpoint.

    ``transfer(bid, in_state)`` returns a map from edge kind to the
    out-state flowing along edges of that kind; :data:`FLOW` is the
    default for kinds not in the map.  This lets analyses narrow on
    branch edges (``true``/``false``) and emit the mid-block state at
    raise points along :data:`EXC` edges.  Returns each reachable
    block's *in* state.
    """
    order = cfg.reachable()
    in_states: dict[int, T] = {bid: bottom for bid in order}
    in_states[cfg.entry] = entry_state
    work: deque[int] = deque(order)
    in_work = set(order)
    while work:
        bid = work.popleft()
        in_work.discard(bid)
        outs = transfer(bid, in_states[bid])
        for succ, kind in cfg.successors(bid):
            contrib = outs.get(kind, outs[FLOW])
            joined = join(in_states[succ], contrib)
            if joined != in_states[succ]:
                in_states[succ] = joined
                if succ not in in_work:
                    in_work.add(succ)
                    work.append(succ)
    return in_states


def solve_backward(
    cfg: CFG,
    exit_state: T,
    transfer: Callable[[int, T, T], T],
    meet: Callable[[T, T], T],
    top: T,
) -> dict[int, T]:
    """Backward dataflow to fixpoint.

    ``transfer(bid, flow_meet, exc_meet) → in_state`` where
    ``flow_meet`` is the meet over non-exception successors' in-states
    (``exit_state`` at the exits) and ``exc_meet`` the meet over
    exception successors' (``top`` when the block has none — the
    transfer applies it only at its own raise points).  Returns each
    reachable block's *in* state.
    """
    order = cfg.reachable()
    in_states: dict[int, T] = {bid: top for bid in order}
    work: deque[int] = deque(reversed(order))
    in_work = set(order)
    while work:
        bid = work.popleft()
        in_work.discard(bid)
        flow_meet = exit_state if bid in (cfg.exit, cfg.raise_exit) else top
        exc_meet = top
        seen_flow = bid in (cfg.exit, cfg.raise_exit)
        for succ, kind in cfg.successors(bid):
            if succ not in in_states:
                continue
            if kind == EXC:
                exc_meet = meet(exc_meet, in_states[succ])
            else:
                flow_meet = (
                    in_states[succ]
                    if not seen_flow
                    else meet(flow_meet, in_states[succ])
                )
                seen_flow = True
        if not seen_flow:
            flow_meet = exit_state
        new = transfer(bid, flow_meet, exc_meet)
        if new != in_states[bid]:
            in_states[bid] = new
            for pred, _kind in cfg.predecessors(bid):
                if pred in in_states and pred not in in_work:
                    in_work.add(pred)
                    work.append(pred)
    return in_states


# ----------------------------------------------------------------------
# Per-program memoization
# ----------------------------------------------------------------------
class FlowModel:
    """CFGs for every function of a program, built on demand."""

    def __init__(self, program: "Program") -> None:
        self._program = program
        self._cfgs: dict[str, CFG] = {}

    def cfg_of(self, qname: str) -> CFG | None:
        cached = self._cfgs.get(qname)
        if cached is not None:
            return cached
        info = self._program.table.functions.get(qname)
        if info is None:
            return None
        cfg = build_cfg(info.node)
        self._cfgs[qname] = cfg
        return cfg


def flow_model_for(program: "Program") -> FlowModel:
    """The memoized :class:`FlowModel` of *program*."""
    model = getattr(program, "_flow_model", None)
    if not isinstance(model, FlowModel):
        model = FlowModel(program)
        program._flow_model = model  # type: ignore[attr-defined]
    return model
