"""Unit and property tests for the control-flow graph engine.

Deterministic cases pin the structural contracts the flow rules lean
on — block splitting around compound headers, exception and ``finally``
routing — and a liveness toy exercises :func:`solve_backward`.  The hypothesis
sweep generates random (valid) function bodies and checks the global
invariants: every statement lands in exactly one block, and every edge
connects blocks that exist.
"""

from __future__ import annotations

import ast

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cfg import (
    EXC,
    FALSE,
    TRUE,
    build_cfg,
    can_raise,
    header_walk,
    solve_backward,
)


def cfg_of(source: str):
    """Build the CFG of the first function in *source*."""
    func = ast.parse(source).body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func, build_cfg(func)


def edges_of(cfg) -> set[tuple[int, int, str]]:
    out: set[tuple[int, int, str]] = set()
    for bid in cfg.blocks:
        for dst, kind in cfg.successors(bid):
            out.add((bid, dst, kind))
    return out


class TestBlockSplitting:
    SOURCE = (
        "def sample(c: bool) -> int:\n"
        "    a = 1\n"
        "    if c:\n"
        "        b = 2\n"
        "    else:\n"
        "        b = 3\n"
        "    return b\n"
    )

    def test_header_anchors_with_preceding_straightline_code(self):
        func, cfg = cfg_of(self.SOURCE)
        assign, branch = func.body[0], func.body[1]
        assert cfg.block_of_stmt(assign) == cfg.block_of_stmt(branch)

    def test_branch_bodies_get_their_own_blocks(self):
        func, cfg = cfg_of(self.SOURCE)
        branch = func.body[1]
        assert isinstance(branch, ast.If)
        then_bid = cfg.block_of_stmt(branch.body[0])
        else_bid = cfg.block_of_stmt(branch.orelse[0])
        cond_bid = cfg.block_of_stmt(branch)
        assert len({cond_bid, then_bid, else_bid}) == 3
        kinds = {
            (dst, kind) for dst, kind in cfg.successors(cond_bid)
        }
        assert (then_bid, TRUE) in kinds
        assert (else_bid, FALSE) in kinds

    def test_branches_rejoin_before_the_return(self):
        func, cfg = cfg_of(self.SOURCE)
        branch, ret = func.body[1], func.body[2]
        assert isinstance(branch, ast.If)
        join_bid = cfg.block_of_stmt(ret)
        assert join_bid != cfg.block_of_stmt(branch)
        pred_bids = {p for p, _ in cfg.predecessors(join_bid)}
        assert cfg.block_of_stmt(branch.body[0]) in pred_bids
        assert cfg.block_of_stmt(branch.orelse[0]) in pred_bids

    def test_every_statement_maps_to_one_block(self):
        func, cfg = cfg_of(self.SOURCE)
        ids = [id(s) for s in cfg.statements()]
        assert len(ids) == len(set(ids))
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.stmt) and stmt is not func:
                assert cfg.block_of_stmt(stmt) is not None


class TestExceptionEdges:
    def test_call_statement_reaches_raise_exit(self):
        func, cfg = cfg_of(
            "def f() -> int:\n"
            "    x = g()\n"
            "    return x\n"
        )
        bid = cfg.block_of_stmt(func.body[0])
        assert (bid, cfg.raise_exit, EXC) in edges_of(cfg)

    def test_typed_handler_keeps_the_outward_edge(self):
        func, cfg = cfg_of(
            "def f() -> int:\n"
            "    try:\n"
            "        x = g()\n"
            "    except OSError:\n"
            "        x = 0\n"
            "    return x\n"
        )
        try_stmt = func.body[0]
        assert isinstance(try_stmt, ast.Try)
        body_bid = cfg.block_of_stmt(try_stmt.body[0])
        handler_bid = cfg.block_of_stmt(try_stmt.handlers[0].body[0])
        edges = edges_of(cfg)
        assert (body_bid, handler_bid, EXC) in edges
        # ``except OSError`` does not catch everything: the exception
        # edge continues to the function's exceptional exit.
        assert (body_bid, cfg.raise_exit, EXC) in edges

    def test_catch_all_handler_stops_propagation(self):
        func, cfg = cfg_of(
            "def f() -> int:\n"
            "    try:\n"
            "        x = g()\n"
            "    except Exception:\n"
            "        x = 0\n"
            "    return x\n"
        )
        try_stmt = func.body[0]
        assert isinstance(try_stmt, ast.Try)
        body_bid = cfg.block_of_stmt(try_stmt.body[0])
        assert (body_bid, cfg.raise_exit, EXC) not in edges_of(cfg)

    def test_finally_sits_on_both_continuations(self):
        func, cfg = cfg_of(
            "def f(fh) -> int:\n"
            "    try:\n"
            "        x = use(fh)\n"
            "    finally:\n"
            "        fh.close()\n"
            "    return x\n"
        )
        try_stmt, ret = func.body[0], func.body[1]
        assert isinstance(try_stmt, ast.Try)
        body_bid = cfg.block_of_stmt(try_stmt.body[0])
        fin_bid = cfg.block_of_stmt(try_stmt.finalbody[0])
        edges = edges_of(cfg)
        # The protected body raises *into* the finally, not past it.
        assert (body_bid, fin_bid, EXC) in edges
        assert (body_bid, cfg.raise_exit, EXC) not in edges
        # The finally block routes each pending continuation onward:
        # normal fall-through to the join, the exception outward.
        succ_bids = {dst for dst, _ in cfg.successors(fin_bid)}
        assert cfg.block_of_stmt(ret) in succ_bids
        assert cfg.raise_exit in succ_bids


class TestSolveBackwardLiveness:
    """A tiny liveness analysis over ``solve_backward``."""

    @staticmethod
    def _live_in(source: str):
        func, cfg = cfg_of(source)

        def uses_defs(stmt: ast.stmt) -> tuple[set[str], set[str]]:
            uses: set[str] = set()
            defs: set[str] = set()
            for node in header_walk(stmt):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        uses.add(node.id)
                    else:
                        defs.add(node.id)
            return uses, defs

        def transfer(bid, flow_meet, exc_meet):
            live = frozenset(flow_meet)
            for stmt in reversed(cfg.blocks[bid].statements):
                uses, defs = uses_defs(stmt)
                if can_raise(stmt):
                    live |= exc_meet
                live = (live - defs) | uses
            return live

        states = solve_backward(
            cfg,
            exit_state=frozenset(),
            transfer=transfer,
            meet=lambda a, b: a | b,
            top=frozenset(),
        )
        return func, cfg, states

    def test_straightline_kill_and_gen(self):
        func, cfg, states = self._live_in(
            "def f(a: int) -> int:\n"
            "    x = inp()\n"
            "    y = x + a\n"
            "    return y\n"
        )
        entry_live = states[cfg.block_of_stmt(func.body[0])]
        # ``x`` is defined before use; ``a`` flows in from outside.
        assert "a" in entry_live
        assert "x" not in entry_live
        assert "y" not in entry_live

    def test_branch_join_unions_liveness(self):
        func, cfg, states = self._live_in(
            "def f(a: int, b: int) -> int:\n"
            "    x = inp()\n"
            "    if a:\n"
            "        y = x + 1\n"
            "    else:\n"
            "        y = b\n"
            "    return y\n"
        )
        branch = func.body[1]
        assert isinstance(branch, ast.If)
        then_live = states[cfg.block_of_stmt(branch.body[0])]
        else_live = states[cfg.block_of_stmt(branch.orelse[0])]
        assert "x" in then_live and "x" not in else_live
        assert "b" in else_live
        entry_live = states[cfg.block_of_stmt(func.body[0])]
        # Before ``x = inp()`` the branch condition and both branch
        # inputs are live, ``x`` is not.
        assert {"a", "b"} <= entry_live
        assert "x" not in entry_live

    def test_loop_keeps_the_accumulator_live(self):
        func, cfg, states = self._live_in(
            "def f(xs: list[int]) -> int:\n"
            "    total = 0\n"
            "    for x in xs:\n"
            "        total = total + x\n"
            "    return total\n"
        )
        loop = func.body[1]
        assert isinstance(loop, ast.For)
        body_live = states[cfg.block_of_stmt(loop.body[0])]
        # The accumulator feeds both the next iteration and the
        # return, so it stays live throughout the body.
        assert "total" in body_live
        assert "x" in body_live


# ----------------------------------------------------------------------
# Property sweep: random bodies, global invariants
# ----------------------------------------------------------------------
def _simple_stmt() -> st.SearchStrategy[ast.stmt]:
    return st.sampled_from(["pass", "x = 1", "y = f(x)", "g(y)"]).map(
        lambda src: ast.parse(src).body[0]
    )


def _terminator(in_loop: bool) -> st.SearchStrategy[ast.stmt]:
    options = ["return 1", "raise ValueError(2)"]
    if in_loop:
        options += ["break", "continue"]
    return st.sampled_from(options).map(
        lambda src: ast.parse(src, mode="exec").body[0]
    )


def _body(depth: int, in_loop: bool) -> st.SearchStrategy[list[ast.stmt]]:
    stmt = _statement(depth, in_loop)
    head = st.lists(stmt, min_size=1, max_size=3)
    # Optionally end the body with a control-flow terminator.
    return st.tuples(
        head, st.none() | _terminator(in_loop)
    ).map(lambda pair: pair[0] + ([pair[1]] if pair[1] else []))


def _statement(
    depth: int, in_loop: bool
) -> st.SearchStrategy[ast.stmt]:
    if depth <= 0:
        return _simple_stmt()
    inner = _body(depth - 1, in_loop)
    loop_inner = _body(depth - 1, True)

    def make_if(pair):
        body, orelse = pair
        return ast.If(
            test=ast.Name(id="c", ctx=ast.Load()),
            body=body,
            orelse=orelse or [],
        )

    def make_while(pair):
        body, orelse = pair
        return ast.While(
            test=ast.Name(id="c", ctx=ast.Load()),
            body=body,
            orelse=orelse or [],
        )

    def make_for(pair):
        body, orelse = pair
        return ast.For(
            target=ast.Name(id="i", ctx=ast.Store()),
            iter=ast.Name(id="xs", ctx=ast.Load()),
            body=body,
            orelse=orelse or [],
        )

    def make_try(quad):
        body, caught, finalbody, handler_body = quad
        handlers = (
            []
            if caught == "none"
            else [
                ast.ExceptHandler(
                    type=None
                    if caught is None
                    else ast.Name(id=caught, ctx=ast.Load()),
                    name=None,
                    body=handler_body,
                )
            ]
        )
        if not handlers and not finalbody:
            # ``try`` needs at least one of except/finally to be
            # valid Python; fall back to a finally.
            finalbody = handler_body
        return ast.Try(
            body=body,
            handlers=handlers,
            orelse=[],
            finalbody=finalbody or [],
        )

    branch = st.tuples(inner, st.none() | inner).map(make_if)
    while_loop = st.tuples(loop_inner, st.none() | inner).map(make_while)
    for_loop = st.tuples(loop_inner, st.none() | inner).map(make_for)
    # "none" → no except clause at all; None → a bare ``except:``.
    handler_type = st.sampled_from(
        ["none", None, "OSError", "Exception"]
    )
    try_stmt = st.tuples(
        inner,
        handler_type,
        st.none() | inner,
        inner,
    ).map(make_try)
    return st.one_of(
        _simple_stmt(), branch, while_loop, for_loop, try_stmt
    )


def _function_from(body: list[ast.stmt]) -> ast.FunctionDef:
    template = ast.parse("def f():\n    pass").body[0]
    assert isinstance(template, ast.FunctionDef)
    template.body = body
    module = ast.Module(body=[template], type_ignores=[])
    ast.fix_missing_locations(module)
    # Validity check: the generated body must be real Python.
    compile(module, "<generated>", "exec")
    return template


def _all_stmts(body: list[ast.stmt]):
    for stmt in body:
        yield stmt
        for attr in ("body", "orelse", "finalbody"):
            yield from _all_stmts(getattr(stmt, attr, []) or [])
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _all_stmts(handler.body)


@settings(
    max_examples=75,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=_body(depth=2, in_loop=False))
def test_property_every_statement_in_exactly_one_block(body):
    func = _function_from(body)
    cfg = build_cfg(func)
    expected = sorted(id(s) for s in _all_stmts(func.body))
    placed = sorted(id(s) for s in cfg.statements())
    assert placed == expected
    for stmt in _all_stmts(func.body):
        assert cfg.block_of_stmt(stmt) in cfg.blocks


@settings(
    max_examples=75,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(body=_body(depth=2, in_loop=False))
def test_property_edges_connect_existing_blocks(body):
    func = _function_from(body)
    cfg = build_cfg(func)
    for bid in cfg.blocks:
        for dst, kind in cfg.successors(bid):
            assert dst in cfg.blocks
            assert (bid, kind) in cfg.predecessors(dst)
        for src, kind in cfg.predecessors(bid):
            assert src in cfg.blocks
            assert (bid, kind) in cfg.successors(src)
