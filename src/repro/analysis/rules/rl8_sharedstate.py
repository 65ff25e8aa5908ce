"""RL8: shared-state race detector.

Module-level mutable globals and class-attribute caches look shared,
but across a process boundary they are anything but: under ``fork``
each worker inherits a snapshot that silently diverges; under ``spawn``
each worker re-imports the module and starts empty.  Either way a
"cache" written inside worker-reachable code desynchronizes from the
parent — the precise failure mode that corrupts seam reconciliation,
whose merge step assumes every shard computed against the same view.
Writes racing within one process (threads) or between a worker and the
coordinator's retry logic compound the hazard.

The rule collects every spawn payload (``run_shard`` handed to
``pool.map``, ``_shard_child`` handed to ``Process(target=...)``),
takes the transitive closure of functions reachable from those entry
points over the call graph, and flags — inside that worker-reachable
region only — writes to module-level mutable globals (rebinds,
``G[k] = v`` subscript stores, ``G.append``-style mutator calls) and
to class-level mutable attributes (``Cls.cache``/``cls.cache``/
``self.cache`` where ``cache`` is a class-level container).  State a
worker needs must travel in the task and come back in the outcome.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    ClassInfo,
    FunctionInfo,
    Program,
    own_nodes,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import BaseProgramRule, register_program
from repro.analysis.rules.spawnsites import (
    resolve_payload,
    spawn_sites_in_file,
)

#: In-place mutator methods of the builtin containers.
MUTATOR_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "appendleft",
        "popleft",
        "sort",
    }
)


@register_program
class SharedStateRule(BaseProgramRule):
    """No writes to module-level/class-level mutable state in
    worker-reachable code."""

    code = "RL8"
    name = "shared-state"
    summary = (
        "worker-reachable code must not write module-level globals or "
        "class-attribute caches (fork/spawn divergence hazard)"
    )
    enforced = None

    def check_program(self, program: Program) -> Iterator[Diagnostic]:
        entries: list[str] = []
        for path in sorted(program.contexts):
            ctx = program.contexts[path]
            for site in spawn_sites_in_file(program, ctx):
                info = resolve_payload(program, site)
                if info is not None and info.qname not in entries:
                    entries.append(info.qname)
        if not entries:
            return
        reachable = program.graph.reachable_from(sorted(entries))
        origin: dict[str, str] = {}
        for entry in sorted(entries):
            for qname in program.graph.reachable_from([entry]):
                origin.setdefault(qname, entry)
        for qname in sorted(reachable):
            info = program.table.functions.get(qname)
            if info is None:
                continue
            yield from self._check_function(program, info, origin[qname])

    # ------------------------------------------------------------------
    def _check_function(
        self, program: Program, info: FunctionInfo, entry: str
    ) -> Iterator[Diagnostic]:
        locals_ = _local_bindings(info.node)
        globals_decl = _global_decls(info.node)
        owner = self._enclosing_class(program, info)
        where = f"worker-reachable '{_short(info.qname)}' (entered via '{_short(entry)}')"
        for node in own_nodes(info.node):
            yield from self._check_node(
                program, info, node, locals_, globals_decl, owner, where
            )

    def _check_node(
        self,
        program: Program,
        info: FunctionInfo,
        node: ast.AST,
        locals_: frozenset[str],
        globals_decl: frozenset[str],
        owner: ClassInfo | None,
        where: str,
    ) -> Iterator[Diagnostic]:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            yield from self._check_store(
                program, info, target, locals_, globals_decl, owner, where
            )
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            func = node.func
            if func.attr not in MUTATOR_METHODS:
                return
            recv = func.value
            if isinstance(recv, ast.Name):
                if self._is_module_global(
                    program, info, recv.id, locals_, globals_decl
                ):
                    yield self.diag_at(
                        info.path,
                        node.lineno,
                        node.col_offset,
                        f"module-level global '{recv.id}' mutated via "
                        f".{func.attr}() in {where} — worker copies "
                        "diverge under fork/spawn; carry the state in "
                        "the task/outcome instead",
                    )
            elif isinstance(recv, ast.Attribute):
                diag = self._class_attr_write(
                    program, info, recv, owner, where,
                    f"mutated via .{func.attr}()",
                )
                if diag is not None:
                    yield diag

    def _check_store(
        self,
        program: Program,
        info: FunctionInfo,
        target: ast.expr,
        locals_: frozenset[str],
        globals_decl: frozenset[str],
        owner: ClassInfo | None,
        where: str,
    ) -> Iterator[Diagnostic]:
        if isinstance(target, ast.Name):
            if target.id in globals_decl:
                yield self.diag_at(
                    info.path,
                    target.lineno,
                    target.col_offset,
                    f"`global {target.id}` rebound in {where} — the "
                    "rebind happens in the worker's copy only",
                )
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and self._is_module_global(
                program, info, base.id, locals_, globals_decl
            ):
                yield self.diag_at(
                    info.path,
                    target.lineno,
                    target.col_offset,
                    f"module-level global '{base.id}' written by "
                    f"subscript in {where} — worker copies diverge "
                    "under fork/spawn",
                )
            elif isinstance(base, ast.Attribute):
                diag = self._class_attr_write(
                    program, info, base, owner, where,
                    "written by subscript",
                )
                if diag is not None:
                    yield diag
        elif isinstance(target, ast.Attribute):
            diag = self._class_attr_write(
                program, info, target, owner, where, "rebound",
                stores_ok_on_self=True,
            )
            if diag is not None:
                yield diag

    # ------------------------------------------------------------------
    def _is_module_global(
        self,
        program: Program,
        info: FunctionInfo,
        name: str,
        locals_: frozenset[str],
        globals_decl: frozenset[str],
    ) -> bool:
        if name in locals_ and name not in globals_decl:
            return False  # locally shadowed
        var = program.table.globals.get((info.module, name))
        return var is not None and var.mutable

    def _class_attr_write(
        self,
        program: Program,
        info: FunctionInfo,
        attr_node: ast.Attribute,
        owner: ClassInfo | None,
        where: str,
        verb: str,
        stores_ok_on_self: bool = False,
    ) -> Diagnostic | None:
        recv = attr_node.value
        if not isinstance(recv, ast.Name):
            return None
        attr = attr_node.attr
        cls: ClassInfo | None = None
        via = recv.id
        if recv.id in ("cls",) and owner is not None:
            cls = owner
        elif recv.id == "self" and owner is not None:
            # instance rebinds (`self.x = ...`) create instance state,
            # which is worker-private and fine; only *mutations* of a
            # class-level container through self are shared-state writes.
            if stores_ok_on_self:
                return None
            cls = owner
        else:
            cls = program.table.resolve_class(recv.id, info.module)
        if cls is None:
            return None
        rebind_via_cls = recv.id == "cls" and verb == "rebound"
        if attr not in cls.mutable_attrs and not rebind_via_cls:
            return None  # instance attr or immutable class constant
        return self.diag_at(
            info.path,
            attr_node.lineno,
            attr_node.col_offset,
            f"class-level mutable attribute '{cls.name}.{attr}' {verb} "
            f"(through '{via}') in {where} — class state is per-process; "
            "carry it in the task/outcome instead",
        )

    def _enclosing_class(
        self, program: Program, info: FunctionInfo
    ) -> ClassInfo | None:
        if info.class_qname is None:
            return None
        return program.table.classes.get(info.class_qname)


def _short(qname: str) -> str:
    """Trim the ``repro.`` prefix for readable messages."""
    return qname[6:] if qname.startswith("repro.") else qname


def _local_bindings(node: ast.AST) -> frozenset[str]:
    """Names bound locally in a function body (params + stores)."""
    names: set[str] = set()
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = node.args
    for a in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(a.arg)
    for sub in own_nodes(node):
        if isinstance(sub, ast.Name) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            names.add(sub.id)
    return frozenset(names)


def _global_decls(node: ast.AST) -> frozenset[str]:
    names: set[str] = set()
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for sub in own_nodes(node):
        if isinstance(sub, ast.Global):
            names.update(sub.names)
    return frozenset(names)
