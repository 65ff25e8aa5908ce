"""RL4 — exception taxonomy.

``engine/errors.py`` (PR 3) gives every engine failure mode a class so
callers — the CLI, the coordinator's degradation ladder, tests — react
to *categories* instead of string-matching messages.  Raising a generic
``Exception`` / ``RuntimeError`` in ``engine/`` silently escapes that
contract (a caller that retries on ``EngineError`` will crash on
it), and a new exception class defined outside the taxonomy fragments
it.  Two checks, both scoped to ``engine/``:

* ``raise Exception(...)`` / ``raise RuntimeError(...)`` /
  ``raise BaseException(...)`` → use (or add) a taxonomy class;
* ``class FooError(Exception)`` defined outside ``errors.py`` → derive
  from :class:`~repro.engine.errors.EngineError` so category handlers
  keep working.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import BaseRule, register

#: Generic exception types that must not be raised in engine code.
GENERIC_EXCEPTIONS = frozenset({"Exception", "RuntimeError", "BaseException"})

#: Module that owns the taxonomy (the one place generic bases are fine).
TAXONOMY_MODULE = "errors.py"


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


@register
class ExceptionTaxonomyRule(BaseRule):
    code = "RL4"
    name = "exception-taxonomy"
    summary = (
        "generic Exception/RuntimeError raised (or subclassed outside "
        "errors.py) in engine/ instead of the EngineError taxonomy"
    )
    enforced = ("engine",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        in_taxonomy = ctx.module_name == TAXONOMY_MODULE
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = _base_name(target)
                if name in GENERIC_EXCEPTIONS:
                    yield self.diag(
                        ctx,
                        node,
                        f"`raise {name}` bypasses the engine failure "
                        f"taxonomy; raise an `engine.errors` class (or "
                        f"add one) so callers can handle the category",
                    )
            elif isinstance(node, ast.ClassDef) and not in_taxonomy:
                for base in node.bases:
                    name = _base_name(base)
                    if name in GENERIC_EXCEPTIONS:
                        yield self.diag(
                            ctx,
                            node,
                            f"exception class `{node.name}` derives from "
                            f"generic `{name}` outside errors.py; derive "
                            f"from EngineError (or a taxonomy subclass) "
                            f"so category handlers keep working",
                        )
