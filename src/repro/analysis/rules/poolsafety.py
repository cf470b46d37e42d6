"""REP003 — callables handed to process pools must be module-level.

Backend ``map_tasks`` and raw executor ``submit`` ship their
callable to worker processes by pickling.  Lambdas, closures (functions
defined inside other functions), and bound methods (``self.method``)
either fail to pickle — at best triggering the slow unpicklable serial
fallback — or drag an entire instance graph across the process
boundary.  Both are invisible at the call site and only surface as
mysterious performance cliffs, so the rule flags them statically:

* a ``lambda`` argument — always flagged;
* a bare name that resolves to a function defined in a nested scope in the
  same file — flagged as a closure;
* a ``self.method`` / ``cls.method`` attribute — flagged as a bound method.

Module-level functions, imported names, and attributes of imported modules
pass (the rule stays silent on anything it cannot resolve within the file).
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules.base import FileContext, LintRule, register

#: Call names whose first positional argument is a pool-bound callable.
_POOL_ENTRYPOINTS = frozenset({"map_tasks", "submit"})


def _nested_function_names(tree: ast.AST) -> Set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: Set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.Lambda):
                visit(child, True)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return nested


def _entrypoint_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class PoolSafetyRule(LintRule):
    """Flag unpicklable callables passed to ``map_tasks``/``submit``."""

    id = "REP003"
    description = (
        "callables passed to map_tasks/executor submit must "
        "be module-level (no lambdas, closures, or bound methods)"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.is_python or ctx.tree is None or not ctx.in_repro_src:
            return
        nested = _nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            entry = _entrypoint_name(node.func)
            if entry not in _POOL_ENTRYPOINTS or not node.args:
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield self.diagnostic(
                    ctx,
                    target.lineno,
                    f"lambda passed to {entry}(); pool tasks must be "
                    f"module-level functions so they pickle",
                )
            elif isinstance(target, ast.Name) and target.id in nested:
                yield self.diagnostic(
                    ctx,
                    target.lineno,
                    f"closure {target.id!r} passed to {entry}(); pool tasks "
                    f"must be module-level functions so they pickle",
                )
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                yield self.diagnostic(
                    ctx,
                    target.lineno,
                    f"bound method {target.value.id}.{target.attr} passed to "
                    f"{entry}(); pool tasks must be module-level functions "
                    f"so they pickle without dragging the instance along",
                )
