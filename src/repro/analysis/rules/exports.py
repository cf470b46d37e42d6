"""REP006 — ``__all__`` in each ``__init__.py`` matches reality.

The subsystem ``__init__.py`` files are the public API listing; drift in
either direction makes them untrustworthy:

* an ``__all__`` entry that is never defined or imported breaks
  ``from repro.x import *`` and misleads readers about the API surface;
* a public name imported from inside the package (a re-export) that is
  missing from ``__all__`` hides API that the module docstring and README
  advertise.

A package root that resolves its re-exports on first use lists them in a
``_LAZY = {"Name": "pkg.module", ...}`` dict literal; each key counts as a
name the module re-exports from inside its package, so both directions
hold for lazy roots as well.

Names imported from the standard library or third-party packages are
exempt from the second direction — an ``__init__`` may use ``Path`` or
``json`` internally without exporting them.  Underscore-prefixed names are
always exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules.base import FileContext, LintRule, register


def _module_bindings(
    tree: ast.Module, package_root: Optional[str]
) -> Tuple[Dict[str, int], Set[str]]:
    """(all module-level bound names -> line, names re-exported from within
    the same top-level package).  Each key of a ``_LAZY`` table counts as
    both: the package binds it on first access, from its own modules."""
    bound: Dict[str, int] = {}
    internal: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
            internal.add(node.name)  # defined here -> part of this package
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = node.lineno
                    if target.id == "_LAZY" and isinstance(node.value, ast.Dict):
                        for key in node.value.keys:
                            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                                bound[key.value] = key.lineno
                                internal.add(key.value)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            from_inside = node.level > 0 or (
                node.module is not None
                and package_root is not None
                and node.module.split(".")[0] == package_root
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bound[local] = node.lineno
                if from_inside:
                    internal.add(local)
    return bound, internal


def _parse_all(tree: ast.Module) -> Optional[List[Tuple[str, int]]]:
    """``__all__`` entries with their line numbers, or None when absent."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            entries: List[Tuple[str, int]] = []
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    entries.append((element.value, element.lineno))
            return entries
    return None


@register
class ExportConsistencyRule(LintRule):
    """Flag ``__all__`` drift in ``__init__.py`` files."""

    id = "REP006"
    description = (
        "__all__ in every __init__.py must list exactly the names the "
        "module defines or re-exports from its own package"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if not ctx.is_python or ctx.tree is None:
            return
        if ctx.parts[-1] != "__init__.py":
            return
        assert isinstance(ctx.tree, ast.Module)
        exported = _parse_all(ctx.tree)
        if exported is None:
            return  # no __all__ -> nothing promised, nothing to drift
        # The top-level package this __init__ belongs to: the directory
        # right after ``src/``, or the first path component otherwise.
        parts = ctx.parts
        package_root: Optional[str] = None
        for index, part in enumerate(parts[:-1]):
            if part == "src":
                package_root = parts[index + 1]
                break
        if package_root is None and len(parts) > 1:
            package_root = parts[0]
        bound, internal = _module_bindings(ctx.tree, package_root)
        listed = {name for name, _ in exported}
        for name, line in exported:
            if name == "__version__":
                continue  # conventionally re-exported metadata
            if name not in bound:
                yield self.diagnostic(
                    ctx,
                    line,
                    f"__all__ lists {name!r} but the module never defines "
                    f"or imports it",
                )
        for name in sorted(internal):
            if name.startswith("_") or name in listed:
                continue
            yield self.diagnostic(
                ctx,
                bound[name],
                f"{name!r} is re-exported here but missing from __all__; "
                f"the public API listing is incomplete",
            )
