"""Guard: no public code in ``src/repro`` is reached only by the tests.

Every public function and class defined at module level under ``src/repro``
must be named somewhere other than its own body: in ``src/`` code, the
examples, ``perfbench/``, the bundled scenario TOML or ``docs/``.  A
re-export is not a use: ``import`` statements, ``__all__`` entries and
``_LAZY`` entries do not count (the scan reads names and attributes in the
Python files, never strings or import lists).  A registering decorator
(``@register``) counts, because registering is how such code is reached.

Code that only tests reach is deleted; a test oracle moves into ``tests/``
(see ``tests/oracles.py``).  ``ALLOWED`` holds the known exceptions with
their reasons.  It may only shrink: once an entry gains a use or goes away,
the second test fails until the entry is removed.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Public module-level names that only tests reach, kept for a reason.
ALLOWED = {
    "segments_for_mode": "left for the next subtraction, with EdgeServer and XRDevice",
    "series_accuracy": "left for the next subtraction",
    "format_float": "left for the next subtraction",
    "toml_available": "the tests skip the TOML scenario cases without a parser",
    "fault_schedule_names": "left for the next subtraction",
    "mixed_workloads": "the cross-layer property tests draw populations from it",
    "mb_to_bytes": "unit conversion, kept beside its inverse in repro.units",
    "ms_to_seconds": "unit conversion, kept beside its inverse in repro.units",
    "period_ms_to_hz": "unit conversion, kept beside its inverse in repro.units",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _names(node, skip=()):
    """Every ``Name`` id and ``Attribute`` attr under ``node``, outside ``skip``."""
    found, stack = set(), [node]
    while stack:
        current = stack.pop()
        if current in skip:
            continue
        if isinstance(current, ast.Name):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _registered(definition):
    for decorator in definition.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if "register" in name:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _scan():
    """{name: defining files} of every public definition without a non-test use."""
    defined, registered = {}, set()
    # Uses per definition site: a name used only inside its own body is unused.
    uses = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions = _public_definitions(tree)
        for definition in definitions:
            defined.setdefault(definition.name, []).append(path.relative_to(ROOT))
            if _registered(definition):
                registered.add(definition.name)
            for name in _names(definition):
                uses.setdefault(name, set()).add((path, definition.name))
        for name in _names(tree, skip=set(definitions)):
            uses.setdefault(name, set()).add((path, None))
    for folder in ("examples", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name in _names(ast.parse(path.read_text(encoding="utf-8"))):
                uses.setdefault(name, set()).add((path, None))
    texts = [*(SRC / "experiments" / "scenarios").glob("*.toml"), *(ROOT / "docs").rglob("*.md")]
    words = set()
    for path in texts:
        words.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))

    unused = {}
    for name, paths in defined.items():
        own_bodies = {(ROOT / path, name) for path in paths}
        if name in registered or name in words or uses.get(name, set()) - own_bodies:
            continue
        unused[name] = sorted(str(path) for path in paths)
    return unused


def test_every_public_definition_has_a_use_outside_the_tests():
    unexpected = {
        name: paths for name, paths in _scan().items() if name not in ALLOWED
    }
    assert not unexpected, (
        "only tests reach these public definitions; delete them, move a test "
        f"oracle into tests/, or give a reason in ALLOWED: {unexpected}"
    )


def test_allowed_exceptions_are_still_test_only():
    stale = sorted(set(ALLOWED) - set(_scan()))
    assert not stale, f"remove these ALLOWED entries, they are used or gone now: {stale}"
