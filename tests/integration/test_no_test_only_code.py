"""Guard: no public code in ``src/repro`` is reached only by the tests.

Every public function and class defined at module level under ``src/repro``,
and every public method and property of such a class, must be named
somewhere other than its own body: in ``src/`` code, the examples,
``perfbench/``, the bundled scenario TOML or ``docs/``.  A re-export is not a
use: ``import`` statements, ``__all__`` entries and ``_LAZY`` entries do not
count (the scan reads names and attributes in the Python files, never
strings or import lists).  In ``docs/`` only code spans and fenced blocks
count, so an English word in prose does not keep a method of that name
alive.  A registering decorator (``@register``) counts, because registering
is how such code is reached.

The scan matches names, not objects: a method counts as used when any
attribute of its name is read outside the tests, whatever the receiver.

Code that only tests reach is deleted; a test oracle moves into ``tests/``
(see ``tests/oracles.py``).  ``ALLOWED`` and ``ALLOWED_METHODS`` hold the
known exceptions with their reasons.  They may only shrink: once an entry
gains a use or goes away, a test fails until the entry is removed.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Public module-level names that only tests reach, kept for a reason.
ALLOWED = {
    "toml_available": "the tests skip the TOML scenario cases without a parser",
    "mb_to_bytes": "unit conversion, kept beside its inverse in repro.units",
    "ms_to_seconds": "unit conversion, kept beside its inverse in repro.units",
    "period_ms_to_hz": "unit conversion, kept beside its inverse in repro.units",
}

#: Public methods and properties (``"Class.name"``) that only tests reach,
#: kept for a reason.
ALLOWED_METHODS = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`[^`\n]+`")


def _is_public_def(node, kinds=(ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
    return isinstance(node, kinds) and not node.name.startswith("_")


def _record(node, owner, uses):
    """Add ``owner`` to ``uses[name]`` for every ``Name``/``Attribute`` under ``node``."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Name):
            uses.setdefault(current.id, set()).add(owner)
        elif isinstance(current, ast.Attribute):
            uses.setdefault(current.attr, set()).add(owner)
        stack.extend(ast.iter_child_nodes(current))


def _registered(definition):
    for decorator in definition.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if "register" in name:
            return True
    return False


def _doc_words(text):
    """Identifiers inside the fenced blocks and code spans of a Markdown text."""
    blocks = _FENCED.findall(text)
    spans = _CODE_SPAN.findall(_FENCED.sub("", text))
    return set(_IDENTIFIER.findall("\n".join(blocks + spans)))


@functools.lru_cache(maxsize=None)
def _scan():
    """``(definitions, methods)`` without a non-test use, each ``{name: files}``.

    A use is owned by ``(file, top-level definition, method)``; a use inside
    a definition's own body (or a method's own body) does not count for it.
    """
    defined, methods, registered, uses = {}, {}, set(), {}
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _is_public_def(node):
                _record(node, (relative, None, None), uses)
                continue
            defined.setdefault(node.name, []).append(relative)
            if _registered(node):
                registered.add(node.name)
            if not isinstance(node, ast.ClassDef):
                _record(node, (relative, node.name, None), uses)
                continue
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                _record(part, (relative, node.name, None), uses)
            for member in node.body:
                if _is_public_def(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.setdefault(member.name, set()).add((relative, node.name))
                name = getattr(member, "name", None)
                _record(member, (relative, node.name, name), uses)
    for folder in ("examples", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            _record(ast.parse(path.read_text(encoding="utf-8")), (str(path), None, None), uses)
    words = set()
    for path in (SRC / "experiments" / "scenarios").glob("*.toml"):
        words.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    for path in (ROOT / "docs").rglob("*.md"):
        words.update(_doc_words(path.read_text(encoding="utf-8")))

    def used(name, own):
        return name in words or any(not own(owner) for owner in uses.get(name, ()))

    unused_definitions = {
        name: sorted(paths)
        for name, paths in defined.items()
        if name not in registered
        and not used(name, lambda owner, name=name: owner[1] == name and owner[0] in paths)
    }
    unused_methods = {}
    for name, sites in methods.items():
        bodies = {(relative, cls, name) for relative, cls in sites}
        if used(name, bodies.__contains__):
            continue
        for relative, cls in sites:
            unused_methods.setdefault(f"{cls}.{name}", []).append(relative)
    return unused_definitions, unused_methods


def test_every_public_definition_has_a_use_outside_the_tests():
    unexpected = {
        name: paths for name, paths in _scan()[0].items() if name not in ALLOWED
    }
    assert not unexpected, (
        "only tests reach these public definitions; delete them, move a test "
        f"oracle into tests/, or give a reason in ALLOWED: {unexpected}"
    )


def test_every_public_method_has_a_use_outside_the_tests():
    unexpected = {
        name: paths for name, paths in _scan()[1].items() if name not in ALLOWED_METHODS
    }
    assert not unexpected, (
        "only tests reach these public methods and properties; delete them, move "
        f"a test oracle into tests/, or give a reason in ALLOWED_METHODS: {unexpected}"
    )


def test_allowed_exceptions_are_still_test_only():
    definitions, methods = _scan()
    stale = sorted(set(ALLOWED) - set(definitions)) + sorted(
        set(ALLOWED_METHODS) - set(methods)
    )
    assert not stale, f"remove these allowed entries, they are used or gone now: {stale}"


def test_docs_count_only_code_spans_and_fenced_blocks():
    text = "The word none is prose.\n\n`plan_edges(n)` is code.\n\n```python\nrun_cosim()\n```\n"
    assert _doc_words(text) == {"plan_edges", "n", "python", "run_cosim"}


def test_a_backtick_pair_across_lines_is_not_a_code_span():
    assert _doc_words("Prose with `half\nof a span` in it.\n") == set()


def test_code_spans_after_a_fenced_block_still_count():
    text = "```\nrun_cosim()\n```\n\nThen call `plan_edges` in prose.\n"
    assert _doc_words(text) == {"run_cosim", "plan_edges"}


@pytest.mark.parametrize(
    "decorator, registers",
    [
        ("@register", True),
        ("@register(name, title=title, source='generator')", True),
        ("@registry.register('fig4')", True),
        ("@property", False),
        ("@functools.lru_cache(maxsize=None)", False),
    ],
)
def test_only_registering_decorators_count_as_a_use(decorator, registers):
    definition = ast.parse(f"{decorator}\ndef build():\n    pass\n").body[0]
    assert _registered(definition) is registers
