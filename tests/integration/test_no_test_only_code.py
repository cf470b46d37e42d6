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

The same holds for options.  Every parameter with a default, and every
defaulted dataclass field, of a public function, method or class in
``repro.adaptive``, ``repro.cosim`` and ``repro.fleet`` must be passed, by
keyword or by position, in some call in the Python files above to a callee
of its name.  ``cls(...)`` inside a class calls that class, and a call that
forwards a function's ``**kwargs`` passes on every keyword the function's
own callers pass it.  ``ALLOWED_OPTIONS`` holds the exceptions and may only
shrink.
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


#: Packages whose options must each be set by a call outside the tests.
OPTION_PACKAGES = ("adaptive", "cosim", "fleet")

#: Options (``"callee.option"``) that no call outside the tests sets, kept
#: for a reason.
_SEAM = "test seam: hands the loop a small explicit candidate list"
_DISPATCHED = "set through make_trace(name, n_epochs, **kwargs), which picks the generator by name"
_DOCS_ONLY = "plan_edges is called only in docs/FLEET.md, whose calls the scan does not read"
ALLOWED_OPTIONS = {
    "AdaptiveRuntime.candidates": _SEAM,
    "CoSimulation.candidates": _SEAM,
    "burst_trace.epoch_ms": _DISPATCHED,
    "burst_trace.jitter": _DISPATCHED,
    "drift_trace.epoch_ms": _DISPATCHED,
    "drift_trace.jitter": _DISPATCHED,
    "drift_trace.seed": _DISPATCHED,
    "mobility_fading_trace.epoch_ms": _DISPATCHED,
    "step_trace.epoch_ms": _DISPATCHED,
    "plan_capacity.max_users": "the bisection's search ceiling (CapacityPlan.search_ceiling)",
    "plan_edges.app": _DOCS_ONLY,
    "plan_edges.device": _DOCS_ONLY,
    "plan_edges.edge": _DOCS_ONLY,
    "plan_edges.max_edges": _DOCS_ONLY,
    "plan_edges.n_users": _DOCS_ONLY,
    "plan_edges.network": _DOCS_ONLY,
    "plan_edges.slo_ms": _DOCS_ONLY,
}


def _defaults(arguments):
    """``{name: position}`` of the defaulted parameters; ``None`` for keyword-only."""
    positional = [*arguments.posonlyargs, *arguments.args]
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(arguments.defaults)
    options = {arg.arg: index for index, arg in enumerate(positional) if index >= first}
    for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            options[arg.arg] = None
    return options


def _is_dataclass(node):
    return any(
        "dataclass" in ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator)
        for decorator in node.decorator_list
    )


def _field_options(node):
    """``{name: position}`` of a dataclass's defaulted ``__init__`` fields."""
    options, position = {}, 0
    for member in node.body:
        if not isinstance(member, ast.AnnAssign) or not isinstance(member.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(member.annotation):
            continue
        value = member.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            if any(
                kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in value.keywords
            ):
                continue
        if value is not None:
            options[member.target.id] = position
        position += 1
    return options


def _option_table(modules):
    """``{(callee, option): position}`` of the public callables defined in ``modules``."""
    options = {}
    for module in modules:
        for node in module.body:
            if not _is_public_def(node):
                continue
            if not isinstance(node, ast.ClassDef):
                found = {node.name: _defaults(node.args)}
            else:
                found = {node.name: _field_options(node) if _is_dataclass(node) else {}}
                for member in node.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if member.name == "__init__":
                        found[node.name].update(_defaults(member.args))
                    elif not member.name.startswith("_"):
                        found.setdefault(member.name, {}).update(_defaults(member.args))
            for callee, names in found.items():
                for name, position in names.items():
                    options[(callee, name)] = position
    return options


def _parsed(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


@functools.lru_cache(maxsize=None)
def _options():
    """The option table of the option packages."""
    paths = [path for package in OPTION_PACKAGES for path in sorted((SRC / package).rglob("*.py"))]
    return _option_table(_parsed(paths))


def _callee(call, owner):
    """The name a call reaches: ``cls(...)`` and ``super().__init__(...)`` resolve."""
    func = call.func
    if isinstance(func, ast.Name):
        return owner.name if func.id == "cls" and owner else func.id
    if not isinstance(func, ast.Attribute):
        return None
    if (
        func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and ast.unparse(func.value.func) == "super"
        and owner
        and owner.bases
    ):
        return ast.unparse(owner.bases[0]).rsplit(".", 1)[-1]
    return func.attr


def _spread_keys(node):
    """``{name: keys}`` of the dict literals with string keys assigned in ``node``."""
    spreads = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Assign) and isinstance(child.value, ast.Dict):
            keys = {
                key.value
                for key in child.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            for target in child.targets:
                if isinstance(target, ast.Name):
                    spreads[target.id] = keys
    return spreads


def _call_table(modules):
    """``({callee: keywords}, {callee: positional count})`` over the calls in ``modules``.

    A starred positional argument counts as passing every later position, and
    ``**name`` of a dict literal assigned to ``name`` passes the literal's keys.
    A function's own calls that forward its ``**kwargs`` pass on what its
    callers pass; an ``__init__`` is called by its class's name.
    """
    keywords, positions, forwards = {}, {}, {}

    def visit(node, owner, kwargs_name, function, spreads):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, None, None, spreads)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kwarg = child.args.kwarg.arg if child.args.kwarg else None
                name = owner.name if child.name == "__init__" and owner else child.name
                visit(child, owner, kwarg, name, _spread_keys(child))
                continue
            if isinstance(child, ast.Call):
                callee = _callee(child, owner)
                if callee is not None:
                    names = keywords.setdefault(callee, set())
                    for kw in child.keywords:
                        if kw.arg is not None:
                            names.add(kw.arg)
                        elif isinstance(kw.value, ast.Name) and kw.value.id == kwargs_name:
                            forwards.setdefault(function, set()).add(callee)
                        elif isinstance(kw.value, ast.Name):
                            names |= spreads.get(kw.value.id, set())
                    starred = any(isinstance(arg, ast.Starred) for arg in child.args)
                    count = float("inf") if starred else len(child.args)
                    positions[callee] = max(positions.get(callee, 0), count)
            visit(child, owner, kwargs_name, function, spreads)

    for module in modules:
        visit(module, None, None, None, {})
    changed = True
    while changed:
        changed = False
        for forwarder, callees in forwards.items():
            for callee in callees:
                passed = keywords.setdefault(callee, set())
                before = len(passed)
                passed |= keywords.get(forwarder, set())
                changed = changed or len(passed) != before
    return keywords, positions


@functools.lru_cache(maxsize=None)
def _calls():
    """The call table of every Python file outside the tests that ``_scan`` reads."""
    paths = sorted(SRC.rglob("*.py"))
    for folder in ("examples", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return _call_table(_parsed(paths))


def _unset_in(options, calls):
    """The ``"callee.option"`` names of ``options`` that no call in ``calls`` passes."""
    keywords, positions = calls
    return sorted(
        f"{callee}.{name}"
        for (callee, name), position in options.items()
        if name not in keywords.get(callee, ())
        and (position is None or positions.get(callee, 0) <= position)
    )


def _unset_options():
    return _unset_in(_options(), _calls())


def test_every_option_is_set_outside_the_tests():
    unexpected = [name for name in _unset_options() if name not in ALLOWED_OPTIONS]
    assert not unexpected, (
        "no call outside the tests sets these options; turn them into constants, "
        f"or give a reason in ALLOWED_OPTIONS: {unexpected}"
    )


def test_allowed_options_are_still_unset():
    stale = sorted(set(ALLOWED_OPTIONS) - set(_unset_options()))
    assert not stale, f"remove these allowed options, they are set or gone now: {stale}"


def _unset(code):
    """The unset options of the snippet ``code``, by the guard's own rules."""
    module = ast.parse(code)
    return _unset_in(_option_table([module]), _call_table([module]))


def test_options_cover_defaulted_parameters_and_init_fields():
    code = (
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "    y: float = 0.0\n"
        "    cache: ClassVar[int] = 0\n"
        "    memo: dict = field(default_factory=dict, init=False)\n"
        "    def scale(self, factor, clamp=1.0, *, exact=False):\n"
        "        return self\n"
        "def _private(depth=1):\n"
        "    return depth\n"
    )
    assert _unset(code) == ["Point.y", "scale.clamp", "scale.exact"]
    assert _unset(code + "Point(1.0, 2.0).scale(2.0, 3.0, exact=True)\n") == []


def test_forwarded_kwargs_reach_the_callee():
    code = (
        "class Engine:\n"
        "    def __init__(self, users, damping=0.5):\n"
        "        self.users = users\n"
        "def run(users, shards=1, **kwargs):\n"
        "    return Engine(users, **kwargs)\n"
        "run([], shards=2)\n"
    )
    assert _unset(code) == ["Engine.damping"]
    assert _unset(code + "run([], damping=1.0)\n") == []


def test_cls_and_super_init_calls_reach_their_classes():
    code = (
        "class Base:\n"
        "    def __init__(self, block=None, seed=0):\n"
        "        self.block, self.seed = block, seed\n"
        "class Child(Base):\n"
        "    def __init__(self, *args, extra=0, **kwargs):\n"
        "        super().__init__(*args, **kwargs)\n"
        "    @classmethod\n"
        "    def seeded(cls):\n"
        "        return cls(seed=1, extra=2)\n"
        "Child(block=3)\n"
    )
    assert _unset(code) == []


def test_dict_literal_spreads_and_starred_arguments_count():
    code = (
        "def outcome(user, report=None, fresh=None):\n"
        "    return user\n"
        "def pad(a, b=1, c=2):\n"
        "    return a\n"
        "def build(args):\n"
        "    fields = {'report': 1, 'fresh': 2}\n"
        "    pad(*args)\n"
        "    return outcome('u', **fields)\n"
    )
    assert _unset(code) == []


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
