"""Declarative experiment scenarios.

A :class:`ScenarioSpec` is the versioned, diffable description of one
reproduction workload: which subsystem to drive (``analyze`` | ``sweep`` |
``fleet`` | ``adapt`` | ``cosim``), on which device/edge pair, with which
application/network overrides and workload parameters, under which seed, and
— optionally — which metric values the run is expected to produce and how
much relative drift the regression gate tolerates per metric.

Specs load from TOML or JSON files (one ``[[scenario]]`` table per spec) and
round-trip bit-exactly through ``to_dict``/``from_dict``, so a suite can be
hashed, committed, and compared across revisions.  Validation happens at
construction time: unknown keys, unknown devices, out-of-range parameters
and kind/parameter mismatches all raise
:class:`repro.exceptions.ConfigurationError` naming the offending field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.adaptive.controllers import CONTROLLERS
from repro.adaptive.runtime import OBJECTIVES
from repro.adaptive.traces import TRACE_GENERATORS
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.validation import ensure_choice, ensure_non_negative
from repro.devices.catalog import DEVICE_CATALOG, EDGE_CATALOG
from repro.exceptions import ConfigurationError
from repro.fleet.admission import ADMISSION_POLICIES

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None

#: Workload kinds a scenario can dispatch to (one per subsystem facade).
SCENARIO_KINDS: Tuple[str, ...] = ("analyze", "sweep", "fleet", "adapt", "cosim")

#: Per-kind parameter allowlists; every ``params`` key must appear here.
_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "analyze": ("include_aoi",),
    "sweep": ("frame_sides_px", "cpu_freqs_ghz"),
    "fleet": (
        "users",
        "n_edges",
        "policy",
        "slo_ms",
        "mixed_devices",
        "plan_capacity",
        "include_aoi",
        "fault_epoch",
    ),
    "adapt": (
        "trace",
        "epochs",
        "epoch_ms",
        "controller",
        "deadline_ms",
        "objective",
        "include_aoi",
    ),
    "cosim": (
        "trace",
        "epochs",
        "epoch_ms",
        "users",
        "controller",
        "n_edges",
        "shards",
        "deadline_ms",
        "objective",
        "max_iterations",
        "include_aoi",
    ),
}

# An ``adapt`` scenario may also replay the best static operating point.
_ADAPT_CONTROLLERS = ("static", *CONTROLLERS)
_COSIM_CONTROLLERS = tuple(CONTROLLERS)

# Overridable scalar fields of the two config dataclasses.  Nested
# sub-configs (encoder/inference/cooperation, sensors/handoff) stay out of
# the declarative surface: scenarios that need them belong in Python.
_APP_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(ApplicationConfig)
    if f.name not in ("encoder", "inference", "cooperation")
)
_NETWORK_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(NetworkConfig)
    if f.name not in ("sensors", "handoff")
)

_SPEC_KEYS = (
    "name",
    "kind",
    "description",
    "device",
    "edge",
    "mode",
    "seed",
    "app",
    "network",
    "params",
    "faults",
    "expected",
    "tolerances",
)

#: Kinds that accept a ``[scenario.faults]`` section (the static
#: ``analyze``/``sweep`` workloads have no epoch axis to fault).
_FAULT_KINDS = ("fleet", "adapt", "cosim")


def _plain(value: object) -> object:
    """Recursively coerce a parsed TOML/JSON tree to dicts/lists/scalars."""
    if isinstance(value, Mapping):
        return {key: _plain(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    return value


def _ensure_str_float_map(name: str, value: Mapping) -> Dict[str, float]:
    mapping: Dict[str, float] = {}
    for key, raw in value.items():
        if not isinstance(key, str):
            raise ConfigurationError(f"{name} keys must be strings, got {key!r}")
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigurationError(f"{name}[{key!r}] must be a number, got {raw!r}")
        mapping[key] = float(raw)
    return mapping


@dataclass
class ScenarioSpec:
    """One declarative reproduction scenario.

    Attributes:
        name: unique identifier within a suite (used by ``--select`` and by
            the regression gate to match manifests).
        kind: workload kind — one of :data:`SCENARIO_KINDS`.
        description: free-form one-liner shown by ``repro experiments list``.
        device: XR device catalog name.
        edge: edge server catalog name.
        mode: execution mode for ``analyze``/``sweep`` scenarios
            (``local`` | ``remote`` | ``split``).
        seed: RNG seed threaded to trace generators.
        app: scalar :class:`ApplicationConfig` field overrides.
        network: scalar :class:`NetworkConfig` field overrides.
        params: kind-specific workload parameters (see ``_PARAM_KEYS``).
        faults: optional fault-schedule payload for ``fleet``/``adapt``/
            ``cosim`` scenarios — either a bundled-generator reference
            (``schedule = "edge-outage"`` plus overrides) or inline
            ``events`` tables, exactly the :func:`repro.faults.build_schedule`
            surface.  Validated at construction; materialised by
            :meth:`build_faults`.
        expected: metric name -> value the run must reproduce (checked by
            the runner within the metric's tolerance).
        tolerances: metric name -> relative tolerance used both for
            ``expected`` checks and by the baseline regression gate.
    """

    name: str
    kind: str
    description: str = ""
    device: str = "XR1"
    edge: str = "EDGE-AGX"
    mode: str = "remote"
    seed: int = 0
    app: Dict[str, object] = field(default_factory=dict)
    network: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    faults: Dict[str, object] = field(default_factory=dict)
    expected: Dict[str, float] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        ensure_choice("kind", self.kind, SCENARIO_KINDS)
        ensure_choice("device", self.device, sorted(DEVICE_CATALOG))
        ensure_choice("edge", self.edge, sorted(EDGE_CATALOG))
        ensure_choice("mode", self.mode, [mode.value for mode in ExecutionMode])
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        ensure_non_negative("seed", self.seed)
        for label, overrides, allowed in (
            ("app", self.app, _APP_FIELDS),
            ("network", self.network, _NETWORK_FIELDS),
        ):
            for key in overrides:
                if key not in allowed:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: unknown {label} override {key!r}; "
                        f"allowed: {sorted(allowed)}"
                    )
        allowed_params = _PARAM_KEYS[self.kind]
        for key in self.params:
            if key not in allowed_params:
                raise ConfigurationError(
                    f"scenario {self.name!r} (kind {self.kind!r}): unknown parameter "
                    f"{key!r}; allowed: {sorted(allowed_params)}"
                )
        self._validate_params()
        if self.faults:
            if self.kind not in _FAULT_KINDS:
                raise ConfigurationError(
                    f"scenario {self.name!r} (kind {self.kind!r}): faults are only "
                    f"supported for kinds {list(_FAULT_KINDS)}"
                )
            # Materialise once to surface schedule errors at load time.
            self.build_faults()
        self.expected = _ensure_str_float_map(f"scenario {self.name!r} expected", self.expected)
        self.tolerances = _ensure_str_float_map(
            f"scenario {self.name!r} tolerances", self.tolerances
        )
        for metric, rtol in self.tolerances.items():
            if rtol < 0.0 or math.isnan(rtol):
                raise ConfigurationError(
                    f"scenario {self.name!r}: tolerance for {metric!r} must be >= 0, got {rtol!r}"
                )

    def _validate_params(self) -> None:
        params = self.params
        if "trace" in params:
            ensure_choice("trace", params["trace"], TRACE_GENERATORS)
        if "policy" in params:
            ensure_choice("policy", params["policy"], ADMISSION_POLICIES)
        if "controller" in params:
            controllers = _ADAPT_CONTROLLERS if self.kind == "adapt" else _COSIM_CONTROLLERS
            ensure_choice("controller", params["controller"], controllers)
        if "objective" in params:
            ensure_choice("objective", params["objective"], OBJECTIVES)
        for key in ("include_aoi", "plan_capacity"):
            if key in params and not isinstance(params[key], bool):
                raise ConfigurationError(
                    f"scenario {self.name!r}: {key} must be true or false, "
                    f"got {params[key]!r}"
                )
        for key in ("users", "epochs", "n_edges", "shards", "max_iterations"):
            if key in params:
                value = params[key]
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: {key} must be a positive integer, "
                        f"got {value!r}"
                    )
        # The positive-number checks are written ``not value > 0`` so that
        # NaN fails them too.
        for key in ("epoch_ms", "deadline_ms", "slo_ms"):
            if key in params:
                value = params[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: {key} must be a positive number, "
                        f"got {value!r}"
                    )
        for key in ("frame_sides_px", "cpu_freqs_ghz"):
            if key in params:
                values = params[key]
                if (
                    not isinstance(values, (list, tuple))
                    or not values
                    or any(
                        isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0
                        for v in values
                    )
                ):
                    raise ConfigurationError(
                        f"scenario {self.name!r}: {key} must be a non-empty list of "
                        f"positive numbers, got {values!r}"
                    )
        if "fault_epoch" in params:
            value = params["fault_epoch"]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"scenario {self.name!r}: fault_epoch must be a non-negative "
                    f"integer, got {value!r}"
                )
        if "mixed_devices" in params:
            devices = params["mixed_devices"]
            if not isinstance(devices, (list, tuple)) or not devices:
                raise ConfigurationError(
                    f"scenario {self.name!r}: mixed_devices must be a non-empty list"
                )
            for device in devices:
                ensure_choice("mixed_devices entry", device, sorted(DEVICE_CATALOG))

    # -- config materialisation ----------------------------------------------------

    def build_app(self) -> ApplicationConfig:
        """The scenario's :class:`ApplicationConfig` (overrides + mode applied)."""
        app = ApplicationConfig(**self.app) if self.app else ApplicationConfig()
        return app.with_mode(ExecutionMode(self.mode))

    def build_network(self) -> NetworkConfig:
        """The scenario's :class:`NetworkConfig` with overrides applied."""
        return NetworkConfig(**self.network) if self.network else NetworkConfig()

    def build_faults(self):
        """The scenario's :class:`~repro.faults.FaultSchedule`, or None.

        Imported lazily so loading a fault-free suite never touches the
        faults subsystem.
        """
        if not self.faults:
            return None
        from repro.faults import build_schedule

        return build_schedule(self.faults)

    # -- serialisation -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON/TOML-able form; ``from_dict`` restores an equal spec."""
        payload = {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "device": self.device,
            "edge": self.edge,
            "mode": self.mode,
            "seed": self.seed,
            "app": dict(self.app),
            "network": dict(self.network),
            "params": {
                key: list(value) if isinstance(value, (list, tuple)) else value
                for key, value in self.params.items()
            },
            "faults": _plain(self.faults),
            "expected": dict(self.expected),
            "tolerances": dict(self.tolerances),
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioSpec":
        """Validate and build a spec from a parsed TOML/JSON table."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(f"scenario spec must be a table/object, got {payload!r}")
        unknown = set(payload) - set(_SPEC_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys {sorted(unknown)}; allowed: {list(_SPEC_KEYS)}"
            )
        for required in ("name", "kind"):
            if required not in payload:
                raise ConfigurationError(f"scenario spec is missing the {required!r} key")
        kwargs = dict(payload)
        for mapping_key in ("app", "network", "params", "faults", "expected", "tolerances"):
            if mapping_key in kwargs and not isinstance(kwargs[mapping_key], Mapping):
                raise ConfigurationError(
                    f"scenario {kwargs.get('name')!r}: {mapping_key} must be a "
                    f"table/object, got {kwargs[mapping_key]!r}"
                )
        return cls(**kwargs)


@dataclass
class ScenarioSuite:
    """An ordered, uniquely-named collection of scenarios."""

    name: str
    specs: Tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        seen: Dict[str, int] = {}
        for spec in self.specs:
            if spec.name in seen:
                raise ConfigurationError(
                    f"suite {self.name!r} has two scenarios named {spec.name!r}"
                )
            seen[spec.name] = 1

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def select(self, names: Sequence[str]) -> "ScenarioSuite":
        """The sub-suite containing exactly ``names`` (suite order preserved)."""
        known = {spec.name for spec in self.specs}
        missing = [name for name in names if name not in known]
        if missing:
            raise ConfigurationError(
                f"unknown scenario(s) {missing}; suite {self.name!r} has {sorted(known)}"
            )
        wanted = set(names)
        return ScenarioSuite(
            name=self.name,
            specs=tuple(spec for spec in self.specs if spec.name in wanted),
        )

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON of every spec (order-sensitive)."""
        canonical = json.dumps(
            [spec.to_dict() for spec in self.specs], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

#: Directory holding the bundled scenario files.
BUNDLED_DIR = Path(__file__).resolve().parent / "scenarios"


def toml_available() -> bool:
    """Whether a TOML parser is importable (stdlib ``tomllib`` on >= 3.11)."""
    return _toml is not None


def _parse_scenarios(payload: object, source: str) -> List[ScenarioSpec]:
    if isinstance(payload, Mapping):
        if "scenario" in payload:  # TOML [[scenario]] array-of-tables
            payload = payload["scenario"]
        elif "scenarios" in payload:  # JSON {"scenarios": [...]}
            payload = payload["scenarios"]
        else:  # a single bare spec table
            payload = [payload]
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"{source}: expected a list of scenario tables, got {type(payload).__name__}"
        )
    return [ScenarioSpec.from_dict(entry) for entry in payload]


def load_specs(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Load scenario specs from one ``.toml`` or ``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"scenario file {str(path)!r} does not exist")
    if path.suffix == ".toml":
        if _toml is None:
            raise ConfigurationError(
                f"cannot load {str(path)!r}: TOML parsing needs Python >= 3.11 "
                f"(stdlib tomllib) or the tomli package; use a .json suite instead"
            )
        with open(path, "rb") as handle:
            payload = _toml.load(handle)
    elif path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        raise ConfigurationError(
            f"unsupported scenario file suffix {path.suffix!r} (expected .toml or .json)"
        )
    return _parse_scenarios(payload, str(path))


def load_suite(path: Union[str, Path], name: Optional[str] = None) -> ScenarioSuite:
    """Load a suite from a scenario file or from a directory of them.

    A directory is read in sorted filename order so the suite (and therefore
    its ``spec_hash``) is stable across filesystems.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(entry for entry in path.iterdir() if entry.suffix in (".toml", ".json"))
        if not files:
            raise ConfigurationError(f"no .toml/.json scenario files under {str(path)!r}")
        specs: List[ScenarioSpec] = []
        for entry in files:
            specs.extend(load_specs(entry))
        return ScenarioSuite(name=name or path.name, specs=tuple(specs))
    return ScenarioSuite(name=name or path.stem, specs=tuple(load_specs(path)))


def bundled_suite() -> ScenarioSuite:
    """The committed ``scenarios/`` suite covering every subsystem."""
    return load_suite(BUNDLED_DIR, name="bundled")
