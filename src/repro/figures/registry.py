"""The figure registry: one named builder per reproducible artifact.

Every figure, table, ablation and dashboard the repo can render is an
entry in :data:`FIGURES`, keyed by name.  A builder turns a
:class:`FigureInputs` bundle (lazy-loading the expensive shared state:
the calibrated :class:`~repro.evaluation.figures.FigureContext`, the
baseline run manifest, the run history) into a
:class:`BuiltFigure` carrying three synchronized renders of the same
data:

* ``text`` — a deterministic fixed-width render.  For ported paper
  artifacts this is byte-identical to the committed ``results/*.txt``
  file, which is what ``repro figures check`` gates on.
* ``table`` — the underlying series as a
  :class:`~repro.figures.tabular.Table`, saved as a CSV sidecar.
* ``spec`` — a Vega-Lite JSON spec referencing that CSV, so the same
  artifact plots in any Vega-Lite viewer without a plotting dependency
  in this repo.

Registry entries declare their ``source`` ("generator" figures re-run the
seeded evaluation code; "manifest"/"history" figures load persisted JSON;
"snapshots" figures need two telemetry snapshot paths) and, when the
text render is committed under ``results/``, the ``artifact`` filename the
drift check compares against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.figures.tabular import RunHistory, Table

#: Sources whose builders only read persisted JSON (cheap); "generator"
#: re-runs the seeded evaluation pipeline (seconds); "snapshots" needs two
#: explicit telemetry snapshot paths and is skipped by ``build --all``
#: unless they are provided.
SOURCES = ("generator", "manifest", "history", "snapshots")


@dataclass
class BuiltFigure:
    """One built artifact: text render + data table + Vega-Lite spec."""

    name: str
    title: str
    text: str
    table: Table
    spec: dict
    #: (identifier, paper claim, measured) row for EXPERIMENTS.md; only
    #: generator figures populate it.
    section: Optional[Tuple[str, str, str]] = None

    def save(self, directory: Union[str, Path]) -> List[Path]:
        """Write ``<name>.txt``, ``<name>.csv`` and ``<name>.vl.json``.

        The text file follows the ``results/`` convention (exactly one
        trailing newline); the JSON spec is rendered deterministically
        (sorted keys) so repeated builds are byte-stable.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        text_path = directory / f"{self.name}.txt"
        text_path.write_text(
            self.text + ("" if self.text.endswith("\n") else "\n"), encoding="utf-8"
        )
        csv_path = directory / f"{self.name}.csv"
        csv_path.write_text(self.table.to_csv(), encoding="utf-8")
        spec_path = directory / f"{self.name}.vl.json"
        spec_path.write_text(
            json.dumps(self.spec, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return [text_path, csv_path, spec_path]


@dataclass
class FigureInputs:
    """Lazy bundle of everything a builder may need.

    The expensive pieces (the simulated-testbed context, the manifest, the
    run history) are built on first access and cached, so building twenty
    figures calibrates coefficients exactly once, and a ``figures list``
    touches nothing at all.
    """

    quick: bool = False
    manifest_path: Union[str, Path] = Path("results") / "manifests" / "baseline.json"
    history_dir: Union[str, Path] = Path("results") / "manifests"
    snapshot_paths: Optional[Tuple[Union[str, Path], Union[str, Path]]] = None
    _context: Optional[object] = field(default=None, repr=False)
    _manifest: Optional[object] = field(default=None, repr=False)
    _history: Optional[RunHistory] = field(default=None, repr=False)

    @property
    def context(self):
        """The shared :class:`FigureContext` (calibrated once, cached)."""
        if self._context is None:
            from repro.evaluation.figures import FigureContext

            self._context = FigureContext(quick=self.quick)
        return self._context

    @property
    def manifest(self):
        """The baseline :class:`RunManifest` (loaded once, cached)."""
        if self._manifest is None:
            from repro.experiments.runner import RunManifest

            path = Path(self.manifest_path)
            if not path.is_file():
                raise ConfigurationError(f"no run manifest at {path}")
            self._manifest = RunManifest.load(path)
        return self._manifest

    @property
    def history(self) -> RunHistory:
        """The manifest-directory run history (loaded once, cached)."""
        if self._history is None:
            self._history = RunHistory.load(self.history_dir)
        return self._history

    def snapshots(self) -> Tuple[dict, dict, str, str]:
        """The two telemetry snapshots for diff figures (A, B, label_a, label_b)."""
        if self.snapshot_paths is None:
            raise ConfigurationError(
                "this figure needs two telemetry snapshots (pass --snapshot A --snapshot B)"
            )
        from repro.telemetry import load_snapshot

        path_a, path_b = (Path(p) for p in self.snapshot_paths)
        return load_snapshot(path_a), load_snapshot(path_b), path_a.name, path_b.name


@dataclass(frozen=True)
class FigureSpec:
    """One registry entry: how to build a named figure and how to gate it."""

    name: str
    title: str
    source: str
    builder: Callable[[FigureInputs], BuiltFigure]
    #: Committed text artifact under ``results/`` this figure must
    #: reproduce byte-identically (None for uncommitted dashboards).
    artifact: Optional[str] = None
    description: str = ""


FIGURES: Dict[str, FigureSpec] = {}


def register(
    name: str,
    *,
    title: str,
    source: str,
    artifact: Optional[str] = None,
    description: str = "",
) -> Callable[[Callable[[FigureInputs], BuiltFigure]], Callable[[FigureInputs], BuiltFigure]]:
    """Decorator adding a builder to :data:`FIGURES` under ``name``."""
    if source not in SOURCES:
        raise ValueError(f"unknown figure source {source!r} (expected one of {SOURCES})")

    def wrap(builder: Callable[[FigureInputs], BuiltFigure]):
        if name in FIGURES:
            raise ValueError(f"duplicate figure name {name!r}")
        FIGURES[name] = FigureSpec(
            name=name,
            title=title,
            source=source,
            builder=builder,
            artifact=artifact,
            description=description or title,
        )
        return builder

    return wrap


def figure_names(source: Optional[str] = None) -> List[str]:
    """Registered figure names, in registration order."""
    return [
        spec.name for spec in FIGURES.values() if source is None or spec.source == source
    ]


def build_figure(name: str, inputs: Optional[FigureInputs] = None) -> BuiltFigure:
    """Build one registered figure."""
    spec = FIGURES.get(name)
    if spec is None:
        known = ", ".join(sorted(FIGURES))
        raise ConfigurationError(f"unknown figure {name!r} (known: {known})")
    return spec.builder(inputs if inputs is not None else FigureInputs())


def build_all(
    inputs: Optional[FigureInputs] = None, names: Optional[Sequence[str]] = None
) -> List[BuiltFigure]:
    """Build every registered figure (or the named subset), in order.

    Snapshot-sourced figures are skipped unless the inputs carry snapshot
    paths (they have no default data to diff).
    """
    inputs = inputs if inputs is not None else FigureInputs()
    selected = list(names) if names is not None else figure_names()
    built: List[BuiltFigure] = []
    for name in selected:
        spec = FIGURES.get(name)
        if spec is None:
            known = ", ".join(sorted(FIGURES))
            raise ConfigurationError(f"unknown figure {name!r} (known: {known})")
        if spec.source == "snapshots" and inputs.snapshot_paths is None and names is None:
            continue
        built.append(spec.builder(inputs))
    return built


@dataclass(frozen=True)
class CheckResult:
    """Outcome of re-rendering one committed artifact."""

    name: str
    artifact: str
    status: str  # "ok" | "drift" | "missing"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check_figures(
    inputs: Optional[FigureInputs] = None,
    results_dir: Union[str, Path, None] = None,
) -> List[CheckResult]:
    """Re-render every committed text artifact and compare bytes.

    For each registry entry with an ``artifact``, the builder re-runs and
    its text render is compared against ``results/<artifact>``; any
    difference is ``drift``, an absent committed file is ``missing``.
    This is the CI gate that keeps ``results/`` a verified pipeline
    output instead of a stale copy.
    """
    from repro.evaluation.report import results_directory

    inputs = inputs if inputs is not None else FigureInputs()
    directory = Path(results_dir) if results_dir is not None else results_directory()
    outcomes: List[CheckResult] = []
    for spec in FIGURES.values():
        if spec.artifact is None:
            continue
        committed = directory / spec.artifact
        if not committed.is_file():
            outcomes.append(CheckResult(spec.name, spec.artifact, "missing"))
            continue
        built = spec.builder(inputs)
        rendered = built.text + ("" if built.text.endswith("\n") else "\n")
        status = "ok" if committed.read_text(encoding="utf-8") == rendered else "drift"
        outcomes.append(CheckResult(spec.name, spec.artifact, status))
    return outcomes


def vega_lite_spec(
    name: str,
    title: str,
    mark: Union[str, dict],
    encoding: dict,
    *,
    transform: Optional[List[dict]] = None,
) -> dict:
    """A minimal Vega-Lite v5 spec reading the figure's CSV sidecar."""
    spec: Dict[str, object] = {
        "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
        "description": title,
        "data": {"url": f"{name}.csv", "format": {"type": "csv"}},
        "mark": mark,
        "encoding": encoding,
    }
    if transform:
        spec["transform"] = transform
    return spec
