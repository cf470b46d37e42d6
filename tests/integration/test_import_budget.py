"""Import budget: a process loads only the modules its code path touches.

``import repro`` loads ``repro`` and ``repro._version`` and nothing else, not
even NumPy: the package roots resolve their re-exports on first use (their
``_LAZY`` tables).  NumPy loads with the first model module.  SciPy loads on
the first measurement-campaign regression fit and nowhere else; networkx is
no dependency at all.  Each check runs in a fresh interpreter, because this
test session imports SciPy and every subsystem through other tests.  The
checks are exact and machine-independent, so they gate the start-up cost
(perfbench's ``setup_s``) the way the work-counter snapshot gates iteration
counts.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The package roots that resolve their re-exports on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.simulation",
    "repro.measurement",
    "repro.evaluation",
)

#: Subsystems no model path needs; the single-cell cosim path loads none.
TOOLING = (
    "repro.analysis",
    "repro.baselines",
    "repro.docs",
    "repro.evaluation",
    "repro.experiments",
    "repro.figures",
)

#: Prints the sorted ``repro`` modules (and NumPy, SciPy, networkx) loaded so far.
REPORT_MODULES = """
import json as _json
import sys as _sys

print(_json.dumps(sorted(
    m for m in _sys.modules
    if m.split(".")[0] == "repro" or m in ("numpy", "scipy", "networkx")
)))
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def loaded_after(code: str) -> list:
    """Every ``repro`` module, and which of NumPy, SciPy, networkx, ``code`` loads."""
    result = run_python(textwrap.dedent(code) + REPORT_MODULES)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_import_repro_loads_only_the_root_and_its_version():
    assert loaded_after("import repro") == ["repro", "repro._version"]


def test_import_telemetry_loads_only_telemetry_and_its_schema():
    loaded = loaded_after("import repro.telemetry")
    outside = [
        m
        for m in loaded
        if m not in ("repro", "repro._version", "repro.schema", "repro.telemetry")
        and not m.startswith("repro.telemetry.")
    ]
    assert outside == []


def test_model_paths_load_neither_scipy_nor_networkx_nor_tooling():
    loaded = loaded_after(
        """
        import repro
        from repro.adaptive import GreedyBatchSweep, make_trace
        from repro.cosim import run_cosim
        from repro.fleet import homogeneous

        repro.XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze()
        trace = make_trace("mobility", 20, seed=7)
        run_cosim(homogeneous(4, device="XR1"), GreedyBatchSweep(), trace, include_aoi=False)
        """
    )
    assert "numpy" in loaded
    assert [m for m in loaded if m in ("scipy", "networkx")] == []
    assert [m for m in loaded if m.startswith(TOOLING)] == []
    assert [m for m in loaded if m.startswith(("repro.simulation", "repro.measurement"))] == [
        "repro.measurement",
        "repro.measurement.truth",
    ]


def test_fleet_path_loads_no_scalar_model_facade():
    # The analyzer reads every report, and each kind's edge service time,
    # from the batch engine, so the scalar facade and the placement planner
    # behind it stay unloaded.
    loaded = loaded_after(
        """
        import repro.fleet

        repro.fleet.FleetAnalyzer(repro.fleet.homogeneous(4, device="XR1")).analyze()
        """
    )
    assert "repro.fleet.analyzer" in loaded
    assert [m for m in loaded if m in ("repro.core.framework", "repro.core.offloading")] == []


def test_lazy_roots_keep_their_public_surface():
    result = run_python(
        f"""
        import importlib
        import inspect
        import json

        problems = []
        packages = [importlib.import_module(name) for name in {LAZY_PACKAGES!r}]
        for package in packages:
            name = package.__name__
            listed = [n for n in package.__all__ if n != "__version__"]
            if sorted(package._LAZY) != sorted(listed):
                problems.append(f"{{name}}: _LAZY keys differ from __all__")
            missing = sorted(set(package.__all__) - set(dir(package)))
            if missing:
                problems.append(f"{{name}}: dir() lacks {{missing}}")
            try:
                getattr(package, "no_such_export")
                problems.append(f"{{name}}: an unknown name resolved")
            except AttributeError as error:
                if "no_such_export" not in str(error):
                    problems.append(f"{{name}}: unhelpful AttributeError {{error}}")
            for export in listed:
                value = getattr(package, export)
                source = package._LAZY[export]
                if source == f"{{name}}.{{export}}":
                    expected = importlib.import_module(source)
                else:
                    expected = getattr(importlib.import_module(source), export)
                    defined = inspect.isclass(value) or inspect.isfunction(value)
                    if defined and value.__module__ != source:
                        problems.append(f"{{name}}.{{export}} is not defined in {{source}}")
                if value is not expected:
                    problems.append(f"{{name}}.{{export}} is not {{source}}.{{export}}")
            namespace = {{}}
            exec(f"from {{name}} import *", namespace)
            if sorted(set(namespace) - {{"__builtins__"}}) != sorted(package.__all__):
                problems.append(f"from {{name}} import * does not bind exactly __all__")
        print(json.dumps(problems))
        """
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_import_succeeds_without_networkx():
    result = run_python(
        """
        import sys

        sys.modules["networkx"] = None  # any import of it now raises ImportError

        import repro
        from repro.adaptive import make_trace

        make_trace("mobility", 20, seed=7)
        """
    )
    assert result.returncode == 0, result.stderr
