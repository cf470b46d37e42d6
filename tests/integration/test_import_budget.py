"""Import budget: ``import repro`` loads NumPy and the standard library only.

SciPy loads on the first measurement-campaign regression fit and nowhere
else; networkx is no dependency at all.  Each check runs in a fresh
interpreter, because this test session imports SciPy through other tests.
The checks are exact and machine-independent, so they gate the start-up
cost (perfbench's ``setup_s``) the way the work-counter snapshot gates
iteration counts.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


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


def test_model_paths_load_neither_scipy_nor_networkx():
    result = run_python(
        """
        import sys

        import repro
        from repro.adaptive import GreedyBatchSweep, make_trace
        from repro.cosim import run_cosim
        from repro.fleet import homogeneous

        repro.XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze()
        trace = make_trace("mobility", 20, seed=7)
        run_cosim(homogeneous(4, device="XR1"), GreedyBatchSweep(), trace, include_aoi=False)
        print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")))
        """
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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
