"""repro.batch — vectorized batch evaluation of operating-point grids.

The paper's figures are grids — (CPU frequency x frame size) sweeps per
device and placement — and the scalar
:class:`~repro.core.framework.XRPerformanceModel` evaluates them one point
at a time.  This package evaluates an entire grid in a handful of NumPy
array expressions: typically two to three orders of magnitude faster than
the per-point loop, while staying bit-compatible with the scalar path
(``BatchResult.report_at(i)`` is exactly the report ``analyze()`` would
return for point ``i``).

Three entry points:

* :func:`evaluate_grid` consumes a :class:`ParameterGrid` — a cartesian
  sweep over frame side, CPU/GPU clock, encoder bitrate and wireless
  throughput, crossed with device and execution-mode axes;
* :func:`evaluate_points` consumes an explicit list of
  :class:`OperatingPoint` (heterogeneous devices/apps/networks welcome) and
  buckets them into vectorized groups internally — this is what the fleet
  analyzer uses to evaluate all unique (device, app, network) keys at once;
* :class:`ConditionedPoints` compiles such a list once and evaluates it
  under arrays of (throughput, handoff probability) channel conditions —
  this is what the adaptive runtime's per-epoch candidate sweeps use.

Runnable example — the Fig. 4(a) grid in one call::

    import numpy as np
    from repro.batch import ParameterGrid, evaluate_grid

    grid = ParameterGrid(
        frame_sides_px=np.linspace(300.0, 700.0, 5),
        cpu_freqs_ghz=(1.0, 2.0, 3.0),
        devices=("XR2",),
    )
    result = evaluate_grid(grid)
    latency = result.total_latency_ms.reshape(3, 5)   # (cpu freq, frame side)
    energy = result.total_energy_mj.reshape(3, 5)
    print(f"{len(result)} points, "
          f"latency {latency.min():.1f}..{latency.max():.1f} ms")
    report = result.report_at(0)                       # scalar view of point 0
    print(report.summary())

When to prefer batch vs scalar: use the scalar ``XRPerformanceModel`` for a
single operating point or when you need the intermediate model objects; use
``repro.batch`` whenever you evaluate more than a handful of points — the
per-point cost of the scalar path is object construction, not arithmetic,
and the batch engine amortises it away.
"""

from repro.batch.engine import ConditionedPoints, evaluate_grid, evaluate_points
from repro.batch.grid import OperatingPoint, ParameterGrid
from repro.batch.result import BatchResult, GroupAoI, GroupResult

__all__ = [
    "BatchResult",
    "ConditionedPoints",
    "GroupAoI",
    "GroupResult",
    "OperatingPoint",
    "ParameterGrid",
    "evaluate_grid",
    "evaluate_points",
]
