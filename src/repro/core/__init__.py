"""Core contribution: the XR performance analysis modeling framework.

This package implements Sections IV-VI of the paper.  Each equation is a
function of numeric values that takes a float or an aligned NumPy array
(:mod:`repro.core.numeric` holds the clamp and domain-check helpers), so the
scalar models and the batch engine (:mod:`repro.batch`) share one copy:

* :mod:`repro.core.coefficients` — the regression coefficient sets (the
  paper's published constants and campaign-calibrated alternatives),
* :mod:`repro.core.resources` — the computation-resource availability model
  (Eq. 3) and the client/edge compute relation,
* :mod:`repro.core.power` — the mean-power model (Eq. 21) with per-segment
  power factors,
* :mod:`repro.core.latency` — the per-segment and end-to-end latency model
  (Eqs. 1-18),
* :mod:`repro.core.energy` — the per-segment and end-to-end energy model
  (Eqs. 19-20) with the thermal and base terms,
* :mod:`repro.core.aoi` — the Age-of-Information and Relevance-of-Information
  models (Eqs. 22-26),
* :mod:`repro.core.offloading` — local/remote/split placement comparison
  helpers built on top of the models,
* :mod:`repro.core.framework` — the :class:`XRPerformanceModel` facade that
  ties everything together (the main public entry point).
"""

from repro import _lazy_exports

#: Exported name -> defining module, imported on first access.
_LAZY = {
    "AoIModel": "repro.core.aoi",
    "AoIResult": "repro.core.aoi",
    "AoITimeline": "repro.core.aoi",
    "CoefficientSet": "repro.core.coefficients",
    "EncodingCoefficients": "repro.core.coefficients",
    "QuadraticBlend": "repro.core.coefficients",
    "calibrated_coefficients": "repro.core.coefficients",
    "XREnergyModel": "repro.core.energy",
    "XRPerformanceModel": "repro.core.framework",
    "XRLatencyModel": "repro.core.latency",
    "OffloadingDecision": "repro.core.offloading",
    "OffloadingPlanner": "repro.core.offloading",
    "PowerModel": "repro.core.power",
    "ComputeResourceModel": "repro.core.resources",
    "EnergyBreakdown": "repro.core.results",
    "LatencyBreakdown": "repro.core.results",
    "PerformanceReport": "repro.core.results",
    "Segment": "repro.core.segments",
    "SessionAnalyzer": "repro.core.session",
    "SessionReport": "repro.core.session",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)

__all__ = [
    "AoIModel",
    "AoIResult",
    "AoITimeline",
    "CoefficientSet",
    "ComputeResourceModel",
    "EncodingCoefficients",
    "EnergyBreakdown",
    "LatencyBreakdown",
    "OffloadingDecision",
    "OffloadingPlanner",
    "PerformanceReport",
    "PowerModel",
    "QuadraticBlend",
    "Segment",
    "SessionAnalyzer",
    "SessionReport",
    "XREnergyModel",
    "XRLatencyModel",
    "XRPerformanceModel",
    "calibrated_coefficients",
]
