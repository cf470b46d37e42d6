"""Measurement substrate: synthetic campaign + regression fitting.

The paper fits four multiple-linear-regression models (compute resource,
mean power, encoding latency, CNN complexity) on a 119k-sample measurement
campaign collected with a Monsoon power monitor on the Table I devices, and
evaluates them on a 36k-sample held-out set (train on XR1/XR3/XR5/XR6, test
on XR2/XR4/XR7).

We do not have the physical testbed, so this package substitutes it:

* :mod:`repro.measurement.truth` — the *hidden* device response surfaces of
  the simulated testbed (how much compute a clock setting really provides,
  how much power it really draws, how long encoding really takes).  Both the
  synthetic campaign and the simulated ground-truth testbed draw from these
  surfaces, exactly like the paper's regressions and ground truth both come
  from the same physical devices.
* :mod:`repro.measurement.synthetic` — the synthetic measurement campaign
  generator (sample device/clock/encoder/CNN operating points, evaluate the
  truth surfaces, add heteroscedastic measurement noise).
* :mod:`repro.measurement.regression` — ordinary-least-squares multiple
  linear regression with R^2 reporting, used to re-fit the paper's Eq. (3),
  (10), (12) and (21) forms from the campaign.
* :mod:`repro.measurement.datasets` — dataset containers and the
  train/test device split.
"""

from repro import _lazy_exports

#: Exported name -> defining module, imported on first access.
_LAZY = {
    "MeasurementDataset": "repro.measurement.datasets",
    "MeasurementSample": "repro.measurement.datasets",
    "split_by_device": "repro.measurement.datasets",
    "LinearRegression": "repro.measurement.regression",
    "RegressionResult": "repro.measurement.regression",
    "CampaignConfig": "repro.measurement.synthetic",
    "SyntheticCampaign": "repro.measurement.synthetic",
    "SEGMENT_POWER_FACTORS": "repro.measurement.truth",
    "TestbedTruth": "repro.measurement.truth",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)

__all__ = [
    "CampaignConfig",
    "LinearRegression",
    "MeasurementDataset",
    "MeasurementSample",
    "RegressionResult",
    "SEGMENT_POWER_FACTORS",
    "SyntheticCampaign",
    "TestbedTruth",
    "split_by_device",
]
