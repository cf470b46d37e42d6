"""Regression gate: manifest-vs-baseline comparison.

:func:`compare_manifests` gates a fresh :class:`~repro.experiments.runner
.RunManifest` against a committed baseline manifest.  Every metric recorded
in the baseline must be reproduced within its relative tolerance
(per-metric tolerances committed with the baseline win over the gate-wide
default).  Missing scenarios, missing metrics, error statuses, NaN
mismatches and spec-hash drift all fail with a named reason.

It returns a :class:`RegressionReport` whose ``summary()`` names each
drifted metric — the text CI prints when the gate fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.experiments.runner import RunManifest, metrics_close

#: Gate-wide default relative tolerance for manifest metrics.  The model is
#: deterministic, so the default is tight; scenarios loosen individual
#: metrics through their committed ``tolerances`` table.
DEFAULT_GATE_RTOL = 1e-6


@dataclass
class MetricDrift:
    """One gate violation.

    ``reason`` is one of ``drift`` | ``missing-metric`` |
    ``missing-scenario`` | ``status`` | ``baseline-status`` | ``spec-hash``.
    """

    scenario: str
    metric: str
    reason: str
    baseline: Optional[float] = None
    current: Optional[float] = None
    tolerance: Optional[float] = None

    @property
    def relative_error(self) -> float:
        """``|current - baseline| / |baseline|`` for numeric drifts.

        NaN/inf mismatches and zero baselines rank as ``inf`` (maximally
        severe); non-numeric reasons (missing scenario/metric, statuses)
        rank as NaN so callers can keep them out of numeric orderings.
        """
        if self.baseline is None or self.current is None:
            return float("nan")
        if math.isnan(self.baseline) or math.isnan(self.current):
            return float("inf")
        if math.isinf(self.baseline) or math.isinf(self.current):
            return 0.0 if self.baseline == self.current else float("inf")
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return abs(self.current - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        if self.reason == "missing-scenario":
            return f"{self.scenario}: scenario present in the baseline but not in this run"
        if self.reason == "missing-metric":
            return (
                f"{self.scenario}.{self.metric}: metric present in the baseline "
                f"(value {self.baseline!r}) but not in this run"
            )
        if self.reason == "status":
            return f"{self.scenario}: run status is {self.metric!r} (baseline ran clean)"
        if self.reason == "baseline-status":
            return (
                f"{self.scenario}: the baseline entry itself was recorded with status "
                f"{self.metric!r}, so it gates nothing — regenerate the baseline"
            )
        if self.reason == "spec-hash":
            return (
                "spec hash mismatch — the scenario suite changed since the baseline "
                "was recorded; regenerate the baseline manifest"
            )
        rel = ""
        if (
            self.baseline is not None
            and self.current is not None
            and not math.isnan(self.baseline)
            and not math.isnan(self.current)
            and self.baseline != 0.0
        ):
            rel = f" (rel. error {abs(self.current - self.baseline) / abs(self.baseline):.3g})"
        return (
            f"{self.scenario}.{self.metric}: baseline {self.baseline!r} vs current "
            f"{self.current!r}, tolerance {self.tolerance!r}{rel}"
        )


@dataclass
class RegressionReport:
    """Outcome of one gate comparison."""

    baseline_label: str
    current_label: str
    drifts: Tuple[MetricDrift, ...]
    n_compared: int
    n_scenarios: int
    n_new_metrics: int = 0

    @property
    def passed(self) -> bool:
        return not self.drifts

    def summary(self) -> str:
        """Multi-line pass/fail report naming every drifted metric.

        Numeric drifts print as one aligned
        ``scenario/metric  baseline  actual  rel_err`` line each, sorted by
        relative error descending, so the worst offender is always the
        first line under the FAIL header; structural failures (missing
        scenarios/metrics, statuses, spec-hash drift) follow as prose.
        """
        header = (
            f"Regression gate: {self.current_label} vs {self.baseline_label} — "
            f"{self.n_compared} metrics across {self.n_scenarios} scenarios"
        )
        if self.n_new_metrics:
            header += f", {self.n_new_metrics} new (uncompared)"
        lines = [header]
        if self.passed:
            lines.append("PASS: every baseline metric reproduced within tolerance")
            return "\n".join(lines)
        lines.append(f"FAIL: {len(self.drifts)} drifted metric(s)")
        numeric = sorted(
            (d for d in self.drifts if not math.isnan(d.relative_error)),
            key=lambda d: d.relative_error,
            reverse=True,
        )
        if numeric:
            from repro.evaluation.report import format_table

            rows = [
                (
                    f"{drift.scenario}/{drift.metric}",
                    f"{drift.baseline:.6g}",
                    f"{drift.current:.6g}",
                    f"{drift.relative_error:.3g}",
                )
                for drift in numeric
            ]
            table = format_table(rows, headers=("scenario/metric", "baseline", "actual", "rel_err"))
            lines.extend(f"  {line}" for line in table.splitlines())
        structural = [d for d in self.drifts if math.isnan(d.relative_error)]
        lines.extend(f"  - {drift.describe()}" for drift in structural)
        return "\n".join(lines)


def _as_number(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def compare_manifests(
    current: RunManifest,
    baseline: RunManifest,
    default_rtol: float = DEFAULT_GATE_RTOL,
    ignore_spec_hash: bool = False,
) -> RegressionReport:
    """Gate ``current`` against a committed ``baseline`` manifest."""
    drifts: List[MetricDrift] = []
    n_compared = 0
    n_new = 0
    if not ignore_spec_hash and current.spec_hash != baseline.spec_hash:
        drifts.append(MetricDrift(scenario="<suite>", metric="spec_hash", reason="spec-hash"))
    baseline_names = set()
    for base in baseline.scenarios:
        baseline_names.add(base.name)
        if base.status != "ok":
            # A baseline recorded from a failed run carries no (or partial)
            # metrics; silently gating nothing would hide exactly the drift
            # the baseline exists to catch.
            drifts.append(
                MetricDrift(scenario=base.name, metric=base.status, reason="baseline-status")
            )
        result = current.result_for(base.name)
        if result is None:
            drifts.append(
                MetricDrift(scenario=base.name, metric="<scenario>", reason="missing-scenario")
            )
            continue
        if result.status != "ok":
            drifts.append(MetricDrift(scenario=base.name, metric=result.status, reason="status"))
        for metric in sorted(base.metrics):
            base_value = _as_number(base.metrics[metric])
            has_current = metric in result.metrics
            current_value = _as_number(result.metrics.get(metric))
            if base_value is None:
                # Non-numeric baseline entries (None placeholders) only
                # need to stay non-numeric.
                if current_value is not None:
                    drifts.append(
                        MetricDrift(
                            scenario=base.name,
                            metric=metric,
                            reason="drift",
                            baseline=base_value,
                            current=current_value,
                        )
                    )
                continue
            n_compared += 1
            if not has_current or current_value is None:
                drifts.append(
                    MetricDrift(
                        scenario=base.name,
                        metric=metric,
                        reason="missing-metric",
                        baseline=base_value,
                    )
                )
                continue
            rtol = base.tolerances.get(metric, result.tolerances.get(metric, default_rtol))
            if not metrics_close(current_value, base_value, rtol):
                drifts.append(
                    MetricDrift(
                        scenario=base.name,
                        metric=metric,
                        reason="drift",
                        baseline=base_value,
                        current=current_value,
                        tolerance=rtol,
                    )
                )
        n_new += len(set(result.metrics) - set(base.metrics))
    for result in current.scenarios:
        if result.name not in baseline_names:
            n_new += len(result.metrics)
    return RegressionReport(
        baseline_label=f"baseline {baseline.suite!r} ({baseline.git_sha or 'no sha'})",
        current_label=f"run {current.suite!r} ({current.git_sha or 'no sha'})",
        drifts=tuple(drifts),
        n_compared=n_compared,
        n_scenarios=len(baseline.scenarios),
        n_new_metrics=n_new,
    )
