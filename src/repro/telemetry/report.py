"""Human-readable rendering of telemetry snapshots (``repro profile``)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple


def _format_ms(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e3:
        return f"{value / 1e3:.2f} s"
    if value >= 1.0:
        return f"{value:.1f} ms"
    return f"{value * 1e3:.0f} us"


def _format_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def _span_rows(
    spans: Mapping[str, Mapping], depth: int = 0, rows: Optional[List[Tuple[str, ...]]] = None
) -> List[Tuple[str, ...]]:
    rows = rows if rows is not None else []
    for name, node in spans.items():
        attrs = ", ".join(
            f"{key}={_format_count(value)}"
            for key, value in (node.get("counters") or {}).items()
        )
        children = node.get("children") or {}
        rows.append(
            (
                "  " * depth + name,
                _format_count(node.get("count", 0)),
                _format_ms(node.get("total_ms")),
                _format_ms(_self_ms(node.get("total_ms"), children)),
                _format_ms(node.get("mean_ms")),
                _format_ms(node.get("p95_ms")),
                attrs,
            )
        )
        _span_rows(children, depth + 1, rows)
    return rows


def _self_ms(total_ms: Optional[float], children: Mapping[str, Mapping]) -> Optional[float]:
    """A span's total minus its children's totals, clamped at 0.

    Totals are float sums recorded (and merged across shards) per span, so
    a parent can come out a hair below its children's sum; the clamp keeps
    the column non-negative.
    """
    if total_ms is None:
        return None
    nested = sum(child.get("total_ms") or 0.0 for child in children.values())
    return max(total_ms - nested, 0.0)


def _table(rows: List[Tuple[str, ...]], headers: Tuple[str, ...]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def format_profile(
    snapshot: Mapping, cache_stats: Optional[Dict[str, Dict[str, object]]] = None
) -> str:
    """Render a snapshot as a span tree plus counter/histogram tables."""
    sections: List[str] = []

    spans = snapshot.get("spans") or {}
    if spans:
        sections.append(
            "span tree\n"
            + _table(
                _span_rows(spans),
                headers=("span", "calls", "total", "self", "mean", "p95", "attrs"),
            )
        )

    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    scalar_rows = [
        (name, _format_count(value)) for name, value in sorted(counters.items())
    ] + [(name + " (gauge)", _format_count(value)) for name, value in sorted(gauges.items())]
    if scalar_rows:
        sections.append("counters\n" + _table(scalar_rows, headers=("counter", "value")))

    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = []
        for name, entry in sorted(histograms.items()):
            rows.append(
                (
                    name,
                    _format_count(entry.get("count", 0)),
                    _format_count(entry["mean"]) if entry.get("mean") is not None else "-",
                    _format_count(entry["p50"]) if entry.get("p50") is not None else "-",
                    _format_count(entry["p95"]) if entry.get("p95") is not None else "-",
                    _format_count(entry["max"]) if entry.get("max") is not None else "-",
                )
            )
        sections.append(
            "histograms\n"
            + _table(rows, headers=("histogram", "n", "mean", "p50", "p95", "max"))
        )

    if cache_stats:
        rows = [
            (
                name,
                _format_count(entry["hits"]),
                _format_count(entry["misses"]),
                _format_count(entry["currsize"]),
                "-" if entry["maxsize"] is None else _format_count(entry["maxsize"]),
            )
            for name, entry in sorted(cache_stats.items())
        ]
        sections.append(
            "caches (process-global lru_cache surfaces)\n"
            + _table(rows, headers=("cache", "hits", "misses", "size", "max"))
        )

    if not sections:
        return "telemetry snapshot is empty (was telemetry enabled?)"
    return "\n\n".join(sections)
