"""Cache statistics of the module-level memoization surfaces.

The ``functools.lru_cache`` surfaces — the device/edge catalogs, the CNN
zoo, and the Eq. (12) complexity memo — keep process-global statistics,
which :func:`cache_report` walks via ``cache_info()``.

The imports below happen inside the function so that
:mod:`repro.telemetry` itself stays import-light (it sits under every hot
path) and no import cycle can form.
"""

from __future__ import annotations

from typing import Dict


def cache_report() -> Dict[str, Dict[str, object]]:
    """Hit/miss/size statistics of every module-level ``lru_cache``.

    Returns a mapping from cache name to a dict with ``hits``, ``misses``,
    ``currsize`` and ``maxsize`` (None for unbounded caches).  Statistics
    are process-global and monotone — they accumulate across runs in the
    same interpreter — so they belong in profiles, not in deterministic
    snapshots.
    """
    from repro.cnn.complexity import _evaluate_complexity
    from repro.cnn.zoo import get_cnn
    from repro.devices.catalog import get_device, get_edge_server

    surfaces = {
        "devices.catalog.get_device": get_device,
        "devices.catalog.get_edge_server": get_edge_server,
        "cnn.zoo.get_cnn": get_cnn,
        "cnn.complexity.evaluate": _evaluate_complexity,
    }
    report: Dict[str, Dict[str, object]] = {}
    for name, function in surfaces.items():
        info = function.cache_info()
        report[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
            "maxsize": info.maxsize,
        }
    return report
