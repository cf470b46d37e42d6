"""Generic monotone capacity search (exponential growth + bisection).

Several fleet questions reduce to "the largest N for which a monotone
predicate holds" — the SLO capacity of an edge deployment, the station
count a Wi-Fi channel supports above a throughput floor.  This module holds
the one search they all share, evaluating ``O(log N)`` points.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.config.validation import ensure_integer
from repro.exceptions import ConfigurationError


def bisect_capacity(
    feasible: Callable[[int], bool], max_users: int = 4096
) -> Tuple[int, bool, int]:
    """Largest feasible count under a monotone predicate.

    Args:
        feasible: predicate on the count, assumed monotone
            (``feasible(n)`` implies ``feasible(m)`` for ``m < n``).
        max_users: ceiling on the explored count.

    Returns:
        ``(capacity, ceiling_reached, evaluations)`` — the largest feasible
        count (0 when even 1 is infeasible), whether the ceiling capped the
        search, and how many predicate evaluations were spent.
    """
    max_users = ensure_integer("max_users", max_users)
    if max_users < 1:
        raise ConfigurationError(f"max_users must be >= 1, got {max_users}")
    evaluations = 1
    if not feasible(1):
        return 0, False, evaluations
    # Exponential growth to bracket the boundary.
    low = 1
    high = None
    probe = 2
    while probe <= max_users:
        evaluations += 1
        if feasible(probe):
            low = probe
            probe *= 2
        else:
            high = probe
            break
    if high is None:
        if low < max_users:
            evaluations += 1
            if feasible(max_users):
                return max_users, True, evaluations
            high = max_users
        else:
            return max_users, True, evaluations
    # Bisection: low feasible, high infeasible.
    while high - low > 1:
        mid = (low + high) // 2
        evaluations += 1
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low, False, evaluations
