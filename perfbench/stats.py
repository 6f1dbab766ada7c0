"""Small statistics helpers shared by the benchmark and its steadiness check."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may report, highest first, in per mille so that
# ranks are exact integers. A fixed ladder keeps the reported percentile
# comparable between commits whose op counts differ.
TAIL_LADDER_PER_MILLE = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def tail(samples) -> dict:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Uses the nearest-rank percentile: the value at rank ceil(p*n/100) of the
    sorted samples, with n - rank samples beyond it. With fewer than
    2*TAIL_MIN_BEYOND samples no ladder rung qualifies; the median is reported
    instead and `rule_met` is False.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    for pm in TAIL_LADDER_PER_MILLE:
        rank = -(-pm * n // 1000)
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": xs[rank - 1], "percentile": pm / 10, "beyond": beyond,
                    "samples": n, "rule_met": True}
    return {"value": statistics.median(xs), "percentile": 50.0,
            "beyond": n - math.ceil(n / 2), "samples": n, "rule_met": False}


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """How much `second` is worse than `first`, as a share of `first`."""
    if better == "lower":
        return (second - first) / abs(first)
    return (first - second) / abs(first)
