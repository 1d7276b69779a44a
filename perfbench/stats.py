"""Small statistics for the benchmark: medians, the tail-percentile rule
and the tally of attempted and failed operations."""

from __future__ import annotations

import math
import statistics


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(p, value)`` by the nearest-rank method, or None when no
    percentile above the median qualifies (fewer than 2 * beyond + 1
    samples).
    """
    n = len(samples)
    if n <= 2 * beyond:
        return None
    p = min(99, math.floor(100 * (n - beyond) / n))
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1]


def describe(samples) -> str:
    """'median 1.23, p60 1.41, n=25' for a list of timings."""
    text = f"median {statistics.median(samples):.4g}"
    tail = tail_percentile(samples)
    text += f", p{tail[0]} {tail[1]:.4g}" if tail else ", no tail percentile"
    return text + f", n={len(samples)}"


class Tally:
    """Operations attempted and failed; an operation fails at most once,
    however many of its checks fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, label: str, problems=()) -> bool:
        """Record one operation with the failed checks listed in ``problems``."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
