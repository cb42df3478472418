"""What one workload run hands back to the runner, plus small statistics."""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
from typing import Any, Sequence


@dataclasses.dataclass
class Outcome:
    """Counts, problems and metrics of one workload run.

    ``metrics`` are the end-to-end numbers (untraced), ``layers`` the
    per-layer numbers of the traced pass (empty when not traced); both map
    a metric name to ``(value, unit)``.  ``details`` carries sample counts
    and anything else worth keeping beside the numbers.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = dataclasses.field(
        default_factory=dict
    )
    layers: dict[str, tuple[float, str]] = dataclasses.field(
        default_factory=dict
    )
    details: dict[str, Any] = dataclasses.field(default_factory=dict)

    def record(self, label: str, problems: Sequence[str]) -> None:
        """Count one operation, failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0
