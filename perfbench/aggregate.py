"""Aggregation: medians and quartiles of samples, and fail accounting."""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def at_reference_speed(
    seconds: float, probes: Sequence[float], reference_s: float
) -> float:
    """*seconds* measured in a run whose host-speed probes took *probes*,
    rescaled to the host speed at which one probe takes *reference_s*.

    A host running 30% slow makes the samples and the probes 30% slower
    alike, and the ratio cancels it.  One probe is noisier than the
    commands are, so the median of all the run's probes is used."""
    return seconds * reference_s / statistics.median(probes)


@dataclass
class Tally:
    """Trials attempted and failed over a run's repetitions.

    A repetition that exits non-zero or fails the correctness gate counts
    every one of its trials as failed.
    """

    attempted: int = 0
    failed: int = 0

    def add(self, trials: int, ok: bool) -> None:
        self.attempted += trials
        if not ok:
            self.failed += trials

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def result_line(tally: Tally, metrics: Dict[str, Tuple[float, str]]) -> str:
    """The benchmark's last stdout line."""
    return json.dumps(
        {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
