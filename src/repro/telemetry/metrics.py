"""Typed metrics: counters, gauges, fixed-bucket histograms.

The registry is the aggregate half of ``repro.telemetry`` (spans are
the per-occurrence half).  Three types, chosen because every one of
them has a *mergeable snapshot*:

* :class:`Counter` -- monotonically increasing int; merge = sum;
* :class:`Gauge` -- last-written value; merge = max (the only
  commutative, associative choice that needs no timestamps);
* :class:`Histogram` -- fixed upper-bound buckets plus an overflow
  bucket, with ``sum`` and ``count``; merge = element-wise sum.

Merging is commutative and associative with an empty-snapshot identity
(``tests/test_telemetry_properties.py`` pins this with Hypothesis), so
worker snapshots can fold into the coordinator's registry in whatever
order the result pipes deliver them and still produce one well-defined
campaign total.

Every metric carries a ``det`` flag: ``True`` means the value is part
of the determinism contract -- identical at any worker count for a
fixed seed (trial counts, retry/quarantine counts, PMU-derived sums).
``False`` marks host-dependent measurements (fsync latency,
trials/sec); :func:`deterministic_view` strips them, and that
view is what the determinism tests compare across worker counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "deterministic_view",
    "merge_snapshots",
]

#: Default histogram bucket upper bounds -- a wide geometric ladder that
#: fits both microsecond latencies and million-cycle trial costs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
    100_000.0, 1_000_000.0, 10_000_000.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "det", "value")

    def __init__(self, name: str, det: bool = True) -> None:
        self.name = name
        self.det = det
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "det": self.det, "value": self.value}


class Gauge:
    """A last-written value; merges by max (see module docstring)."""

    __slots__ = ("name", "det", "value")

    def __init__(self, name: str, det: bool = True) -> None:
        self.name = name
        self.det = det
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "det": self.det, "value": self.value}


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus overflow.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final slot
    counts everything larger.  Bounds are fixed at creation so any two
    snapshots of the same metric merge by element-wise addition.
    """

    __slots__ = ("name", "det", "buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        det: bool = True,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = name
        self.det = det
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "det": self.det,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """A named collection of metrics with mergeable snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, det: bool = True) -> Counter:
        return self._get(name, Counter, det=det)

    def gauge(self, name: str, det: bool = True) -> Gauge:
        return self._get(name, Gauge, det=det)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        det: bool = True,
    ) -> Histogram:
        return self._get(name, Histogram, buckets=buckets, det=det)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, dict]:
        """JSON-ready ``{name: metric snapshot}`` in sorted name order."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def drain(self) -> Dict[str, dict]:
        """Snapshot, then reset the registry (the worker shipping mode)."""
        out = self.snapshot()
        self._metrics.clear()
        return out

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold one snapshot into the live registry (commutative)."""
        for name, entry in snapshot.items():
            kind = entry["type"]
            if kind == "counter":
                self.counter(name, det=entry.get("det", True)).value += entry["value"]
            elif kind == "gauge":
                gauge = self.gauge(name, det=entry.get("det", True))
                value = entry["value"]
                if value is not None and (gauge.value is None or value > gauge.value):
                    gauge.value = value
            elif kind == "histogram":
                histogram = self.histogram(
                    name,
                    buckets=entry["buckets"],
                    det=entry.get("det", True),
                )
                if list(histogram.buckets) != list(entry["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                for index, count in enumerate(entry["counts"]):
                    histogram.counts[index] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")


def merge_snapshots(*snapshots: Dict[str, dict]) -> Dict[str, dict]:
    """Pure merge of snapshots (the property under test: commutative,
    associative, with ``{}`` as identity)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge(snapshot)
    return registry.snapshot()


def deterministic_view(snapshot: Dict[str, dict]) -> Dict[str, dict]:
    """The snapshot with every host-dependent (``det=False``) metric
    removed -- the view the cross-worker-count determinism tests compare."""
    return {
        name: entry for name, entry in snapshot.items() if entry.get("det", True)
    }
