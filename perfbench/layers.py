"""Per-layer metrics from one traced command (the parent side of tracing).

``tracer.py`` writes the spans inside the child; this module turns them,
with the wall clock the parent saw, into the ``per_layer`` metrics of
``BENCHMARK.json``.  A ``*_s`` metric is the *self* time of its spans
(duration minus the union of its children's intervals) unless ``METRICS``
says "inclusive", so self times of nested layers never count twice.
Attribution does not add metrics up: it takes the union of all span
intervals, which stays right where spans overlap (concurrent shards).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: (name, unit, better, end-to-end metrics it should move, where it matters)
METRICS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("cli.import_s", "s", "lower", "setup_s wall_s",
     "e3-cached, smoke-fleet (each of 4 processes); <5% of e3-scalar"),
    ("cli.self_s", "s", "lower", "setup_s wall_s",
     "all: argparse, subcommand glue and report printing in repro.cli"),
    ("cli.teardown_s", "s", "lower", "setup_s wall_s",
     "all: interpreter shutdown beyond the bare interpreter's, plus the trace write"),
    ("spec.expand_s", "s", "lower", "setup_s", "e3-cached"),
    ("store.key_s", "s", "lower", "setup_s", "e3-cached, e3-batch"),
    ("store.keys", "count", "lower", "setup_s", "e3-cached, e3-batch"),
    ("store.load_s", "s", "lower", "setup_s", "e3-cached; ~0 on fresh stores"),
    ("store.records_loaded", "count", "lower", "setup_s", "e3-cached"),
    ("store.put_s", "s", "lower", "wall_s", "e3-batch; 0 on e3-cached"),
    ("store.checkpoints", "count", "lower", "wall_s", "e3-batch, e3-scalar"),
    ("store.bytes_written", "B", "lower", "wall_s", "e3-batch, e3-scalar"),
    ("pool.map_s", "s", "lower", "wall_s", "e3-batch, e3-scalar (inclusive)"),
    ("pool.overhead_s", "s", "lower", "wall_s",
     "e3-batch, e3-scalar: map time outside trial and pack functions"),
    ("batch.pack_s", "s", "lower", "wall_s cpu_s",
     "e3-batch; 0 on e3-scalar and e3-cached (inclusive: evicted lanes' "
     "scalar re-runs also count in trial.*)"),
    ("batch.packs", "count", "lower", "wall_s cpu_s", "e3-batch"),
    ("batch.lanes", "count", "higher", "wall_s cpu_s", "e3-batch"),
    ("batch.lanes_evicted", "count", "lower", "wall_s cpu_s", "e3-batch"),
    ("batch.lane_useful_ratio", "ratio", "higher", "wall_s cpu_s", "e3-batch"),
    ("batch.leader_cache_hit_ratio", "ratio", "higher", "wall_s cpu_s", "e3-batch"),
    ("trial.channel_s", "s", "lower", "wall_s cpu_s",
     "e3-scalar; evicted lanes on e3-batch"),
    ("trial.kaslr_s", "s", "lower", "wall_s cpu_s",
     "e3-scalar; evicted lanes on e3-batch"),
    ("trial.count", "count", "lower", "wall_s cpu_s", "e3-scalar"),
    ("sim.cycles", "count", "lower", "wall_s",
     "exact; the same under every strategy"),
    ("sim.host_ns_per_cycle", "ns/cycle", "lower", "wall_s",
     "e3-scalar (scalar), e3-batch (packed)"),
    ("runner.self_s", "s", "lower", "wall_s", "all campaign runs"),
    ("report.build_s", "s", "lower", "wall_s", "e3-cached"),
    ("report.write_s", "s", "lower", "wall_s", "e3-cached"),
    ("distrib.self_s", "s", "lower", "wall_s", "smoke-fleet only"),
    ("distrib.shard_s", "s", "lower", "wall_s cpu_s",
     "smoke-fleet only (sum of shard process lifetimes)"),
    ("distrib.shard_max_s", "s", "lower", "wall_s", "smoke-fleet only"),
    ("distrib.shard_wait_s", "s", "lower", "wall_s",
     "smoke-fleet only (shards waiting for a slot)"),
    ("distrib.merge_s", "s", "lower", "wall_s cpu_s", "smoke-fleet only"),
    ("distrib.collect_s", "s", "lower", "wall_s",
     "smoke-fleet only (inclusive: its keys, load and report also count above)"),
    ("host.python_s", "s", "lower", "-", "bare interpreter, every workload"),
    ("trace.wall_s", "s", "lower", "-", "traced wall, every workload"),
    ("trace.unattributed_s", "s", "lower", "-", "every workload"),
    ("trace.attributed_ratio", "ratio", "higher", "-",
     "every workload: (bare interpreter + layers) / traced wall"),
    ("trace.overhead_ratio", "ratio", "lower", "-",
     "every workload: traced / untraced wall"),
)

UNITS = {name: unit for name, unit, *_ in METRICS}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int


@dataclass
class Trace:
    command_id: str
    spans: List[Span]
    counters: Dict[str, float]
    #: perf_counter reading just before the child wrote the trace.
    written_at: float


def parse_trace(text: str) -> Trace:
    command_id, spans, counters, written_at = "", [], {}, 0.0
    for line in text.splitlines():
        kind, *fields = line.split("\t")
        if kind == "span":
            span_id, name, start, end, parent = fields
            spans.append(Span(int(span_id), name, float(start), float(end),
                              int(parent)))
        elif kind == "counter":
            counters[fields[0]] = float(fields[1])
        elif kind == "command":
            command_id = fields[0]
        elif kind == "written_at":
            written_at = float(fields[0])
    return Trace(command_id, spans, counters, written_at)


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps once."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children[span.id]
            if e > span.start and s < span.end
        )
        for span in spans
    }


def layer_metrics(
    trace: Trace,
    spawned_at: float,
    exited_at: float,
    python_s: float,
    python_tail_s: float,
    cycles: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced command except
    ``trace.overhead_ratio`` (which needs the untraced runs).

    *spawned_at*/*exited_at* are the parent's perf_counter readings around
    the child; *python_s* is the bare interpreter's wall and
    *python_tail_s* the part of it after its last statement ran.
    """
    spans = trace.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(name: str) -> float:
        return sum(own[span.id] for span in by_name[name])

    def inclusive_s(name: str) -> float:
        return sum(span.end - span.start for span in by_name[name])

    counters = trace.counters
    wall = exited_at - spawned_at
    known = {span.id for span in spans}
    roots = [(s.start, s.end) for s in spans if s.parent not in known]
    teardown = max(0.0, exited_at - trace.written_at - python_tail_s)
    unattributed = wall - python_s - union_length(roots) - teardown
    pack_s = inclusive_s("batch.pack")
    packs = {span.id for span in by_name["batch.pack"]}
    execute_s = pack_s + sum(
        span.end - span.start
        for span in by_name["trial.channel"] + by_name["trial.kaslr"]
        if span.parent not in packs
    )
    lanes = counters.get("batch.lanes", 0)
    leader_lookups = (counters.get("batch.leader_cache_hits", 0)
                      + counters.get("batch.leader_cache_misses", 0))
    fleets = by_name["distrib.fleet"]
    shards = by_name["distrib.shard"]
    metrics = {
        "cli.import_s": self_s("import"),
        "cli.self_s": self_s("cli.main"),
        "cli.teardown_s": teardown,
        "spec.expand_s": self_s("spec.expand"),
        "store.key_s": self_s("store.key"),
        "store.keys": len(by_name["store.key"]),
        "store.load_s": self_s("store.load"),
        "store.records_loaded": counters.get("store.records_loaded", 0),
        "store.put_s": self_s("store.put"),
        "store.checkpoints": counters.get("store.checkpoints", 0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "pool.map_s": inclusive_s("pool.map"),
        "pool.overhead_s": self_s("pool.map"),
        "batch.pack_s": pack_s,
        "batch.packs": counters.get("batch.packs", 0),
        "batch.lanes": lanes,
        "batch.lanes_evicted": counters.get("batch.lanes_evicted", 0),
        "batch.lane_useful_ratio": (
            (lanes - counters.get("batch.lanes_evicted", 0)) / lanes
            if lanes else 0.0
        ),
        "batch.leader_cache_hit_ratio": (
            counters.get("batch.leader_cache_hits", 0) / leader_lookups
            if leader_lookups else 0.0
        ),
        "trial.channel_s": self_s("trial.channel"),
        "trial.kaslr_s": self_s("trial.kaslr"),
        "trial.count": len(by_name["trial.channel"]) + len(by_name["trial.kaslr"]),
        "sim.cycles": cycles,
        "sim.host_ns_per_cycle": (
            execute_s / cycles * 1e9 if cycles else 0.0
        ),
        "runner.self_s": self_s("runner.run"),
        "report.build_s": self_s("report.build"),
        "report.write_s": self_s("report.write"),
        "distrib.self_s": self_s("distrib.fleet"),
        "distrib.shard_s": sum(s.end - s.start for s in shards),
        "distrib.shard_max_s": max((s.end - s.start for s in shards), default=0.0),
        "distrib.shard_wait_s": (
            sum(s.start - fleets[0].start for s in shards) if fleets else 0.0
        ),
        "distrib.merge_s": self_s("distrib.merge"),
        "distrib.collect_s": inclusive_s("runner.collect"),
        "host.python_s": python_s,
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.attributed_ratio": (wall - unattributed) / wall,
    }
    return metrics
