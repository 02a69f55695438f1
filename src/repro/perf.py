"""The ``repro perf`` harness: profile and benchmark the trial hot path.

Two entry points, both driven from the CLI (``repro perf profile`` /
``repro perf bench``) and both aimed at the same question -- *how fast is
one simulated trial, and where does its time go?*

``profile``
    Wraps a slice of a built-in campaign cell's trials in ``cProfile``
    and prints the hottest functions.  This is the tool that found the
    hot spots the decode cache, the COW snapshots and the PMU fast paths
    now cover; keeping it a one-liner keeps them found.

``bench``
    Measures trial throughput (trials/second) on a built-in campaign
    cell with a best-of-N methodology, normalises it against a
    pure-Python calibration loop so scores compare across hosts, and
    gates against a committed baseline (:data:`DEFAULT_BASELINE_PATH`):
    a normalised score below ``0.7 x`` baseline exits non-zero, which is
    how CI catches a >30% hot-path regression before it merges.  Metrics
    merge into ``benchmarks/reports/reproduction_report.json`` next to
    the paper-reproduction figures.

Throughput is measured best-of-N rather than averaged because a shared
CI host's noise is one-sided: interference can only make a pass slower,
never faster, so the fastest repetition is the closest observation of
the code's true cost.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "BenchResult",
    "DEFAULT_BASELINE_PATH",
    "DISABLED_OVERHEAD_CEILING",
    "ENABLED_OVERHEAD_CEILING",
    "REGRESSION_FLOOR",
    "STREAMING_OVERHEAD_CEILING",
    "bench_cell",
    "calibrate_host",
    "cell_payloads",
    "load_baseline",
    "merge_report_metrics",
    "profile_cell",
    "run_bench",
    "run_overhead",
    "run_profile",
    "telemetry_probe",
]

#: The committed throughput baseline the regression gate compares against.
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "perf_baseline.json")

#: Where bench metrics merge into the reproduction artefact set.
DEFAULT_REPORT_PATH = os.path.join(
    "benchmarks", "reports", "reproduction_report.json"
)

#: ``bench`` fails when the normalised score drops below this fraction of
#: the committed baseline (0.7 = a >30% regression).
REGRESSION_FLOOR = 0.7

#: Default (campaign, cell): the e3 environment-matrix channel cell on the
#: i7-7700 -- the workload the hot-path acceptance target is defined on.
DEFAULT_CAMPAIGN = "e3-matrix"
DEFAULT_CELL = 0

#: Telemetry overhead gates (``repro obs overhead`` / CI obs-smoke):
#: the disabled path must cost under 2% of trial time, the fully
#: enabled path under 15%, and the streaming path (telemetry armed
#: *plus* live spool appends at the default cadence) under 15% too.
DISABLED_OVERHEAD_CEILING = 0.02
ENABLED_OVERHEAD_CEILING = 0.15
STREAMING_OVERHEAD_CEILING = 0.15


def cell_payloads(campaign: str, cell: int, limit: Optional[int] = None) -> List:
    """The trial payloads of one cell of a built-in campaign, in
    expansion order (optionally the first *limit* of them)."""
    from repro.campaign.builtin import builtin_campaign

    spec = builtin_campaign(campaign)
    if not 0 <= cell < len(spec.cells):
        raise ValueError(
            f"campaign {campaign!r} has cells 0..{len(spec.cells) - 1}, "
            f"not {cell}"
        )
    payloads = [ref.trial for ref in spec.expand() if ref.cell == cell]
    if limit is not None:
        payloads = payloads[:limit]
    return payloads


def _cell_kind(campaign: str, cell: int) -> str:
    """The trial kind one cell expands to (``channel``/``kaslr``/``detect``).

    Batched scores gate per kind: a KASLR sweep's pack economics (one
    faulting probe per lane, near-total shadow survival) are nothing
    like a channel scan's, so their baselines live in separate maps
    (``kaslr_batch_scores`` vs ``batch_scores``).
    """
    from repro.runtime.tasks import ChannelTrial, KaslrTrial

    first = cell_payloads(campaign, cell, limit=1)
    if first and isinstance(first[0], KaslrTrial):
        return "kaslr"
    if first and isinstance(first[0], ChannelTrial):
        return "channel"
    return "detect"


def calibrate_host(target_seconds: float = 0.05) -> float:
    """Millions of pure-Python loop operations per second on this host.

    The loop is fixed, allocation-free arithmetic, so its rate tracks the
    interpreter-plus-host speed the simulator itself is bound by.
    Dividing trials/second by this rate gives a score that survives
    moving the baseline between a laptop and a throttled CI runner.
    """
    rounds = 10_000
    best = float("inf")
    deadline = time.perf_counter() + target_seconds * 4
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        total = 0
        for value in range(rounds):
            total += value * value - (value >> 1)
        elapsed = time.perf_counter() - start
        if 0 < elapsed < best:
            best = elapsed
    del total
    return rounds / best / 1e6


@dataclass
class BenchResult:
    """One ``bench`` measurement plus its baseline verdict."""

    campaign: str
    cell: int
    trials: int
    repeats: int
    trials_per_second: float
    calibration_mops: float
    #: trials/second per calibration Mop/s -- the cross-host score.
    normalized_score: float
    #: vs the baseline's recorded pre-overhaul reference (None = no ref).
    speedup_vs_reference: Optional[float]
    #: normalised score over the committed baseline's (None = no baseline).
    baseline_ratio: Optional[float]
    regressed: bool
    #: lockstep lanes per pack the timed loop ran with (1 = scalar).
    batch_size: int = 1
    #: The last timed repetition's :class:`~repro.runtime.batch.BatchStats`
    #: (warm leader cache steady state); None for scalar runs.
    batch_stats: Optional[object] = None

    def metrics(self) -> Dict[str, object]:
        """The JSON-serialisable metric map for the reproduction report."""
        out: Dict[str, object] = {
            "campaign": self.campaign,
            "cell": self.cell,
            "trials": self.trials,
            "repeats": self.repeats,
            "batch_size": self.batch_size,
            "trials_per_second": round(self.trials_per_second, 1),
            "calibration_mops": round(self.calibration_mops, 2),
            "normalized_score": round(self.normalized_score, 2),
            "regressed": self.regressed,
        }
        if self.speedup_vs_reference is not None:
            out["speedup_vs_reference"] = round(self.speedup_vs_reference, 2)
        if self.baseline_ratio is not None:
            out["baseline_ratio"] = round(self.baseline_ratio, 2)
        if self.batch_stats is not None:
            stats = self.batch_stats
            out["batch_packs"] = stats.packs
            out["batch_evicted_lanes"] = stats.evicted_lanes
            out["batch_evictions"] = dict(sorted(stats.evictions.items()))
            out["leader_cache_hits"] = stats.leader_cache_hits
            out["leader_cache_misses"] = stats.leader_cache_misses
        return out


def bench_cell(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 48,
    repeats: int = 5,
    batch: Optional[int] = None,
) -> Dict[str, object]:
    """Measure trial throughput on one campaign cell, best of *repeats*.

    Runs the cell's first *trials* payloads serially (the pool adds
    scheduling noise, and the hot path under test is the simulator, not
    the fan-out), after one untimed warm-up pass that builds the worker
    context and fills the decode/parse caches the way a long campaign
    would have.

    ``batch > 1`` times the lockstep batch executor instead
    (:func:`repro.runtime.batch.run_trials_batched` with *batch* lanes
    per pack) -- same payloads, byte-identical results, different
    engine.  The warm-up also goes through the batch path so the pack
    planner and shadow-replay code are as hot as the scalar caches.
    """
    from repro.runtime.batch import BatchStats, run_trials_batched
    from repro.runtime.tasks import run_trial

    payloads = cell_payloads(campaign, cell, limit=trials)
    if not payloads:
        raise ValueError(f"cell {cell} of {campaign!r} expands to no trials")
    batched = batch is not None and batch > 1
    if batched:
        run_trials_batched(payloads[: min(3, len(payloads))], batch)
    else:
        for payload in payloads[: min(3, len(payloads))]:
            run_trial(payload)  # warm-up: contexts, caches, code paths
    best = float("inf")
    stats = None
    for _ in range(repeats):
        start = time.perf_counter()
        if batched:
            # Fresh stats each repetition; the last one is the warm
            # leader-cache steady state a long campaign would see.
            stats = BatchStats()
            run_trials_batched(payloads, batch, stats)
        else:
            for payload in payloads:
                run_trial(payload)
        elapsed = time.perf_counter() - start
        if 0 < elapsed < best:
            best = elapsed
    return {
        "trials": len(payloads),
        "trials_per_second": len(payloads) / best,
        "batch_stats": stats,
    }


def load_baseline(path: str) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _write_json(path: str, payload: Dict) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def merge_report_metrics(path: str, section: str, metrics: Dict) -> None:
    """Merge *metrics* into the ``{section: {metric: value}}`` report map
    the benchmark harness also writes, preserving other sections."""
    from repro.campaign.report import REPORT_SCHEMA_VERSION

    report: Dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = {}
        if report.get("schema_version") != REPORT_SCHEMA_VERSION:
            # Never merge sections produced under a different schema --
            # a mixed-version report would be unreadable by either
            # schema's consumers.  Stale sections are dropped; the next
            # full bench run regenerates them under the current version.
            report = {}
    report["schema_version"] = REPORT_SCHEMA_VERSION
    report.setdefault(section, {}).update(metrics)
    _write_json(path, report)


def run_bench(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 48,
    repeats: int = 5,
    quick: bool = False,
    baseline_path: str = DEFAULT_BASELINE_PATH,
    report_path: Optional[str] = DEFAULT_REPORT_PATH,
    update_baseline: bool = False,
    batch: Optional[int] = None,
    out=print,
) -> BenchResult:
    """The ``repro perf bench`` body; returns the measurement.

    ``quick`` shrinks the workload for CI smoke use (fewer trials and
    repetitions); the regression gate applies either way.  With
    ``update_baseline`` the measurement is recorded as the new committed
    baseline instead of being judged against it (any existing
    pre-overhaul reference score is carried forward).

    ``batch > 1`` benches the lockstep batch executor.  Batched scores
    gate against the baseline's ``batch_scores[str(batch)]`` entry, or
    ``batch_scores[f"{batch}-nocache"]`` with the leader trace cache
    off (the scalar ``normalized_score`` stays the scalar path's gate), and
    ``update_baseline`` writes into that map without disturbing the
    scalar record.  KASLR cells gate against a separate
    ``kaslr_batch_scores`` map -- the translation-shadow pack runner and
    the channel pack runner have unrelated cost structures, so one map
    cannot gate both (see :func:`_cell_kind`).
    """
    from repro.runtime.batch import leader_cache_enabled

    if quick:
        trials = min(trials, 16)
        repeats = min(repeats, 3)
    lanes = batch if batch is not None and batch > 1 else 1
    measured = bench_cell(
        campaign, cell, trials=trials, repeats=repeats, batch=lanes
    )
    calibration = calibrate_host()
    rate = measured["trials_per_second"]
    score = rate / calibration

    baseline = load_baseline(baseline_path)
    batch_map = (
        "kaslr_batch_scores" if _cell_kind(campaign, cell) == "kaslr"
        else "batch_scores"
    )
    # Batched scores are keyed by lane count and leader-cache mode: a
    # cache-off run re-executes every leader and must never be judged
    # against the cached score.
    score_key = str(lanes) if leader_cache_enabled() else f"{lanes}-nocache"
    kaslr_gate = lanes > 1 and batch_map == "kaslr_batch_scores"
    reference_score = baseline.get("reference_normalized_score") if baseline else None
    baseline_score = baseline.get("normalized_score") if baseline else None
    if kaslr_gate:
        # The KASLR batch map carries its own identity fields -- the
        # record's top-level campaign/cell names the scalar (channel)
        # anchor cell, which a KASLR bench never matches.
        recorded = (
            (baseline or {}).get("kaslr_campaign"),
            (baseline or {}).get("kaslr_cell"),
        )
        reference_score = baseline_score = None
        if baseline is not None and recorded not in (
            (None, None), (campaign, cell)
        ):
            out(
                f"note: baseline records KASLR {recorded[0]}/cell"
                f"{recorded[1]}; gate skipped for {campaign}/cell{cell}"
            )
        else:
            baseline_score = (baseline or {}).get(batch_map, {}).get(score_key)
    elif baseline is not None and (
        baseline.get("campaign"), baseline.get("cell")
    ) != (campaign, cell):
        out(
            f"note: baseline records {baseline.get('campaign')}/cell"
            f"{baseline.get('cell')}; gate skipped for {campaign}/cell{cell}"
        )
        reference_score = baseline_score = None
        baseline = None
    elif lanes > 1:
        # A batched measurement must never be judged against the scalar
        # score (it would always "pass"); its gate is its own lane-count
        # entry, recorded the first time --update-baseline runs batched.
        baseline_score = (baseline or {}).get(batch_map, {}).get(score_key)

    speedup = score / reference_score if reference_score else None
    ratio = score / baseline_score if baseline_score else None
    regressed = ratio is not None and ratio < REGRESSION_FLOOR

    result = BenchResult(
        campaign=campaign,
        cell=cell,
        trials=int(measured["trials"]),
        repeats=repeats,
        trials_per_second=rate,
        calibration_mops=calibration,
        normalized_score=score,
        speedup_vs_reference=speedup,
        baseline_ratio=ratio,
        regressed=regressed,
        batch_size=lanes,
        batch_stats=measured.get("batch_stats"),
    )

    label = f" batch {lanes}" if lanes > 1 else ""
    out(f"perf bench: {campaign} cell {cell}{label} "
        f"({result.trials} trials, best of {repeats})")
    out(f"  trials/second    : {rate:8.1f}")
    out(f"  host calibration : {calibration:8.2f} Mop/s")
    out(f"  normalized score : {score:8.2f} trials/s per Mop/s")
    if speedup is not None:
        out(f"  vs pre-overhaul  : {speedup:8.2f}x")
    if ratio is not None:
        out(f"  vs baseline      : {ratio:8.2f}x "
            f"(floor {REGRESSION_FLOOR:.2f}x)")
    stats = result.batch_stats
    if stats is not None:
        evictions = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats.evictions.items())
        ) or "none"
        out(f"  pack evictions   : {stats.evicted_lanes:8d} ({evictions})")
        out(f"  leader cache     : {stats.leader_cache_hits} hits / "
            f"{stats.leader_cache_misses} misses")

    if update_baseline:
        record = dict(baseline) if baseline else {"campaign": campaign, "cell": cell}
        if lanes > 1:
            scores = dict(record.get(batch_map, {}))
            scores[score_key] = round(score, 2)
            record[batch_map] = scores
            if kaslr_gate:
                record["kaslr_campaign"] = campaign
                record["kaslr_cell"] = cell
        else:
            record.update(
                {
                    "campaign": campaign,
                    "cell": cell,
                    "trials": result.trials,
                    "trials_per_second": round(rate, 1),
                    "calibration_mops": round(calibration, 2),
                    "normalized_score": round(score, 2),
                }
            )
            if reference_score is not None:
                record["reference_normalized_score"] = reference_score
        _write_json(baseline_path, record)
        out(f"  baseline updated : {baseline_path}")
    elif baseline is None:
        out(f"  no baseline at {baseline_path}; run with --update-baseline "
            f"to record one")
    elif lanes > 1 and baseline_score is None:
        out(f"  no {batch_map}[{score_key!r}] entry in {baseline_path}; "
            f"run with --update-baseline to record one")

    # The telemetry probe runs outside every timed window: a short
    # observed pass whose metrics snapshot lands in the reproduction
    # report and whose cycle attribution names the hot paths when the
    # gate fails.
    snapshot, attribution = telemetry_probe(
        campaign, cell, trials=min(int(measured["trials"]), 8)
    )

    if report_path:
        merge_report_metrics(report_path, "perf_bench", result.metrics())
        merge_report_metrics(
            report_path,
            "telemetry",
            {
                "campaign": campaign,
                "cell": cell,
                "metrics": snapshot,
                "top_cycle_paths": [
                    {"path": path, "cycles": cycles, "spans": count}
                    for path, cycles, count in attribution[:5]
                ],
            },
        )
        out(f"  metrics merged   : {report_path}")

    if regressed:
        out(f"REGRESSION: normalized score {score:.2f} is below "
            f"{REGRESSION_FLOOR:.0%} of baseline {baseline_score:.2f}")
        out("  top cycle-attribution buckets (where the cycles went):")
        for path, cycles, count in attribution[:3]:
            out(f"    {cycles:>14,} cycles  {count:>5}x  {path}")
    return result


def telemetry_probe(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 8,
):
    """A short telemetry-armed pass over one cell.

    Returns ``(metrics_snapshot, cycle_attribution_rows)`` -- the stable
    content the bench merges into the reproduction report under its
    ``telemetry`` key, and the buckets the regression gate names on
    failure.  Runs outside every timed window and always disarms
    telemetry before returning.
    """
    from repro import telemetry
    from repro.runtime.tasks import run_trial
    from repro.telemetry.export import cycle_attribution

    payloads = cell_payloads(campaign, cell, limit=trials)
    telemetry.enable()
    try:
        for payload in payloads:
            run_trial(payload)
        records = telemetry.recorder().drain()
        snapshot = telemetry.metrics_registry().snapshot()
    finally:
        telemetry.disable()
    return snapshot, cycle_attribution(records)


def run_overhead(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 16,
    repeats: int = 3,
    quick: bool = False,
    report_path: Optional[str] = DEFAULT_REPORT_PATH,
    out=print,
) -> int:
    """The ``repro obs overhead`` body: gate telemetry's cost.

    Three measurements, three ceilings:

    * **disabled** -- the per-trial cost of the dormant hooks (one
      ``telemetry.enabled()`` check in ``run_trial`` plus the pool's
      per-map checks), measured directly with a micro-benchmark and
      expressed as a fraction of best-of-N trial time.  A/B timing of
      the same binary cannot isolate a sub-0.1% effect from host noise,
      so the hook cost is measured where it is visible and scaled.
      Ceiling: :data:`DISABLED_OVERHEAD_CEILING`.
    * **enabled** -- best-of-N A/B of the same trial slice with
      telemetry off vs fully armed (spans, counters, PMU reads, drains).
      Ceiling: :data:`ENABLED_OVERHEAD_CEILING`.
    * **streaming** -- telemetry armed *plus* a live
      :class:`~repro.telemetry.stream.StreamWriter` fed at the default
      cadence, spool appends and all -- the full ``--stream-out`` path.
      Ceiling: :data:`STREAMING_OVERHEAD_CEILING`.

    The streaming on/off ratio merges into the ``perf_bench`` section of
    the reproduction report so its trajectory is tracked across PRs.
    Returns 0 when all gates pass, 1 otherwise.
    """
    import shutil
    import tempfile

    from repro import telemetry
    from repro.runtime.tasks import run_trial
    from repro.telemetry.stream import StreamWriter

    if quick:
        trials = min(trials, 12)
        repeats = min(repeats, 3)
    payloads = cell_payloads(campaign, cell, limit=trials)
    if not payloads:
        raise ValueError(f"cell {cell} of {campaign!r} expands to no trials")
    for payload in payloads[: min(3, len(payloads))]:
        run_trial(payload)  # warm-up: contexts, caches, code paths

    def best_seconds(armed: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            if armed:
                telemetry.enable()
            start = time.perf_counter()
            for payload in payloads:
                run_trial(payload)
            elapsed = time.perf_counter() - start
            if armed:
                telemetry.recorder().drain()
                telemetry.metrics_registry().drain()
                telemetry.disable()
            if 0 < elapsed < best:
                best = elapsed
        return best

    def best_seconds_streaming() -> float:
        """The full live-plane arm: armed telemetry, spool appends at a
        cadence that flushes several times over the slice."""
        best = float("inf")
        every = max(1, len(payloads) // 4)
        total = len(payloads)
        for _ in range(repeats):
            spool_dir = tempfile.mkdtemp(prefix="repro-obs-stream-")
            try:
                telemetry.enable()
                writer = StreamWriter(
                    os.path.join(spool_dir, "stream.jsonl"),
                    shard="bench",
                    campaign=campaign,
                    total=total,
                    every=every,
                )
                start = time.perf_counter()
                done = 0
                for payload in payloads:
                    run_trial(payload)
                    done += 1
                    writer.on_batch(
                        {"done": done, "pending": total, "total": total}
                    )
                elapsed = time.perf_counter() - start
                writer.close(snapshot=telemetry.metrics_registry().drain())
                telemetry.recorder().drain()
                telemetry.disable()
            finally:
                shutil.rmtree(spool_dir, ignore_errors=True)
            if 0 < elapsed < best:
                best = elapsed
        return best

    # Interleave off/on/stream/off and keep the best disabled time, so
    # one-sided host interference cannot masquerade as telemetry overhead.
    off = best_seconds(False)
    on = best_seconds(True)
    streaming = best_seconds_streaming()
    off = min(off, best_seconds(False))
    per_trial = off / len(payloads)
    enabled_overhead = on / off - 1.0
    streaming_overhead = streaming / off - 1.0

    # The dormant hook, measured where it is visible: the exact check the
    # disabled run_trial performs, amortised over a large loop.
    telemetry.disable()
    hook_rounds = 100_000
    start = time.perf_counter()
    for _ in range(hook_rounds):
        telemetry.enabled()
    hook_seconds = (time.perf_counter() - start) / hook_rounds
    #: run_trial's check plus the pool/runner per-trial-amortised checks.
    hooks_per_trial = 4
    disabled_overhead = (hook_seconds * hooks_per_trial) / per_trial

    out(f"telemetry overhead: {campaign} cell {cell} "
        f"({len(payloads)} trials, best of {repeats})")
    out(f"  trial time (off)  : {per_trial * 1e3:8.3f} ms")
    out(f"  disabled overhead : {disabled_overhead:8.4%} "
        f"(ceiling {DISABLED_OVERHEAD_CEILING:.0%})")
    out(f"  enabled overhead  : {enabled_overhead:8.2%} "
        f"(ceiling {ENABLED_OVERHEAD_CEILING:.0%})")
    out(f"  streaming overhead: {streaming_overhead:8.2%} "
        f"(ceiling {STREAMING_OVERHEAD_CEILING:.0%}; "
        f"on/off ratio {streaming / off:.3f})")
    if report_path:
        merge_report_metrics(
            report_path,
            "perf_bench",
            {
                "streaming_overhead_ratio": round(streaming / off, 4),
                "telemetry_enabled_overhead": round(enabled_overhead, 4),
            },
        )
        out(f"  overhead merged   : {report_path}")
    failed = False
    if disabled_overhead >= DISABLED_OVERHEAD_CEILING:
        out("OVERHEAD: disabled-path telemetry cost exceeds its ceiling")
        failed = True
    if enabled_overhead >= ENABLED_OVERHEAD_CEILING:
        out("OVERHEAD: enabled-path telemetry cost exceeds its ceiling")
        failed = True
    if streaming_overhead >= STREAMING_OVERHEAD_CEILING:
        out("OVERHEAD: streaming-path telemetry cost exceeds its ceiling")
        failed = True
    return 1 if failed else 0


def profile_cell(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 24,
) -> cProfile.Profile:
    """cProfile one campaign cell's first *trials* trials (post warm-up)."""
    from repro.runtime.tasks import run_trial

    payloads = cell_payloads(campaign, cell, limit=trials)
    if not payloads:
        raise ValueError(f"cell {cell} of {campaign!r} expands to no trials")
    run_trial(payloads[0])  # warm-up outside the profile window
    profiler = cProfile.Profile()
    profiler.enable()
    for payload in payloads:
        run_trial(payload)
    profiler.disable()
    return profiler


def run_profile(
    campaign: str = DEFAULT_CAMPAIGN,
    cell: int = DEFAULT_CELL,
    trials: int = 24,
    sort: str = "tottime",
    limit: int = 25,
    out=print,
) -> None:
    """The ``repro perf profile`` body: print the hottest functions."""
    profiler = profile_cell(campaign, cell, trials=trials)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(limit)
    out(f"perf profile: {campaign} cell {cell} ({trials} trials, "
        f"sorted by {sort})")
    out(buffer.getvalue().rstrip())
