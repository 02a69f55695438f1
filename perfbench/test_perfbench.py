"""Self-test of the benchmark's own logic (no campaign is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
import sys

import pytest

from aggregate import Tally, at_reference_speed, median, quartiles, result_line
from checks import PINNED_REPORT_SHA256, report_problems, shape_problems
from layers import METRICS, Span, Trace, layer_metrics, self_times, union_length
from tracer import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))


# -- aggregation ----------------------------------------------------------------


def test_quartiles_match_statistics_quantiles():
    values = [1.31, 1.12, 1.52, 1.17, 1.40, 1.29, 1.23]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert median(values) == 1.29


def test_single_sample_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


def test_reference_speed_cancels_a_uniform_slowdown():
    assert at_reference_speed(1.2, [0.25, 0.25, 0.25], 0.25) == pytest.approx(1.2)
    # The host runs 40% slow: the samples and the probes take 1.4x as long.
    assert at_reference_speed(1.2 * 1.4, [0.35, 0.35], 0.25) == pytest.approx(1.2)
    # A slower program still reads slower at the same host speed.
    assert at_reference_speed(1.5, [0.25], 0.25) == pytest.approx(1.5)


def test_reference_speed_takes_the_median_probe():
    # One probe caught in a stall does not move the scale.
    assert at_reference_speed(1.0, [0.2, 0.25, 0.9], 0.25) == pytest.approx(1.0)


def test_failed_repetition_counts_all_its_trials():
    tally = Tally()
    tally.add(5120, ok=True)
    tally.add(5120, ok=False)  # non-zero exit, a failed check or quarantine
    tally.add(5120, ok=True)
    assert (tally.attempted, tally.failed) == (15360, 5120)
    assert tally.fail_ratio == pytest.approx(1 / 3)
    assert not tally.correct


def test_clean_tally_is_correct_and_empty_one_is_not():
    tally = Tally()
    assert not tally.correct
    tally.add(32, ok=True)
    assert tally.correct and tally.fail_ratio == 0.0


def test_result_line_has_exactly_the_contract_keys():
    tally = Tally()
    tally.add(32, ok=True)
    line = json.loads(result_line(tally, {"wall_s": (1.25, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"wall_s": {"value": 1.25, "unit": "s"}}


# -- the correctness gate ---------------------------------------------------------


def _e3_report() -> dict:
    cells = []
    for index, model in enumerate(
        ("i7-6700", "i7-7700", "i9-10980XE", "i9-13900K", "ryzen-5600G")
    ):
        cells.append({
            "cell": 2 * index, "kind": "channel", "model": model,
            "payload": "5432", "failures": [], "cycles": 10,
            "reps": [{"received": "5432", "error_rate": 0.0}],
        })
        cells.append({
            "cell": 2 * index + 1, "kind": "kaslr", "model": model,
            "failures": [], "cycles": 20,
            "reps": [{"success": model != "ryzen-5600G"}],
        })
    return {
        "campaign": "e3-matrix",
        "summary": {"trials": 5120, "failures": 0},
        "cells": cells,
    }


def test_paper_shape_accepts_table2():
    assert shape_problems("e3-matrix", _e3_report()) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r["cells"][9]["reps"][0].update(success=True),  # Zen 3 broken
        lambda r: r["cells"][3]["reps"][0].update(success=False),  # Intel blind
        lambda r: r["cells"][4]["reps"][0].update(received="5433", error_rate=0.5),
        lambda r: r["summary"].update(failures=2),  # quarantined trials
        lambda r: r["cells"].pop(),  # a model missing
        lambda r: r.update(campaign="ci-smoke"),
    ],
)
def test_paper_shape_rejects_doctored_reports(doctor):
    report = _e3_report()
    doctor(report)
    assert shape_problems("e3-matrix", report)


def test_ci_smoke_must_decode_030b():
    report = {
        "campaign": "ci-smoke",
        "summary": {"trials": 32, "failures": 0},
        "cells": [{"cell": 0, "kind": "channel", "model": "i7-7700",
                   "payload": "030b", "failures": [], "cycles": 1,
                   "reps": [{"received": "030b", "error_rate": 0.0}]}],
    }
    assert shape_problems("ci-smoke", report) == []
    report["cells"][0]["reps"][0]["received"] = "030a"
    assert shape_problems("ci-smoke", report)


def test_pinned_checksum_applies_at_shipped_seeds_only():
    data = json.dumps(_e3_report()).encode()
    assert hashlib.sha256(data).hexdigest() != PINNED_REPORT_SHA256["e3-matrix"]
    assert report_problems("e3-matrix", data, shipped_seeds=False) == []
    problems = report_problems("e3-matrix", data, shipped_seeds=True)
    assert len(problems) == 1 and "sha256" in problems[0]


def test_corrupt_report_bytes_fail():
    assert report_problems("e3-matrix", b'{"campaign": "e3-', shipped_seeds=False)


# -- layer metrics ----------------------------------------------------------------


def test_union_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_children_union():
    spans = [
        Span(1, "distrib.fleet", 0.0, 10.0, 0),
        Span(2, "distrib.shard", 1.0, 6.0, 1),
        Span(3, "distrib.shard", 2.0, 7.0, 1),  # concurrent with 2
        Span(4, "distrib.merge", 8.0, 9.0, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[2] == own[3] == 5.0


def test_layer_metrics_attribute_the_traced_wall():
    # spawn at 100, exit at 112; bare interpreter 0.1 s with a 0.02 s tail.
    spans = [
        Span(1, "import", 100.05, 100.55, 0),
        Span(2, "cli.main", 100.56, 111.8, 0),
        Span(3, "import", 100.6, 100.7, 2),
        Span(4, "runner.run", 100.8, 111.7, 2),
        Span(5, "pool.map", 101.0, 111.0, 4),
        Span(6, "batch.pack", 101.0, 105.0, 5),
        Span(7, "trial.kaslr", 104.0, 105.0, 6),  # an evicted lane
        Span(8, "trial.channel", 105.0, 110.0, 5),
    ]
    trace = Trace("x", spans, {"batch.lanes": 16, "batch.lanes_evicted": 1},
                  written_at=111.85)
    metrics = layer_metrics(trace, 100.0, 112.0, 0.1, 0.02, cycles=10**9)
    assert metrics["cli.import_s"] == pytest.approx(0.6)
    assert metrics["batch.pack_s"] == pytest.approx(4.0)
    assert metrics["trial.kaslr_s"] == pytest.approx(1.0)
    assert metrics["pool.overhead_s"] == pytest.approx(1.0)
    assert metrics["cli.teardown_s"] == pytest.approx(0.13)
    # host execution: the pack (with its evicted lane) plus the scalar trial
    assert metrics["sim.host_ns_per_cycle"] == pytest.approx(9.0)
    assert metrics["batch.lane_useful_ratio"] == pytest.approx(15 / 16)
    covered = 0.5 + (111.8 - 100.56)
    assert metrics["trace.unattributed_s"] == pytest.approx(
        12.0 - 0.1 - covered - 0.13
    )
    assert set(metrics) == {name for name, *_ in METRICS} - {"trace.overhead_ratio"}


# -- tracing ----------------------------------------------------------------------


def test_recorder_nests_sync_and_async_spans():
    recorder = Recorder("t")

    inner = recorder.wrap(lambda: 1, "inner")

    async def leaf():
        return inner()

    outer = recorder.wrap(lambda: asyncio.run(recorder.wrap(leaf, "leaf")()), "outer")
    assert outer() == 1
    names = {span[1]: span for span in recorder.spans}
    assert names["leaf"][4] == names["outer"][0]
    assert names["inner"][4] == names["leaf"][0]
    assert names["outer"][4] == 0


def test_recorder_trace_round_trips(tmp_path):
    from layers import parse_trace

    recorder = Recorder("cmd-1")
    recorder.wrap(lambda: None, "cli.main")()
    recorder.count("store.checkpoints", 2)
    path = tmp_path / "trace.tsv"
    recorder.write(str(path))
    trace = parse_trace(path.read_text())
    assert trace.command_id == "cmd-1"
    assert trace.counters == {"store.checkpoints": 2}
    assert [span.name for span in trace.spans] == ["cli.main"]
    assert trace.written_at >= trace.spans[0].end


# -- seeding and the manifest -----------------------------------------------------


def test_offset_shifts_every_cell_seed_and_zero_is_shipped():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from child import offset_campaigns
    from repro.campaign import BUILTIN_CAMPAIGNS, builtin_campaign

    saved = dict(BUILTIN_CAMPAIGNS)
    try:
        shipped = builtin_campaign("e3-matrix")
        offset_campaigns(1000)
        shifted = builtin_campaign("e3-matrix")
    finally:
        BUILTIN_CAMPAIGNS.clear()
        BUILTIN_CAMPAIGNS.update(saved)
    assert shifted.name == shipped.name
    assert [c.machine.seed for c in shifted.cells] == [
        c.machine.seed + 1000 for c in shipped.cells
    ]
    assert [c.machine.replace(seed=0) for c in shifted.cells] == [
        c.machine.replace(seed=0) for c in shipped.cells
    ]


def test_manifest_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in METRICS
    ]
    from run import WORKLOADS

    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "wall_s", "setup_s", "cpu_s", "peak_rss_mb", "trial_ok_ratio",
    }
