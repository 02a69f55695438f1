"""The fleet telemetry plane: spool framing, tailing, and the fold contract.

The spool (``stream.jsonl``) is a shard's only telemetry record, so two
properties carry this module (see ``repro.telemetry.stream``):

* **prefix** -- the live fold after any frame prefix is a prefix of the
  final fold (cumulative snapshots only ever grow);
* **sealed-snapshot recovery** -- ``merge_telemetry`` over the spools
  recovers exactly the snapshot each shard sealed (``observed``), at
  1/3/8 shards, under chaos (killed workers, torn spool tails,
  duplicated frame replays).

Every ``repro obs`` replay command reads a spool the way it reads a
``--trace-out`` recording: the span records and snapshot of the attempt
the fold selects.

Most tests run stub trials (``payload_fingerprint``) so the suite stays
fast while exercising the real runner/pool/spool machinery; the obs
replay tests run real ``ci-smoke`` trials, whose ``core.run`` spans
carry cycle counts.
"""

import os
import shutil

import pytest

from repro import telemetry
from repro.campaign import ResultStore, Shard, builtin_campaign
from repro.distrib import Coordinator, StubWorker, merge_telemetry, run_shard
from repro.distrib.coordinator import FLEET_TELEMETRY
from repro.faults import payload_fingerprint
from repro.runtime import TrialResult
from repro.telemetry.export import read_jsonl, split_metrics, write_jsonl
from repro.telemetry.metrics import deterministic_view, merge_snapshots
from repro.telemetry.spans import orphan_records
from repro.telemetry.stream import (
    FleetView,
    StreamCursor,
    StreamWriter,
    discover_spools,
    fold_frames,
    fold_stream,
    read_frames,
    spool_records,
    stream_spool,
)


def _stub_trial(trial):
    fingerprint = payload_fingerprint(trial)
    return TrialResult(
        totes=(fingerprint % 997, (fingerprint >> 16) % 997),
        cycles=fingerprint % 100_000,
    )


def _stream_shard(spec, shard, root, every=4, **kwargs):
    """Run one streamed shard; returns the snapshot it sealed."""
    kwargs.setdefault("trial_fn", _stub_trial)
    kwargs.setdefault("batch_size", 4)
    observed = {}
    run_shard(
        spec,
        shard,
        str(root),
        stream_path=stream_spool(str(root)),
        stream_every=every,
        observed=observed,
        **kwargs,
    )
    return observed["metrics"]


class _Killed(BaseException):
    """A scripted worker death (never absorbed by the runner)."""


def _killed_after(batches):
    """A progress hook that kills the shard after *batches* checkpoints."""
    seen = []

    def progress(message):
        seen.append(message)
        if len(seen) > batches:
            raise _Killed(message)

    return progress


def _lines(path):
    with open(path, "rb") as handle:
        return [line for line in handle.read().splitlines() if line]


def _write_lines(path, lines, tail=b""):
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line + b"\n")
        handle.write(tail)


class TestSpoolFraming:
    def test_writer_emits_well_formed_sealed_stream(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "seg")
        frames, torn = read_frames(stream_spool(str(tmp_path / "seg")))
        assert torn == 0
        kinds = [frame["kind"] for frame in frames]
        assert kinds[0] == "open" and kinds[-1] == "end"
        assert {"spans", "metrics", "heartbeat"} <= set(kinds)
        # One attempt, sequence-numbered gaplessly from zero.
        assert {frame["attempt"] for frame in frames} == {0}
        assert [frame["seq"] for frame in frames] == list(range(len(frames)))

    def test_heartbeats_fire_at_trial_cadence_with_host_quarantine(
        self, tmp_path
    ):
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "seg", every=8)
        frames, _ = read_frames(stream_spool(str(tmp_path / "seg")))
        beats = [f["body"] for f in frames if f["kind"] == "heartbeat"]
        # 32 trials, batch 4, cadence 8: a beat at every second batch.
        assert [beat["done"] for beat in beats] == [8, 16, 24, 32]
        for beat in beats:
            assert set(beat["host"]) == {"wall_seconds", "trials_per_sec"}
            assert all(
                name.startswith(("pool.", "batch.", "campaign.", "defend."))
                for name in beat["counters"]
            )
        assert beats[-1]["counters"]["pool.trials.executed"] == 32

    def test_heartbeat_stream_is_deterministic_across_runs(self, tmp_path):
        spec = builtin_campaign("ci-smoke")

        def deterministic_beats(root):
            _stream_shard(spec, Shard(0, 1), root, every=8)
            frames, _ = read_frames(stream_spool(str(root)))
            beats = []
            for frame in frames:
                if frame["kind"] != "heartbeat":
                    continue
                body = dict(frame["body"])
                body.pop("host")
                beats.append(body)
            return beats

        first = deterministic_beats(tmp_path / "a")
        second = deterministic_beats(tmp_path / "b")
        assert first == second

    def test_spool_spans_are_the_complete_trace(self, tmp_path):
        """The spool streams span deltas without draining the recorder:
        every record the run opened lands exactly once, and every
        parent it names is in the spool too."""
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root)
        frames, _ = read_frames(stream_spool(str(root)))
        records = spool_records(frames)
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert any(r.get("kind") == "span" for r in records)
        assert orphan_records(records) == []
        assert not any("open" in record for record in records)

    def test_heartbeats_stay_off_without_streaming(self, tmp_path):
        """A streamed shard disarms the heartbeat cadence when it ends:
        a later traced run records no pool.heartbeat events (the
        serial-vs-pooled trace identity in test_telemetry depends on
        this)."""
        assert telemetry.heartbeat_cadence() == 0
        spec = builtin_campaign("ci-smoke")
        _stream_shard(spec, Shard(0, 1), tmp_path / "streamed")
        assert telemetry.heartbeat_cadence() == 0
        telemetry.enable()
        try:
            run_shard(
                spec,
                Shard(0, 1),
                str(tmp_path / "seg"),
                trial_fn=_stub_trial,
                batch_size=4,
            )
            records = telemetry.recorder().drain()
        finally:
            telemetry.disable()
        assert records
        assert not any(r.get("name") == "pool.heartbeat" for r in records)


class TestSpoolDamage:
    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root)
        spool = stream_spool(str(root))
        whole, _ = read_frames(spool)
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "heartbeat", "att')  # killed mid-append
        frames, torn = read_frames(spool)
        assert torn == 1
        assert [f["seq"] for f in frames] == [f["seq"] for f in whole]
        # The fold sees through the damage entirely.
        assert fold_frames(frames) == fold_frames(whole)

    def test_cursor_never_consumes_a_partial_line(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        writer = StreamWriter(spool, shard="s", every=1)
        cursor = StreamCursor(spool)
        assert [f["kind"] for f in cursor.poll()] == ["open"]
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "metrics"')  # no newline yet
        assert cursor.poll() == []  # buffered, not torn
        writer.flush({"done": 1})  # the writer heals the tail first
        kinds = [f["kind"] for f in cursor.poll()]
        assert kinds == ["metrics", "heartbeat"]
        assert cursor.torn == 1  # the healed fragment, skipped once

    def test_duplicate_frames_dedup_first_write_wins(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 1), root)
        spool = stream_spool(str(root))
        clean, _ = read_frames(spool)
        lines = _lines(spool)
        # Replay a slice of frames, as a retrying transport would.
        with open(spool, "ab") as handle:
            for line in lines[2:6] + lines[:1]:
                handle.write(line + b"\n")
        replayed, torn = read_frames(spool)
        assert torn == 0
        assert replayed == clean
        assert fold_stream(spool) == fold_frames(clean)

    def test_new_writer_resumes_under_next_attempt(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        first = StreamWriter(spool, shard="s", every=1)
        first.close(snapshot={})
        second = StreamWriter(spool, shard="s", every=1)
        assert (first.attempt, second.attempt) == (0, 1)
        second.close(snapshot={})
        frames, _ = read_frames(spool)
        assert [f["attempt"] for f in frames if f["kind"] == "open"] == [0, 1]


class TestFoldContract:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_fold_matches_merge_telemetry_bytes(self, tmp_path, shards):
        """At 1/3/8 shards every spool folds to the snapshot its shard
        sealed, and ``merge_telemetry`` writes the exact bytes of the
        recorded run holding their merge."""
        spec = builtin_campaign("ci-smoke")
        segments, sealed = [], []
        for index in range(shards):
            root = tmp_path / f"seg{index}"
            sealed.append(
                _stream_shard(spec, Shard(index, shards), root, every=2)
            )
            segments.append(str(root))
            assert fold_stream(stream_spool(str(root))) == sealed[-1]
        fold_path = str(tmp_path / "fold.jsonl")
        sealed_path = str(tmp_path / "sealed.jsonl")
        merged = merge_telemetry(segments, dest_path=fold_path)
        write_jsonl([], sealed_path, metrics=merge_snapshots(*sealed))
        assert merged["pool.trials.executed"]["value"] == 32
        with open(fold_path, "rb") as a, open(sealed_path, "rb") as b:
            assert a.read() == b.read()

    def test_fold_identity_survives_killed_worker_retries(self, tmp_path):
        """A shard dies mid-run; the retry resumes under attempt 1 and
        the fold recovers the retry's sealed snapshot, not the partial
        one the dead attempt sealed."""
        spec = builtin_campaign("ci-smoke")
        segments, sealed = [], []
        for index in range(3):
            root = tmp_path / f"seg{index}"
            if index == 1:
                with pytest.raises(_Killed):
                    _stream_shard(
                        spec, Shard(index, 3), root, every=2,
                        progress=_killed_after(1),
                    )
            sealed.append(_stream_shard(spec, Shard(index, 3), root, every=2))
            segments.append(str(root))
        frames, _ = read_frames(stream_spool(segments[1]))
        assert max(f["attempt"] for f in frames) == 1  # the retry appended
        assert fold_frames(frames) == sealed[1]
        assert merge_telemetry(segments) == merge_snapshots(*sealed)

    def test_fold_identity_survives_torn_spool_and_replay(self, tmp_path):
        """Tear the spool tail AND duplicate frames, then resume the
        shard: the fold recovers the resumed attempt's sealed snapshot."""
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        _stream_shard(spec, Shard(0, 2), root, every=2)
        spool = stream_spool(str(root))
        lines = _lines(spool)
        # Keep a prefix, replay two frames, tear the last line.
        _write_lines(
            spool, lines[:-3] + lines[1:3], tail=lines[-1][: len(lines[-1]) // 2]
        )
        # The re-run heals the tail and seals a fresh attempt.
        resumed = _stream_shard(spec, Shard(0, 2), root, every=2)
        other = _stream_shard(spec, Shard(1, 2), tmp_path / "seg1", every=2)
        assert fold_stream(spool) == resumed
        assert merge_telemetry(
            [str(root), str(tmp_path / "seg1")]
        ) == merge_snapshots(resumed, other)

    def test_live_fold_is_a_prefix_of_the_final_fold(self, tmp_path):
        """Poll mid-stream at every frame boundary: deterministic
        counters only ever grow toward their final values, and no metric
        appears that the final fold lacks."""
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        sealed = _stream_shard(spec, Shard(0, 1), root, every=2)
        frames, _ = read_frames(stream_spool(str(root)))
        final = deterministic_view(sealed)
        previous = 0
        for cut in range(1, len(frames) + 1):
            live = deterministic_view(fold_frames(frames[:cut]))
            assert set(live) <= set(final)
            for name, entry in live.items():
                if entry["type"] == "counter":
                    assert entry["value"] <= final[name]["value"]
            executed = live.get("pool.trials.executed", {}).get("value", 0)
            assert executed >= previous
            previous = executed
        assert deterministic_view(fold_frames(frames)) == final

    def test_streaming_never_perturbs_campaign_artifacts(self, tmp_path):
        """Telemetry observes, never perturbs: a streamed fleet's report
        and store bytes equal a plain fleet's."""
        spec = builtin_campaign("ci-smoke")
        outputs = {}
        for mode, stream in (("plain", False), ("streamed", True)):
            dest = str(tmp_path / mode)
            result = Coordinator(
                spec,
                dest,
                shards=3,
                worker=StubWorker(
                    spec, stream=stream, stream_every=2,
                    trial_fn=_stub_trial, batch_size=4,
                ),
                stream=stream,
            ).run()
            assert result.report is not None
            with open(ResultStore(dest).path, "rb") as handle:
                outputs[mode] = (
                    result.report.to_json(),
                    result.report.render_text(),
                    handle.read(),
                )
        assert outputs["plain"] == outputs["streamed"]


class TestFleetTelemetry:
    def test_streamed_fleet_and_merge_write_one_telemetry_view(
        self, tmp_path
    ):
        """A streamed 3-shard fleet aggregates every spool into
        ``fleet_telemetry.jsonl``; ``campaign merge`` over the same
        segments folds the same spools; no segment holds a second
        telemetry file."""
        from repro.cli import main

        spec = builtin_campaign("ci-smoke")
        dest = str(tmp_path / "fleet")
        result = Coordinator(
            spec,
            dest,
            shards=3,
            worker=StubWorker(
                spec, stream=True, stream_every=2,
                trial_fn=_stub_trial, batch_size=4,
            ),
            stream=True,
        ).run()
        assert result.metrics["pool.trials.executed"]["value"] == 32
        fleet_file = os.path.join(dest, FLEET_TELEMETRY)
        assert split_metrics(read_jsonl(fleet_file)) == ([], result.metrics)
        segments = sorted(
            os.path.dirname(path) for path in discover_spools(dest).values()
        )
        assert len(segments) == 3
        for segment in segments:
            assert sorted(os.listdir(segment)) == [
                "manifest.json", "results.jsonl", "stream.jsonl",
            ]
        merged_root = str(tmp_path / "merged")
        assert main(
            ["campaign", "merge", "ci-smoke", *segments, "--store", merged_root]
        ) == 0
        _, merged = split_metrics(
            read_jsonl(os.path.join(merged_root, FLEET_TELEMETRY))
        )
        # The coordinator's view adds its own fleet.* bookkeeping on top
        # of the segment fold; everything else is the same snapshot.
        segment_part = {
            name: entry
            for name, entry in result.metrics.items()
            if not name.startswith("fleet.")
        }
        assert merged == segment_part == merge_telemetry(segments)


class TestCoordinatorTailing:
    def test_coordinator_tails_spools_concurrently(self, tmp_path):
        spec = builtin_campaign("ci-smoke")
        seen = []
        coordinator = Coordinator(
            spec,
            str(tmp_path / "fleet"),
            shards=3,
            worker=StubWorker(
                spec, stream=True, stream_every=2,
                trial_fn=_stub_trial, batch_size=4,
            ),
            stream=True,
            stream_interval=0.01,
            on_stream=lambda view: seen.append(view.render()),
        )
        result = coordinator.run()
        assert result.completed == 3
        assert seen  # the tail task observed the fleet
        view = coordinator.stream_view
        assert view is not None and view.all_done()
        # The final tailed state is the complete stream: its merged
        # metrics equal the fleet fold exactly.
        segments = [
            os.path.dirname(path)
            for path in discover_spools(str(tmp_path / "fleet")).values()
        ]
        assert view.merged_metrics() == merge_telemetry(segments)
        assert "3 shards" in seen[-1] and "done" in seen[-1]

    def test_fleet_view_renders_waiting_running_done(self, tmp_path):
        spool = str(tmp_path / "stream.jsonl")
        view = FleetView({"s0": spool}, campaign="demo")
        view.poll()
        assert view.shards["s0"].status == "waiting"
        writer = StreamWriter(spool, shard="s0", total=8, every=2)
        writer.flush({"done": 4, "total": 8, "failures": 1})
        view.poll()
        assert view.shards["s0"].status == "running"
        assert view.shards["s0"].done == 4
        writer.close(snapshot={}, update={"done": 8, "total": 8})
        view.poll()
        assert view.all_done()
        text = view.render()
        assert text.startswith("fleet demo: 1 shards")
        assert "done" in text


@pytest.fixture(scope="module")
def real_spool(tmp_path_factory):
    """A sealed spool of the whole ci-smoke campaign on real trials
    (default cadence) and the snapshot the shard sealed."""
    spool = stream_spool(str(tmp_path_factory.mktemp("real")))
    observed = {}
    run_shard(
        builtin_campaign("ci-smoke"),
        Shard(0, 1),
        os.path.dirname(spool),
        stream_path=spool,
        observed=observed,
        batch_size=8,
    )
    return spool, observed["metrics"]


def _damaged_copy(source, target, state):
    """Copy a sealed spool into *target* in one of three states."""
    os.makedirs(os.path.dirname(target), exist_ok=True)
    shutil.copyfile(source, target)
    lines = _lines(target)
    if state == "torn":
        _write_lines(target, lines, tail=b'{"kind": "spans", "att')
    elif state == "replayed":
        _write_lines(target, lines + lines[1:4])
    return target


class TestObsCli:
    def _record(self, tmp_path):
        # Under segments/ so discover_spools() finds it from the root.
        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "segments" / "seg0"
        _stream_shard(spec, Shard(0, 1), root, every=2)
        return root

    def test_obs_commands_reject_missing_and_empty_files(self, tmp_path):
        from repro.telemetry.live import (
            run_obs_flame,
            run_obs_report,
            run_obs_tail,
            run_obs_trace,
        )

        lines = []
        missing = str(tmp_path / "nope.jsonl")
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        for body in (run_obs_report, run_obs_trace, run_obs_tail, run_obs_flame):
            assert body(missing, out=lines.append) == 2
            assert body(empty, out=lines.append) == 2
        assert all(line.startswith("error: ") for line in lines)
        assert any("no recorded run" in line for line in lines)
        assert any("is empty" in line for line in lines)

    @pytest.mark.parametrize("state", ["sealed", "torn", "replayed"])
    @pytest.mark.parametrize("command", ["report", "trace", "tail", "flame"])
    def test_obs_replay_commands_read_spools(
        self, tmp_path, capsys, real_spool, command, state
    ):
        """Every replay command takes a spool -- sealed, torn-tailed or
        holding replayed frames -- and exits 0 with the same output the
        sealed spool gives, plus a one-line warning for a torn line."""
        from repro.cli import main

        spool, _ = real_spool
        outputs = {}
        for name in ("sealed", state):
            path = _damaged_copy(
                spool, str(tmp_path / name / "stream.jsonl"), name
            )
            assert main(["obs", command, path]) == 0
            text = capsys.readouterr().out.replace(str(tmp_path / name), "")
            assert "Traceback" not in text
            warnings = [
                line for line in text.splitlines()
                if line.startswith("warning: ")
            ]
            assert len(warnings) == (1 if name == "torn" else 0)
            outputs[name] = [
                line for line in text.splitlines() if line not in warnings
            ]
        assert outputs[state] == outputs["sealed"]

    def test_obs_report_on_a_spool_matches_its_recording(
        self, tmp_path, real_spool
    ):
        """A spool replays exactly like a ``--trace-out`` recording of
        the sealed attempt: same rollup, attribution and metrics."""
        from repro.telemetry.live import run_obs_report

        spool, sealed = real_spool
        frames, _ = read_frames(spool)
        recording = str(tmp_path / "run.jsonl")
        write_jsonl(spool_records(frames), recording, metrics=sealed)
        reports = {}
        for path in (spool, recording):
            lines = []
            assert run_obs_report(path, out=lines.append) == 0
            assert lines[0] == f"recorded run: {path}"
            reports[path] = lines[1:]
        assert reports[spool] == reports[recording]
        assert "trace    : 0 spans, 0 events" not in reports[spool]

    def test_obs_report_on_a_retried_spool_shows_the_final_attempt(
        self, tmp_path
    ):
        from repro.telemetry.live import render_metrics, run_obs_report

        spec = builtin_campaign("ci-smoke")
        root = tmp_path / "seg"
        with pytest.raises(_Killed):
            _stream_shard(
                spec, Shard(0, 1), root, every=4,
                progress=_killed_after(2),
            )
        sealed = _stream_shard(spec, Shard(0, 1), root, every=4)
        spool = stream_spool(str(root))
        frames, _ = read_frames(spool)
        final = [
            record
            for frame in frames
            if frame["kind"] == "spans" and frame["attempt"] == 1
            for record in frame["body"]["records"]
        ]
        spans = sum(1 for r in final if r["kind"] == "span")
        events = sum(1 for r in final if r["kind"] == "event")
        lines = []
        assert run_obs_report(spool, out=lines.append) == 0
        assert f"trace    : {spans} spans, {events} events" in lines
        table = []
        render_metrics(sealed, out=table.append)
        assert lines[-len(table):] == table
        # The dead attempt executed trials the retry did not repeat.
        assert sealed["pool.trials.executed"]["value"] < 32

    def test_obs_flame_exports_collapsed_stacks_from_both_inputs(
        self, tmp_path, real_spool
    ):
        """A spool and a ``--trace-out`` style recording of the same
        shard, run separately, export the same collapsed stacks."""
        from repro.telemetry.live import run_obs_flame

        spool, _ = real_spool
        recording = str(tmp_path / "run.jsonl")
        telemetry.enable(wall_clock=True)
        try:
            run_shard(
                builtin_campaign("ci-smoke"),
                Shard(0, 1),
                str(tmp_path / "seg"),
                batch_size=8,
            )
            write_jsonl(
                telemetry.recorder().drain(),
                recording,
                metrics=telemetry.metrics_registry().drain(),
            )
        finally:
            telemetry.disable()
        outputs = {}
        for name, source in (("trace", recording), ("spool", spool)):
            target = str(tmp_path / f"{name}.folded")
            assert run_obs_flame(source, output=target, out=lambda _: None) == 0
            with open(target) as handle:
                outputs[name] = handle.read()
        assert outputs["trace"] == outputs["spool"]
        for line in outputs["trace"].splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) >= 0
        assert any(
            ";" in line for line in outputs["trace"].splitlines()
        )  # real nesting collapsed

    def test_obs_flame_ignores_replayed_spans_frames(
        self, tmp_path, real_spool
    ):
        """Replaying every spans frame must not double the cycles."""
        from repro.telemetry.live import run_obs_flame

        spool, _ = real_spool
        lines = _lines(spool)
        replayed = str(tmp_path / "replayed" / "stream.jsonl")
        os.makedirs(os.path.dirname(replayed))
        _write_lines(
            replayed, lines + [line for line in lines if b'"spans"' in line]
        )
        outputs, messages = {}, []
        for name, source in (("clean", spool), ("replayed", replayed)):
            target = str(tmp_path / f"{name}.folded")
            assert run_obs_flame(
                source, output=target, out=messages.append
            ) == 0
            with open(target) as handle:
                outputs[name] = handle.read()
        assert outputs["clean"] == outputs["replayed"]
        total = sum(
            int(line.rsplit(" ", 1)[1])
            for line in outputs["clean"].splitlines()
        )
        assert total == 116_704
        assert all("(116,704 self-cycles)" in line for line in messages)

    def test_obs_report_heals_torn_tail_with_warning(self, tmp_path):
        from repro.telemetry.live import run_obs_report

        spool = stream_spool(str(self._record(tmp_path)))
        with open(spool, "ab") as handle:
            handle.write(b'{"kind": "spans", "att')
        lines = []
        assert run_obs_report(spool, out=lines.append) == 0
        assert any(
            line.startswith("warning: ") and "torn telemetry record" in line
            for line in lines
        )

    def test_obs_top_once_and_fold_check(self, tmp_path):
        from repro.telemetry.live import run_obs_fold, run_obs_top

        self._record(tmp_path)
        lines = []
        assert run_obs_top(str(tmp_path), once=True, out=lines.append) == 0
        assert any("1 shards" in line for line in lines)
        lines = []
        assert run_obs_fold(
            str(tmp_path), check=True, out=lines.append
        ) == 0
        assert "every spool sealed: ok (1 shards)" in lines

    def test_obs_fold_check_fails_on_a_missing_end_frame(self, tmp_path):
        from repro.telemetry.live import run_obs_fold

        spool = stream_spool(str(self._record(tmp_path)))
        lines = _lines(spool)
        assert b'"kind": "end"' in lines[-1]
        _write_lines(spool, lines[:-1])  # the worker died before sealing
        out = []
        assert run_obs_fold(str(tmp_path), check=True, out=out.append) == 1
        assert any(
            line.startswith("UNSEALED: seg0: ") for line in out
        )

    def test_obs_top_missing_spools_is_one_line_error(self, tmp_path):
        from repro.telemetry.live import run_obs_top

        lines = []
        assert run_obs_top(str(tmp_path), once=True, out=lines.append) == 2
        assert lines == [
            f"error: no stream spools under {tmp_path} "
            f"(start the fleet with --stream)"
        ]


class TestProgressRenderer:
    def test_progress_line_surfaces_evictions_and_standdowns(self):
        import io

        from repro.telemetry.live import ProgressRenderer

        sink = io.StringIO()
        renderer = ProgressRenderer(stream=sink, name="demo")
        renderer.on_batch(
            {
                "done": 8, "pending": 16, "total": 32, "cached": 16,
                "cell": 1, "cells": 2, "failures": 1,
                "evictions": 3,
                "standdowns": {"resilience-policy": 2, "cache-hit": 1},
            }
        )
        line = sink.getvalue()
        assert "3 evicted" in line
        assert "standdown cache-hitx1,resilience-policyx2" in line

    def test_progress_line_stays_quiet_without_batch_counts(self):
        import io

        from repro.telemetry.live import ProgressRenderer

        sink = io.StringIO()
        ProgressRenderer(stream=sink, name="demo").on_batch(
            {"done": 4, "pending": 8, "total": 8, "cached": 0,
             "cell": 0, "cells": 1, "failures": 0}
        )
        line = sink.getvalue()
        assert "evicted" not in line and "standdown" not in line
