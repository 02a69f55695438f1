"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload e3-batch --seed 0 --seconds 25 --trace 0

Each workload is a real ``python -m repro campaign ...`` command, run in a
fresh subprocess (through ``child.py``, which applies the seed), one at a
time: a closed loop with one client.  A run repeats the command until
``--seconds`` have passed and times every repetition from outside.

``--trace 0`` reports the end-to-end metrics (medians over repetitions):
``wall_s`` (spawn to exit), ``setup_s`` (``campaign status`` against the
store state the command starts from: interpreter start, imports, spec
expansion, key hashing and store load), ``cpu_s`` (user+sys of the
process tree, from ``wait4``), ``peak_rss_mb`` (largest resident set of
any process of the command) and ``trial_ok_ratio`` (1 - failed/attempted
trials).  A host-speed probe runs between timed samples, and the three
times are reported at the host speed at which the probe takes
``PROBE_REF_S``; the host seconds are printed beside them.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of ``layers.py``.

Every report passes ``checks.py``.  The last stdout line is the JSON
result; the exit code is 0 only if every repetition was correct.  See
``NOTES.md`` for why each workload exists and what it should show.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from aggregate import Tally, at_reference_speed, median, quartiles, result_line
from checks import TRIALS, report_problems, simulated_cycles
from layers import METRICS, UNITS, layer_metrics, parse_trace

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = os.path.join(os.path.dirname(HERE), "src")

#: A run must exit within 180 s; repetitions are not started past this.
RUN_BUDGET_S = 150.0
SETUP_SAMPLES = 5
PYTHON_SAMPLES = 5

#: The host-speed probe: a fresh interpreter running a fixed pure-Python
#: loop, one copy pinned to each CPU the benchmark may use, all at once.
#: It runs no code of this repository, so no change to the program moves
#: it.  The host is shared: each vCPU runs up to ~1.5x slower for
#: stretches of seconds to minutes, and such a stretch slows the probe and
#: the command alike.
PROBE = "d = {}\ns = 0\nfor i in range(400000):\n    d[i & 1023] = s\n    s += i * 3 % 7\n"
#: A fixed scale, near the probe's median wall on a 2-vCPU Xeon host; only
#: that it never changes matters.  Each timed sample is rescaled by this
#: over the median of the run's probes.
PROBE_REF_S = 0.25


@dataclass(frozen=True)
class Workload:
    campaign: str
    #: The repro CLI argv, without ``--store``.
    argv: Tuple[str, ...]
    #: Empty the store before every repetition (else fill it once, untimed).
    fresh: bool
    #: Whether the seed reaches the campaign (fleet shards resolve the
    #: campaign by name in their own processes, so a fleet cannot be seeded).
    seeded: bool
    why: str


WORKLOADS: Dict[str, Workload] = {
    "e3-batch": Workload(
        "e3-matrix", ("campaign", "run", "e3-matrix", "--batch", "16"), True, True,
        "Table 2 grid with lockstep batching into an empty store: packs and "
        "the fixed-cost floor each carry a large share; the store write side",
    ),
    "e3-scalar": Workload(
        "e3-matrix", ("campaign", "run", "e3-matrix"), True, True,
        "the same grid one trial at a time: the scalar simulator dominates "
        "and runtime.batch is bypassed; same report bytes as e3-batch",
    ),
    "e3-cached": Workload(
        "e3-matrix", ("campaign", "run", "e3-matrix", "--batch", "16"), False, True,
        "the same command against a full store: zero trials run, so imports, "
        "key hashing, store load and report do all the work",
    ),
    "smoke-fleet": Workload(
        "ci-smoke",
        ("campaign", "fleet", "ci-smoke", "--shards", "3", "--parallel", "2"),
        True, False,
        "3 shard processes on 2 slots plus merge: the only path through "
        "repro.distrib, with a negligible simulator share",
    ),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    spawned_at: float
    exited_at: float
    log: str


class Runner:
    """Spawns and times the commands of one benchmark run."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.offset = seed if self.workload.seeded else 0
        self.work = work
        self.store = os.path.join(work, "store")
        self.started = perf_counter()
        self.spawns = 0
        self.tally = Tally()
        self.probes: List[float] = []

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: List[str]) -> Sample:
        """Run *argv* to completion; time it from outside with wait4.

        The command runs in its own session, so a watchdog that fires
        (or an interrupt) kills every process it started, fleet shards
        included."""
        self.spawns += 1
        log = os.path.join(self.work, f"spawn{self.spawns}.log")
        limit = max(5.0, 175.0 - (perf_counter() - self.started))
        with open(log, "wb") as out:
            spawned_at = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            watchdog = threading.Timer(limit, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            exited_at = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall_s=exited_at - spawned_at,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            spawned_at=spawned_at,
            exited_at=exited_at,
            log=log,
        )

    def repro(self, argv, trace_out: Optional[str] = None) -> Sample:
        cmd = [sys.executable, CHILD, "--offset", str(self.offset)]
        if trace_out:
            cmd += ["--trace-out", trace_out, "--command-id",
                    f"{self.name}-{self.spawns + 1}"]
        return self.spawn(cmd + ["--", *argv, "--store", self.store])

    def bare_python(self) -> Tuple[float, float]:
        """Median wall of a bare interpreter, and of the part of it after
        its one statement ran (its shutdown)."""
        walls, tails = [], []
        for _ in range(PYTHON_SAMPLES):
            sample = self.spawn(
                [sys.executable, "-c",
                 "import time; print(repr(time.perf_counter()))"]
            )
            with open(sample.log) as handle:
                stamp = float(handle.read().split()[-1])
            walls.append(sample.wall_s)
            tails.append(sample.exited_at - stamp)
        return median(walls), median(tails)

    def probe(self) -> float:
        """Mean wall of the host-speed probes, run at once, one pinned to
        each CPU: the command may run on any of them."""
        running = {}
        for cpu in sorted(os.sched_getaffinity(0)):
            proc = subprocess.Popen(
                [sys.executable, "-c", PROBE], stdout=subprocess.DEVNULL,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}),
            )
            running[proc.pid] = (proc, perf_counter())
        walls = []
        try:
            while running:
                pid, status, _ = os.wait4(-1, 0)
                proc, spawned_at = running.pop(pid)
                walls.append(perf_counter() - spawned_at)
                proc.returncode = os.waitstatus_to_exitcode(status)
                if proc.returncode != 0:
                    print("FAILED host-speed probe", file=sys.stderr)
                    raise SystemExit(1)
        finally:
            for proc, _ in running.values():
                proc.kill()
                proc.wait()
        wall = sum(walls) / len(walls)
        self.probes.append(wall)
        return wall

    def fail(self, what: str, sample: Sample, problems=()) -> None:
        print(f"FAILED {what} (exit {sample.code}): {'; '.join(problems)}",
              file=sys.stderr)
        with open(sample.log, errors="replace") as handle:
            sys.stderr.write("".join(handle.readlines()[-15:]))

    # -- repetitions ---------------------------------------------------------

    def reset_store(self) -> None:
        if self.workload.fresh:
            shutil.rmtree(self.store, ignore_errors=True)

    def status(self) -> Tuple[Sample, bool]:
        """One ``campaign status`` sample against the current store."""
        campaign = self.workload.campaign
        sample = self.repro(("campaign", "status", campaign))
        with open(sample.log) as handle:
            match = re.search(r"(\d+)/(\d+) trials cached", handle.read())
        total = TRIALS[campaign]
        expected = (0 if self.workload.fresh else total, total)
        ok = sample.code == 0 and match is not None and (
            (int(match[1]), int(match[2])) == expected
        )
        if not ok:
            self.fail("campaign status", sample, [f"expected {expected} cached/total"])
        return sample, ok

    def command(
        self, trace_out: Optional[str] = None, setup_ok: bool = True
    ) -> Tuple[Sample, Optional[bytes]]:
        """One repetition of the workload's command; its report if correct.

        The repetition's trials all count as failed if the command or its
        report fails, or if the setup sample taken before it (*setup_ok*)
        did.  The gate rejects a report with failed or quarantined trials,
        so those fail the whole repetition too."""
        self.reset_store()
        sample = self.repro(self.workload.argv, trace_out)
        campaign = self.workload.campaign
        path = os.path.join(self.store, campaign, "report.json")
        problems = [] if sample.code == 0 else ["non-zero exit"]
        data = None
        if not problems:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError as exc:
                problems.append(f"no report: {exc}")
        if data is not None:
            problems += report_problems(campaign, data, self.offset == 0)
        self.tally.add(TRIALS[campaign], ok=setup_ok and not problems)
        if problems:
            self.fail(" ".join(self.workload.argv), sample, problems)
            return sample, None
        return sample, data

    def prepare(self) -> None:
        """Untimed set-up: bytecode compiled, and the store filled for a
        cached workload."""
        compileall.compile_dir(SRC, quiet=1)
        shutil.rmtree(self.store, ignore_errors=True)
        if not self.workload.fresh:
            sample = self.repro(self.workload.argv)
            if sample.code != 0:
                self.fail("filling the store", sample)
                raise SystemExit(1)

    def out_of_time(self, seconds: float, measure_start: float) -> bool:
        """Whether to stop repeating: *seconds* measured, or the run's
        budget spent."""
        now = perf_counter()
        return now - measure_start >= seconds or now - self.started >= RUN_BUDGET_S


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group has already exited


def describe(runner: Runner, args, python: Tuple[float, float]) -> None:
    workload = runner.workload
    print(f"workload  {args.workload}: repro {' '.join(workload.argv)} "
          f"(closed loop, 1 client)")
    print(f"why       {workload.why}")
    if workload.seeded:
        print(f"seed      {args.seed}: every cell's machine seed offset by "
              f"{runner.offset}")
    else:
        print(f"seed      {args.seed}: not applied; fleet shards resolve "
              f"{workload.campaign} by name, so it runs at its own seeds")
    print(f"host      nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg_start={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"host.python_s={python[0]:.4f}")


def print_samples(name: str, values: List[float], unit: str,
                  host: Optional[List[float]] = None) -> None:
    q1, q2, q3 = quartiles(values)
    line = (f"metric    {name:<15} median {q2:.4f} {unit:<5} "
            f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}")
    if host:
        line += f" (host seconds: median {median(host):.4f})"
    print(line)


def run_end_to_end(runner: Runner, seconds: float) -> Dict[str, Tuple[float, str]]:
    # Host seconds of each timed sample; a probe runs after every one.
    host: Dict[str, List[float]] = {"wall_s": [], "setup_s": [], "cpu_s": []}
    rss: List[float] = []
    digests = set()
    runner.probe()

    def take_setup() -> bool:
        runner.reset_store()
        setup, ok = runner.status()
        host["setup_s"].append(setup.wall_s)
        runner.probe()
        return ok

    measure_start = perf_counter()
    while True:
        setup_ok = True
        # The first repetitions each take a setup sample just before the
        # command; later ones spend the time on more command samples.
        if len(host["setup_s"]) < SETUP_SAMPLES:
            setup_ok = take_setup()
        sample, data = runner.command(setup_ok=setup_ok)
        host["wall_s"].append(sample.wall_s)
        host["cpu_s"].append(sample.cpu_s)
        runner.probe()
        rss.append(sample.peak_rss_mb)
        if data is not None:
            digests.add(hashlib.sha256(data).hexdigest())
        if runner.out_of_time(seconds, measure_start):
            break
    while len(host["setup_s"]) < SETUP_SAMPLES:
        if not take_setup():
            # A failed extra setup sample counts as a failed repetition.
            runner.tally.add(TRIALS[runner.workload.campaign], ok=False)
    for digest in sorted(digests):
        print(f"report    sha256 {digest}")
    samples = {
        name: [at_reference_speed(t, runner.probes, PROBE_REF_S) for t in timed]
        for name, timed in host.items()
    }
    samples["peak_rss_mb"] = rss
    q1, q2, q3 = quartiles(runner.probes)
    print(f"probe     host-speed probe median {q2:.4f} s q1 {q1:.4f} q3 {q3:.4f} "
          f"n={len(runner.probes)}; times below are at the speed where it "
          f"takes {PROBE_REF_S} s")
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for name, values in samples.items():
        print_samples(name, values, units[name], host.get(name))
        metrics[name] = (median(values), units[name])
    tally = runner.tally
    print(f"metric    trial_ok_ratio  {1 - tally.fail_ratio:.4f} "
          f"({tally.failed} of {tally.attempted} trials failed)")
    metrics["trial_ok_ratio"] = (1 - tally.fail_ratio, "ratio")
    return metrics


def run_traced(runner: Runner, seconds: float,
               python: Tuple[float, float]) -> Dict[str, Tuple[float, str]]:
    untraced: List[float] = []
    per_rep: List[Dict[str, float]] = []
    measure_start = perf_counter()
    while True:
        sample, _ = runner.command()
        untraced.append(sample.wall_s)
        trace_out = os.path.join(runner.work, f"trace{len(per_rep)}.tsv")
        sample, data = runner.command(trace_out)
        if data is not None:
            with open(trace_out) as handle:
                trace = parse_trace(handle.read())
            per_rep.append(layer_metrics(
                trace, sample.spawned_at, sample.exited_at, python[0],
                python[1], simulated_cycles(data),
            ))
        if runner.out_of_time(seconds, measure_start):
            break
    metrics = {}
    for name, *_ in METRICS:
        if name == "trace.overhead_ratio":
            traced = [rep["trace.wall_s"] for rep in per_rep]
            value = median(traced) / median(untraced) if traced else 0.0
        else:
            value = median([rep[name] for rep in per_rep]) if per_rep else 0.0
        metrics[name] = (value, UNITS[name])
    print(f"traced    {len(per_rep)} traced and {len(untraced)} untraced "
          f"repetitions; layer metrics are medians over the traced ones")
    for name, unit, _, moves, matters in METRICS:
        print(f"layer     {name:<28} {metrics[name][0]:>14.6g} {unit:<8} "
              f"moves {moves:<14} matters: {matters}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    work = os.path.join(os.getcwd(), ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        python = runner.bare_python()
        describe(runner, args, python)
        runner.prepare()
        if args.trace:
            metrics = run_traced(runner, args.seconds, python)
        else:
            metrics = run_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(result_line(runner.tally, metrics))
    return 0 if runner.tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
