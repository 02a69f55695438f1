"""Layer spans for the traced benchmark run, recorded from outside the program.

This module runs inside the measured child process.  It wraps the public
functions that mark each layer boundary of ``repro`` (the table in
``TARGETS``) and times every outermost import that loads new modules, so
lazily imported packages (``repro.campaign`` and numpy load inside
``cmd_campaign_run``) are counted where they happen.  A wrapper is
installed right after the import that loads its module returns; modules
that bind a name with ``from x import y`` are patched under that name,
which is why ``trial_key`` is wrapped in ``repro.campaign.runner`` (as the
runner calls it) and not in ``repro.campaign.store``.

Spans (id, name, start, end, parent) stay in memory and are written once,
when the command returns, as tab-separated lines.  Times are
``time.perf_counter`` values, which on Linux read the system-wide monotonic
clock, so the parent can place them against its own spawn and exit times.
"""

from __future__ import annotations

import builtins
import contextvars
import importlib
import os
import sys
import threading
from time import perf_counter

#: module -> ((attribute path as the callers look it up, span name), ...)
TARGETS = {
    "repro.cli": (("main", "cli.main"),),
    "repro.campaign.spec": (("CampaignSpec.expand", "spec.expand"),),
    "repro.campaign.store": (
        ("ResultStore.get_many", "store.load"),
        ("ResultStore.put_many", "store.put"),
    ),
    "repro.campaign.report": (
        ("CampaignReport.write_json", "report.write"),
        ("CampaignReport.write_text", "report.write"),
    ),
    "repro.campaign.runner": (
        ("trial_key", "store.key"),
        ("build_report", "report.build"),
        ("CampaignRunner.run", "runner.run"),
        ("CampaignRunner.collect", "runner.collect"),
    ),
    "repro.runtime.pool": (("TrialPool.map", "pool.map"),),
    "repro.runtime.batch": (("run_pack", "batch.pack"),),
    "repro.runtime.tasks": (
        ("run_channel_trial", "trial.channel"),
        ("run_kaslr_trial", "trial.kaslr"),
    ),
    "repro.distrib.coordinator": (
        ("Coordinator.run", "distrib.fleet"),
        ("LocalProcessWorker.__call__", "distrib.shard"),
        ("merge_stores", "distrib.merge"),
        ("merge_telemetry", "distrib.merge"),
    ),
}

_CO_COROUTINE = 0x80


class Recorder:
    """In-memory span and counter sink for one traced command."""

    def __init__(self, command_id: str) -> None:
        self.command_id = command_id
        #: (id, name, start, end, parent id; 0 = no parent)
        self.spans = []
        self.counters = {}
        self._next_id = 0
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._import_depth = 0
        self._main_thread = threading.get_ident()
        self._patched = set()
        self._loaded_stores = set()
        self._real_import = builtins.__import__
        self._real_import_module = importlib.import_module

    # -- spans ---------------------------------------------------------------

    def _open(self):
        parent = self._current.get()
        self._next_id += 1
        span_id = self._next_id
        return span_id, parent, self._current.set(span_id), perf_counter()

    def _close(self, name, span_id, parent, token, start) -> None:
        end = perf_counter()
        self._current.reset(token)
        self.spans.append((span_id, name, start, end, parent))

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str):
        """*fn* recorded as span *name* on every call (async-aware)."""
        if fn.__code__.co_flags & _CO_COROUTINE:

            async def traced(*args, **kwargs):
                span = self._open()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, *span)

        else:

            def traced(*args, **kwargs):
                span = self._open()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, *span)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        traced.__perfbench__ = True
        return traced

    # -- probes: counters read at a layer boundary ---------------------------

    def _probe_put_many(self, put_many, module):
        def probed(store, records):
            before = _file_size(store.path)
            put_many(store, records)
            self.count("store.checkpoints", 1)
            self.count("store.bytes_written", _file_size(store.path) - before)

        return probed

    def _probe_get_many(self, get_many, module):
        def probed(store, keys):
            found = get_many(store, keys)
            if id(store) not in self._loaded_stores:
                self._loaded_stores.add(id(store))
                self.count("store.records_loaded", len(store))
            return found

        return probed

    def _probe_run_pack(self, run_pack, module):
        def probed(trials, stats=None):
            own = module.BatchStats() if stats is None else stats
            before = (own.packs, own.evicted_lanes,
                      own.leader_cache_hits, own.leader_cache_misses)
            results = run_pack(trials, own)
            self.count("batch.packs", own.packs - before[0])
            self.count("batch.lanes", len(trials))
            self.count("batch.lanes_evicted", own.evicted_lanes - before[1])
            self.count("batch.leader_cache_hits",
                       own.leader_cache_hits - before[2])
            self.count("batch.leader_cache_misses",
                       own.leader_cache_misses - before[3])
            return results

        return probed

    _PROBES = {
        "store.put": _probe_put_many,
        "store.load": _probe_get_many,
        "batch.pack": _probe_run_pack,
    }

    # -- installing the wrappers --------------------------------------------

    def _patch(self, module) -> None:
        for path, name in TARGETS[module.__name__]:
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if getattr(fn, "__perfbench__", False):
                continue
            probe = self._PROBES.get(name)
            setattr(owner, attr,
                    self.wrap(probe(self, fn, module) if probe else fn, name))

    def _patch_loaded(self) -> None:
        for module_name in TARGETS:
            if module_name not in self._patched and module_name in sys.modules:
                self._patched.add(module_name)
                self._patch(sys.modules[module_name])

    def _timed_import(self, real, *args, **kwargs):
        if self._import_depth or threading.get_ident() != self._main_thread:
            return real(*args, **kwargs)
        loaded = len(sys.modules)
        span_id, parent, token, start = self._open()
        self._import_depth = 1
        try:
            return real(*args, **kwargs)
        finally:
            self._import_depth = 0
            end = perf_counter()
            self._current.reset(token)
            if len(sys.modules) != loaded:
                self.spans.append((span_id, "import", start, end, parent))
                self._patch_loaded()

    def install(self) -> None:
        real_import, real_import_module = self._real_import, self._real_import_module

        def traced_import(*args, **kwargs):
            return self._timed_import(real_import, *args, **kwargs)

        def traced_import_module(*args, **kwargs):
            return self._timed_import(real_import_module, *args, **kwargs)

        builtins.__import__ = traced_import
        importlib.import_module = traced_import_module
        self._patch_loaded()

    def uninstall(self) -> None:
        builtins.__import__ = self._real_import
        importlib.import_module = self._real_import_module

    def write(self, path: str) -> None:
        """Write the trace, tab-separated: a ``command`` line, the
        ``written_at`` clock reading, ``counter`` lines and ``span`` lines
        (``span id name start end parent``)."""
        lines = [f"command\t{self.command_id}",
                 f"written_at\t{perf_counter()!r}"]
        lines += [f"counter\t{k}\t{v!r}" for k, v in sorted(self.counters.items())]
        lines += [
            f"span\t{i}\t{name}\t{start!r}\t{end!r}\t{parent}"
            for i, name, start, end, parent in self.spans
        ]
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0
