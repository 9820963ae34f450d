"""Layer spans recorded from the benchmark's side of each public call.

The traced run patches the public entry points of every ``repro``
layer (see ``design.json``) with thin wrappers that open a span, call
through, and close it.  Nothing inside ``src/`` changes: the spans sit
around calls *into* a layer, so a layer's self time is the time spent
below its public functions minus the time of wrapped calls they made
into other layers.

Spans are kept in memory in flat integer arrays (name, start, end,
parent, cell) and written out once, when the run ends.  A wrapper that
is entered while its own layer is already the innermost open span calls
straight through, so a layer calling its own public functions (a
``super().decide`` or ``trace_source`` -> ``trace_data``) is one span.

Grid cells run in ``run_job_grid``'s worker processes.  For those the
parent swaps the scheduler's shard entry point for :func:`execute_shard`,
which records the same spans inside the worker (and captures each
cell's ``SimulationStats`` counts) and writes them to a directory the
parent reads after the batch.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Environment variables that carry the worker hook's settings into
#: pool processes (inherited under both fork and spawn).
HOOK_DIR_ENV = "PERFBENCH_HOOK_DIR"
HOOK_TRACE_ENV = "PERFBENCH_HOOK_TRACE"

class SpanRecorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.cells: List[str] = []
        self._cell_ids: Dict[str, int] = {}
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.cell = array.array("q")
        self._stack: List[int] = []
        self._layers: List[str] = []
        #: Layer of the innermost open span ("" when none is open).
        self.top = ""
        self.cell_id = -1
        #: Work counted at the wrapped boundaries (refs, events, ...).
        self.counts: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def set_cell(self, cell: str) -> None:
        """Tag every span opened from now on with ``cell``."""
        found = self._cell_ids.get(cell)
        if found is None:
            found = self._cell_ids[cell] = len(self.cells)
            self.cells.append(cell)
        self.cell_id = found

    def open(self, name_id: int, layer: str) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self.cell_id)
        self.end.append(0)
        self._stack.append(index)
        self._layers.append(layer)
        self.top = layer
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()
        self._layers.pop()
        self.top = self._layers[-1] if self._layers else ""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.name_id(name), name.split(".", 1)[0])
        try:
            yield
        finally:
            self.close(index)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            for key in ("name", "start", "end", "parent", "cell")
        }

    def save(self, path: str) -> None:
        """Write every span (and the counts) to one ``.npz`` file."""
        meta = {"names": self.names, "cells": self.cells, "counts": self.counts}
        np.savez(path, meta=np.array(json.dumps(meta)), **self.arrays())

    def summary(self) -> Dict[str, Any]:
        """Per-layer self time and calls, per-cell time, and counts."""
        return summarize(self.names, self.cells, self.counts, self.arrays())


def summarize(names: List[str], cells: List[str], counts: Dict[str, int],
              spans: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Reduce one process's spans to additive totals.

    A span's self time is its duration minus the durations of its
    direct children, so the self times of all spans partition the root
    spans' time.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    own = duration.copy()
    np.subtract.at(own, parent[nested], duration[nested])
    layers: Dict[str, Dict[str, int]] = {}
    by_name: Dict[str, Dict[str, int]] = {}
    for index, name in enumerate(names):
        mask = spans["name"] == index
        by_name[name] = {"calls": int(mask.sum()), "ns": int(duration[mask].sum())}
        layer = layers.setdefault(name.split(".", 1)[0], {"calls": 0, "self_ns": 0})
        layer["calls"] += by_name[name]["calls"]
        layer["self_ns"] += int(own[mask].sum())
    cell_ns: Dict[str, int] = {}
    if "cell" in names:
        for index in np.flatnonzero(spans["name"] == names.index("cell")):
            key = cells[spans["cell"][index]]
            cell_ns[key] = cell_ns.get(key, 0) + int(duration[index])
    return {"layers": layers, "names": by_name, "cell_ns": cell_ns,
            "counts": dict(counts)}


def load_summary(path: str) -> Dict[str, Any]:
    with np.load(path) as archive:
        meta = json.loads(str(archive["meta"]))
        spans = {key: archive[key] for key in ("name", "start", "end", "parent", "cell")}
    return summarize(meta["names"], meta["cells"], meta["counts"], spans)


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-process summaries (spans never cross processes)."""
    merged: Dict[str, Any] = {"layers": {}, "names": {}, "cell_ns": {}, "counts": {}}
    for summary in summaries:
        for section in ("layers", "names"):
            for key, values in summary[section].items():
                target = merged[section].setdefault(key, dict.fromkeys(values, 0))
                for field, value in values.items():
                    target[field] += value
        for section in ("cell_ns", "counts"):
            for key, value in summary[section].items():
                merged[section][key] = merged[section].get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

class _TracedIter:
    """Iterator proxy that spans each ``next`` (event-stream iteration)."""

    __slots__ = ("_it", "_rec", "_name_id", "_layer", "_count")

    def __init__(self, it, rec: SpanRecorder, name_id: int, layer: str,
                 count: Optional[str]):
        self._it = it
        self._rec = rec
        self._name_id = name_id
        self._layer = layer
        self._count = count

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self):
        rec = self._rec
        if rec.top == self._layer:
            return next(self._it)
        index = rec.open(self._name_id, self._layer)
        try:
            event = next(self._it)
        finally:
            rec.close(index)
        if self._count:
            rec.counts[self._count] = rec.counts.get(self._count, 0) + 1
        return event


def _refs_in_arg(args, kwargs, result) -> int:
    # access(node, line, ...) takes one reference; access_*batch* an array
    lines = args[2] if len(args) > 2 else kwargs.get("lines")
    return len(lines) if hasattr(lines, "__len__") else 1


def _refs_in_result(args, kwargs, result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _wrap_call(fn: Callable, rec: SpanRecorder, name: str, layer: str,
               count: Optional[Tuple[str, Callable]]) -> Callable:
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.top == layer:
            return fn(*args, **kwargs)
        index = rec.open(name_id, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            key, measure = count
            rec.counts[key] = rec.counts.get(key, 0) + measure(args, kwargs, result)
        return result

    return wrapper


def _wrap_iter(fn: Callable, rec: SpanRecorder, name: str, layer: str,
               count: Optional[str]) -> Callable:
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TracedIter(fn(*args, **kwargs), rec, name_id, layer, count)

    return wrapper


def _targets() -> List[Tuple[type, str, str, str, Any]]:
    """(class, method, layer, kind, count) for every wrapped public call.

    ``kind`` is ``"call"`` or ``"iter"`` (the method returns an event
    iterator whose every ``next`` is a span).  Subclasses that override
    a wrapped method are wrapped too.
    """
    from repro.cache import ResultStore, TraceStore
    from repro.cache.tracestore import _ReplayTrace
    from repro.core.policies import OffloadPolicy
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.offload.oscore import OsCorePool
    from repro.service.arrivals import ArrivalSchedule
    from repro.service.latency import LatencyAccumulator
    from repro.workloads.generator import TraceGenerator

    accesses = ("user_accesses", "os_accesses",
                "user_code_accesses", "os_code_accesses")
    refs = ("memory.refs", _refs_in_arg)
    generated = ("workloads.refs_generated", _refs_in_result)
    out: List[Tuple[type, str, str, str, Any]] = [
        (MemoryHierarchy, attr, "memory", "call", refs)
        for attr in sorted(vars(MemoryHierarchy))
        if attr.startswith("access") and callable(vars(MemoryHierarchy)[attr])
    ]
    out.append((TraceGenerator, "events", "workloads", "iter", "workloads.events"))
    out.extend((TraceGenerator, attr, "workloads", "call", generated) for attr in accesses)
    out.extend((TraceStore, attr, "cache", "call", None) for attr in (
        "trace_source", "trace_data", "priming_events", "columnar_bundle"))
    out.append((_ReplayTrace, "events", "cache", "iter", None))
    out.extend((_ReplayTrace, attr, "cache", "call", None)
               for attr in accesses + ("data_keys", "code_keys"))
    out.extend((ResultStore, attr, "cache", "call", None) for attr in ("get", "put"))
    out.extend((OffloadPolicy, attr, "core", "call", None) for attr in ("decide", "observe"))
    out.extend((OsCorePool, attr, "offload", "call", None) for attr in ("serve", "admit"))
    out.append((ArrivalSchedule, "next_arrival", "service", "call", None))
    out.append((LatencyAccumulator, "record", "service", "call", None))
    expanded = []
    for cls, attr, layer, kind, count in out:
        for klass in _with_subclasses(cls):
            if attr in vars(klass):
                expanded.append((klass, attr, layer, kind, count))
    return expanded


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


@contextlib.contextmanager
def layer_spans(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer's public calls to record into ``rec``."""
    patched: List[Tuple[type, str, Any]] = []
    try:
        for cls, attr, layer, kind, count in _targets():
            original = vars(cls)[attr]
            name = f"{layer}.{cls.__name__}.{attr}"
            if kind == "iter":
                wrapper = _wrap_iter(original, rec, name, layer, count)
            else:
                wrapper = _wrap_call(original, rec, name, layer, count)
            patched.append((cls, attr, original))
            setattr(cls, attr, wrapper)
        yield rec
    finally:
        for cls, attr, original in reversed(patched):
            setattr(cls, attr, original)


# ----------------------------------------------------------------------
# stats counts (the "from stats" per-layer metrics)
# ----------------------------------------------------------------------

def stats_counts(stats) -> Dict[str, int]:
    """Additive ROI counters of one cell's ``SimulationStats``."""
    l1 = list(stats.l1.values()) + list(stats.l1i.values())
    l2 = list(stats.l2.values())
    return {
        "instructions": int(stats.total_instructions),
        "l1_hits": sum(s.hits for s in l1),
        "l1_accesses": sum(s.accesses for s in l1),
        "l2_hits": sum(s.hits for s in l2),
        "l2_misses": sum(s.misses for s in l2),
        "c2c": stats.coherence.cache_to_cache_transfers,
        "invalidations": stats.coherence.invalidations,
        "os_entries": stats.offload.os_entries,
        "offloads": stats.offload.offloads,
        "queue_delay_total": stats.offload.queue_delay_total,
        "queue_delay_events": stats.offload.queue_delay_events,
        "predictions": stats.predictor.predictions,
        "exact": stats.predictor.exact,
    }


def add_counts(total: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
# worker hook
# ----------------------------------------------------------------------

@contextlib.contextmanager
def worker_hook(directory: str, trace: bool) -> Iterator[None]:
    """Route ``run_job_grid``'s pool shards through :func:`execute_shard`."""
    from repro.runner import scheduler

    original = scheduler.execute_shard
    saved = {key: os.environ.get(key) for key in (HOOK_DIR_ENV, HOOK_TRACE_ENV)}
    os.environ[HOOK_DIR_ENV] = directory
    os.environ[HOOK_TRACE_ENV] = "1" if trace else "0"
    scheduler.execute_shard = execute_shard
    try:
        yield
    finally:
        scheduler.execute_shard = original
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def execute_shard(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Worker side of :func:`worker_hook`: run a shard, record, dump.

    Always captures each cell's stats counts (baselines excluded, as
    they go through ``simulate_baseline``); with tracing on it also
    records layer spans, one ``cell`` span per job and a
    ``runner.baseline`` span around each baseline simulation.
    """
    from repro.runner import worker

    directory = os.environ[HOOK_DIR_ENV]
    trace = os.environ.get(HOOK_TRACE_ENV) == "1"
    rec = SpanRecorder()
    captured: Dict[str, Dict[str, int]] = {}
    current = {"job": ""}
    simulate, baseline = worker.simulate, worker.simulate_baseline

    def capture(*args, **kwargs):
        result = simulate(*args, **kwargs)
        captured[current["job"]] = stats_counts(result.stats)
        return result

    def traced_baseline(*args, **kwargs):
        with rec.span("runner.baseline"):
            return baseline(*args, **kwargs)

    worker.simulate = capture
    if trace:
        worker.simulate_baseline = traced_baseline
    records = []
    try:
        with layer_spans(rec) if trace else contextlib.nullcontext():
            for payload in payloads:
                job_id = payload["job"]["job_id"]
                current["job"] = job_id
                rec.set_cell(job_id)
                with rec.span("cell"):
                    records.append(worker.execute_job(payload))
    finally:
        worker.simulate, worker.simulate_baseline = simulate, baseline
    stem = os.path.join(directory, f"{os.getpid()}-{time.perf_counter_ns()}")
    if trace:
        rec.save(stem + ".npz")
    with open(stem + ".json", "w") as handle:
        json.dump(captured, handle)
    return records


def read_hook_dir(directory: str) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Any]]:
    """Stats counts per job and the merged span summary of a hooked batch."""
    captured: Dict[str, Dict[str, int]] = {}
    summaries = []
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if entry.endswith(".json"):
            with open(path) as handle:
                captured.update(json.load(handle))
        elif entry.endswith(".npz"):
            summaries.append(load_summary(path))
    return captured, merge_summaries(summaries)
