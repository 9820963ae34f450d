"""Benchmark driver: three workloads over the paper's cells, end to end.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace T``
runs workload ``W`` (``closed-warm``, ``open-loop`` or ``grid-cold``;
their cells and the reasons for them are in ``perfbench/design.json``)
against the program in ``src/`` of the checkout it sits in.

One run:

1. set-up, timed at least ``SETUP_REPEATS`` times from a fresh state: a fresh
   interpreter imports the program, then a fresh on-disk ``TraceStore``
   is filled through its public calls (or an empty cache directory is
   made); ``setup_s`` is the median;
2. passes over the workload's fixed cell set until ``--seconds`` is
   spent; ``run_s`` is the median pass (in-process workloads: the sum
   of each cell's median over the passes, so that a slow stretch of the
   host costs one cell's sample, not a pass);
3. with ``--trace 1``, one more pass with layer spans on (see
   :mod:`perfbench.tracing`), which gives the per-layer metrics;
4. the identity gate: every cell output of every pass must equal the
   scalar engine's output for the same cell and seed (computed once
   per seed, outside the timed regions, and kept under the state
   directory), and every in-process result must pass
   ``repro.sim.validate.validate_result``.

Every time reported (``setup_s``, ``run_s``, the ``sim_kips`` made from
``run_s``, ``trace_overhead``) is host seconds at a reference host
speed: each interval is corrected by a calibration loop timed next to
it (see :mod:`perfbench.speed`).  The raw wall times are printed too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed cell makes the
exit code 1; a layer that records no calls on a workload the design
says it works on makes the traced run exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.speed import StepTimer

ROOT = Path(__file__).resolve().parent.parent
DESIGN_PATH = Path(__file__).resolve().parent / "design.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: Fresh set-ups timed per run: at least this many, and until
#: SETUP_SECONDS have passed; ``setup_s`` takes their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
#: Calibration loops timed between in-process cells and set-up steps;
#: their median is the host speed there (see perfbench.speed).
CAL_LOOPS = 3
#: Calibration loops before and after each grid pass.
GRID_CAL_LOOPS = 10
#: What a fresh interpreter imports during set-up: the program and the
#: modules the workloads drive.
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import repro.experiments.common, repro.sim.simulator")
#: Per-cell wall-clock limit; a cell that exceeds it counts as failed.
CELL_TIMEOUT_S = 60.0
#: Every cell runs the paper's HI policy; N=100 unless a grid sweeps it.
POLICY = "HI"
THRESHOLD = 100
#: The closed-warm cell on which wrapper spans are cross-checked
#: against the program's own ``sim.mem.*`` spans.
XCHECK_CELL = "apache-1"

class CellTimeout(Exception):
    """A cell exceeded :data:`CELL_TIMEOUT_S`."""


class CoverageError(Exception):
    """A layer recorded no calls where the design says it works."""


@contextlib.contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclasses.dataclass
class Outcome:
    """One cell execution: its comparable output, or why it failed."""

    cell: str
    output: Any = None
    error: Optional[str] = None
    result: Any = None  # the SimulationResult of an in-process cell
    seconds: float = 0.0
    #: ``seconds`` at the reference host speed (see :mod:`perfbench.speed`)
    ref_seconds: float = 0.0


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulate_cell(spec, config, trace_store=None, profiler=None):
    """One in-process cell: HI at N=THRESHOLD, 100-cycle migration."""
    from repro.offload.migration import AGGRESSIVE
    from repro.sim.simulator import make_policy, simulate

    policy = make_policy(POLICY, threshold=THRESHOLD, migration=AGGRESSIVE)
    return simulate(spec, policy, AGGRESSIVE, config,
                    trace_store=trace_store, profiler=profiler)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class InProcessWorkload:
    """closed-warm and open-loop: serial ``simulate`` calls on a warm store."""

    def __init__(self, name: str, design: Dict[str, Any], seed: int, profile):
        from repro.service.config import ServiceConfig
        from repro.sim.config import SimulatorConfig
        from repro.workloads.presets import get_workload

        self.name = name
        self.cells: List[Tuple[str, Any, Any]] = []
        for cell in design["workloads"][name]["cells"]:
            service = ServiceConfig()
            if "load" in cell:
                service = ServiceConfig(
                    arrivals="poisson",
                    mean_interarrival_cycles=1000.0 / cell["load"],
                    os_cores=cell["os_cores"],
                    dispatch="shortest",
                )
            config = SimulatorConfig(
                profile=profile, seed=seed,
                num_user_cores=cell["user_cores"], service=service,
            )
            self.cells.append((cell["id"], get_workload(cell["workload"]), config))

    def setup(self, directory: Path, rec=None, step=None) -> Dict[str, int]:
        """Fill a fresh on-disk trace store with every cell's streams;
        ``step`` is called after each cell."""
        from repro.cache import TraceStore

        store = TraceStore(str(directory))
        for cell_id, spec, config in self.cells:
            # The engine requests (warm-up + ROI) * 2 + 1 instructions
            # per context: its generation slack.
            budget = (config.profile.scaled_warmup + config.profile.scaled_roi) * 2 + 1
            if rec is not None:
                rec.set_cell(cell_id)
            with rec.span("setup.fill") if rec is not None else contextlib.nullcontext():
                for thread in range(config.num_user_cores):
                    store.trace_data(spec, config, thread, budget)
                store.priming_events(spec, config)
            if step is not None:
                step()
        return dict(store.counters)

    def run_pass(self, directory: Path, rec=None) -> Tuple[List[Outcome], Dict[str, int]]:
        """One pass; the calibration loop runs between cells, so each
        cell's time is corrected by the host speed around it."""
        from repro.cache import TraceStore

        store = TraceStore(str(directory))
        outcomes = []
        timer = StepTimer(CAL_LOOPS)
        for cell_id, spec, config in self.cells:
            if rec is not None:
                rec.set_cell(cell_id)
            outcome = Outcome(cell_id)
            try:
                with deadline(CELL_TIMEOUT_S):
                    with rec.span("cell") if rec is not None else contextlib.nullcontext():
                        outcome.result = simulate_cell(spec, config, trace_store=store)
            except Exception as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.seconds, outcome.ref_seconds = timer.step()
            outcomes.append(outcome)
        return outcomes, dict(store.counters)

    def run_seconds(self, pass_results: List[Tuple[List[Outcome], Any]]) -> float:
        """Sum over cells of each cell's median time at the reference speed."""
        cells: Dict[str, List[float]] = {}
        for outcomes, _ in pass_results:
            for outcome in outcomes:
                cells.setdefault(outcome.cell, []).append(outcome.ref_seconds)
        return sum(median(times) for times in cells.values())

    def finish(self, outcomes: List[Outcome]) -> None:
        """Turn results into comparable outputs; validate each one."""
        from repro.sim.validate import validate_result

        for outcome in outcomes:
            if outcome.result is None or outcome.output is not None:
                continue
            try:
                validate_result(outcome.result)
            except Exception as error:
                outcome.error = f"validate_result: {error}"
                continue
            outcome.output = in_process_output(outcome.result)

    def traced_pass(self, work: Path, store: Path) -> Dict[str, Any]:
        """One pass with layer spans on; the store fill is traced too."""
        from perfbench.tracing import SpanRecorder, add_counts, layer_spans, stats_counts

        rec = SpanRecorder()
        directory = work / "traced-store"
        with layer_spans(rec):
            cache = self.setup(directory, rec)
            outcomes, counters = self.run_pass(directory, rec)
        seconds = self.run_seconds([(outcomes, counters)])
        shutil.rmtree(directory, ignore_errors=True)
        add_counts(cache, counters)
        stats: Dict[str, int] = {}
        p99 = 0
        for outcome in outcomes:
            if outcome.result is not None:
                add_counts(stats, stats_counts(outcome.result.stats))
                if outcome.result.latency is not None:
                    p99 = max(p99, outcome.result.latency.p99)
        extra = {"service.p99_cycles": p99}
        if self.name == "closed-warm":
            extra["memory.self_s_xcheck"], outcome = self.memory_cross_check(store)
            outcomes.append(outcome)
        return {"outcomes": outcomes, "seconds": seconds, "summary": rec.summary(),
                "stats": stats, "cache": cache, "extra": extra, "recorder": rec,
                "hook_dir": None}

    def memory_cross_check(self, store: Path) -> Tuple[float, Outcome]:
        """Wrapper-measured memory self time vs. the program's ``sim.mem.*``
        spans, on one cell run with both on; returns wrapper / program - 1."""
        from repro.cache import TraceStore
        from repro.obs.spans import SpanProfiler, flatten_self_times
        from perfbench.tracing import SpanRecorder, layer_spans

        cell_id, spec, config = next(c for c in self.cells if c[0] == XCHECK_CELL)
        rec = SpanRecorder()
        profiler = SpanProfiler()
        with layer_spans(rec):
            result = simulate_cell(spec, config, TraceStore(str(store)), profiler)
        wrapped = rec.summary()["layers"].get("memory", {}).get("self_ns", 0)
        inside = sum(ns for name, ns in flatten_self_times(profiler.to_dict()).items()
                     if name.startswith("sim.mem."))
        return ratio(wrapped, inside) - 1.0, Outcome(cell_id, result=result)

    def reference(self, work: Path) -> Dict[str, Any]:
        """Scalar-engine outputs, generated live (no trace store)."""
        outputs, instructions = {}, {}
        for cell_id, spec, config in self.cells:
            with deadline(CELL_TIMEOUT_S * 4):
                result = simulate_cell(spec, dataclasses.replace(config, engine="scalar"))
            outputs[cell_id] = in_process_output(result)
            instructions[cell_id] = result.stats.total_instructions
        return {"outputs": outputs, "instructions": instructions}


def in_process_output(result) -> Dict[str, Any]:
    """The complete ``SimulationStats`` (and ``LatencyStats``), JSON-safe."""
    output = {"stats": dataclasses.asdict(result.stats)}
    if result.latency is not None:
        output["latency"] = result.latency.to_dict()
    return json.loads(canonical(output))


def grid_cell_id(workload: str, latency: int, threshold: int) -> str:
    return f"{workload}-l{latency}-n{threshold}"


def design_cell_ids(entry: Dict[str, Any]) -> List[str]:
    """Cell ids of one design.json workload entry, in run order."""
    if "cells" in entry:
        return [cell["id"] for cell in entry["cells"]]
    grid = entry["grid"]
    return [grid_cell_id(workload, latency, threshold)
            for workload in grid["workloads"]
            for latency in grid["latencies"]
            for threshold in grid["thresholds"]]


@dataclasses.dataclass
class GridPass:
    """One ``run_job_grid`` call: its batch, its wall seconds and those
    seconds at the reference speed."""

    batch: Any
    seconds: float
    ref_seconds: float


class GridWorkload:
    """grid-cold: a Fig. 4-shaped grid through ``run_job_grid``, cold."""

    def __init__(self, design: Dict[str, Any], seed: int, profile):
        from repro.runner import JobSpec
        from repro.sim.config import SimulatorConfig

        entry = design["workloads"]["grid-cold"]
        grid = entry["grid"]
        self.name = "grid-cold"
        self.jobs = int(entry["jobs"])
        self.config = SimulatorConfig(profile=profile, seed=seed)
        self.specs = [
            JobSpec(workload=workload, policy=POLICY, threshold=threshold, latency=latency)
            for workload in grid["workloads"]
            for latency in grid["latencies"]
            for threshold in grid["thresholds"]
        ]
        self.ids = {
            spec.resolved(seed).job_id: grid_cell_id(spec.workload, spec.latency, spec.threshold)
            for spec in self.specs
        }

    def setup(self, directory: Path, rec=None, step=None) -> Dict[str, int]:
        directory.mkdir(parents=True)
        if step is not None:
            step()
        return {}

    def run_pass(self, directory: Path, rec=None) -> Tuple[List[Outcome], "GridPass"]:
        """One pass, corrected by calibration loops timed just before and
        after it.  The cells run in pool workers, so no loop can run in
        their processes; a loop run here during the pass would measure
        the workers' load on the CPUs, not the host."""
        from repro.experiments.common import run_job_grid

        timer = StepTimer(GRID_CAL_LOOPS)
        batch = run_job_grid(
            self.specs, self.config, jobs=self.jobs,
            cache_dir=str(directory), timeout_s=CELL_TIMEOUT_S,
        )
        return self._outcomes(batch), GridPass(batch, *timer.step())

    def _outcomes(self, batch) -> List[Outcome]:
        outcomes = []
        for result in batch:
            cell_id = self.ids[result.job_id]
            if result.ok:
                output = json.loads(canonical(result.metrics))
                outcomes.append(Outcome(cell_id, output=output, seconds=result.duration_s))
            else:
                outcomes.append(Outcome(cell_id, error=result.error, seconds=result.duration_s))
        return outcomes

    def run_seconds(self, pass_results: List[Tuple[List[Outcome], "GridPass"]]) -> float:
        """The median pass at the reference speed."""
        return median([grid_pass.ref_seconds for _, grid_pass in pass_results])

    def finish(self, outcomes: List[Outcome]) -> None:
        pass

    def traced_pass(self, work: Path, store: Path) -> Dict[str, Any]:
        """One grid pass with layer spans recorded inside the workers."""
        from perfbench.tracing import SpanRecorder, add_counts, merge_summaries, read_hook_dir, worker_hook

        rec = SpanRecorder()
        hook_dir = work / "traced-hook"
        hook_dir.mkdir()
        directory = work / "traced-cache"
        self.setup(directory)
        with worker_hook(str(hook_dir), trace=True):
            with rec.span("runner.run_job_grid"):
                outcomes, grid_pass = self.run_pass(directory)
        batch = grid_pass.batch
        seconds = self.run_seconds([(outcomes, grid_pass)])
        captured, workers = read_hook_dir(str(hook_dir))
        stats: Dict[str, int] = {}
        for counts in captured.values():
            add_counts(stats, counts)
        summary = merge_summaries([rec.summary(), workers])
        summary["cell_ns"] = {self.ids[job_id]: ns for job_id, ns in summary["cell_ns"].items()}
        cache: Dict[str, int] = {}
        for result in batch:
            add_counts(cache, result.cache_counters)
        busy = sum(result.duration_s for result in batch)
        extra = {
            "runner.cells": len(batch),
            "runner.busy_s": busy,
            "runner.utilization": ratio(busy, self.jobs * grid_pass.seconds),
            "runner.retries": batch.retries,
        }
        return {"outcomes": outcomes, "seconds": seconds, "summary": summary,
                "stats": stats, "cache": cache, "extra": extra, "recorder": rec,
                "hook_dir": hook_dir}

    def reference(self, work: Path) -> Dict[str, Any]:
        """Scalar-engine ``JobResult.metrics`` plus each cell's ROI
        instruction count (captured in the workers by the hook)."""
        from repro.experiments.common import run_job_grid
        from perfbench.tracing import read_hook_dir, worker_hook

        hook_dir = work / "reference-hook"
        hook_dir.mkdir()
        scalar = dataclasses.replace(self.config, engine="scalar")
        with worker_hook(str(hook_dir), trace=False):
            batch = run_job_grid(
                self.specs, scalar, jobs=self.jobs, timeout_s=CELL_TIMEOUT_S * 4,
            )
        batch.raise_on_failures()
        captured, _ = read_hook_dir(str(hook_dir))
        return {
            "outputs": {o.cell: o.output for o in self._outcomes(batch)},
            "instructions": {
                self.ids[job_id]: counts["instructions"]
                for job_id, counts in captured.items()
            },
        }


# ----------------------------------------------------------------------
# reference store
# ----------------------------------------------------------------------

def program_digest() -> str:
    """Hash of the program source and the benchmark design."""
    digest = hashlib.sha256(DESIGN_PATH.read_bytes())
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_reference(bench, state: Path, seed: int, profile_name: str, work: Path) -> Dict[str, Any]:
    """The per-seed scalar reference, computed on first use and kept."""
    path = state / "ref" / f"{bench.name}-{profile_name}-seed{seed}-{program_digest()}.json"
    if path.exists():
        with open(path) as handle:
            return json.load(handle)
    reference = bench.reference(work)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_suffix(f".{os.getpid()}.tmp")
    with open(temporary, "w") as handle:
        json.dump(reference, handle, sort_keys=True)
    os.replace(temporary, path)
    return reference


def gate(outcomes: List[Outcome], reference: Dict[str, Any]) -> List[str]:
    """Failure messages for every outcome that is not the reference."""
    failures = []
    for outcome in outcomes:
        if outcome.error is not None:
            failures.append(f"{outcome.cell}: {outcome.error}")
        elif canonical(outcome.output) != canonical(reference["outputs"].get(outcome.cell)):
            failures.append(f"{outcome.cell}: output differs from the scalar reference")
    return failures


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(summary: Dict[str, Any], stats: Dict[str, int],
                  cache: Dict[str, int], extra: Dict[str, float]) -> Dict[str, float]:
    layers = summary["layers"]
    counts = summary["counts"]

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_ns", 0) / 1e9

    def name_calls(suffix: str) -> int:
        return sum(v["calls"] for k, v in summary["names"].items() if k.endswith(suffix))

    refs = counts.get("memory.refs", 0)
    events = counts.get("workloads.events", 0)
    decisions = name_calls(".decide")
    l1 = stats.get("l1_accesses", 0)
    out = {
        "memory.calls": calls("memory"),
        "memory.refs": refs,
        "memory.self_s": self_s("memory"),
        "memory.ns_per_ref": ratio(self_s("memory") * 1e9, refs),
        "memory.l1_hit_ratio": ratio(stats.get("l1_hits", 0), l1),
        "memory.l2_hit_ratio": ratio(
            stats.get("l2_hits", 0), stats.get("l2_hits", 0) + stats.get("l2_misses", 0)),
        # every L2 miss is served either cache-to-cache or by DRAM
        "memory.dram_per_kref": ratio(
            1000 * (stats.get("l2_misses", 0) - stats.get("c2c", 0)), l1),
        "memory.coherence_per_kref": ratio(
            1000 * (stats.get("c2c", 0) + stats.get("invalidations", 0)), l1),
        "workloads.events": events,
        "workloads.refs_generated": counts.get("workloads.refs_generated", 0),
        "workloads.self_s": self_s("workloads"),
        "workloads.us_per_event": ratio(self_s("workloads") * 1e6, events),
        "cache.self_s": self_s("cache"),
        "core.decisions": decisions,
        "core.self_s": self_s("core"),
        "core.ns_per_decision": ratio(self_s("core") * 1e9, decisions),
        "core.offload_ratio": ratio(stats.get("offloads", 0), stats.get("os_entries", 0)),
        "core.predictor_exact_ratio": ratio(stats.get("exact", 0), stats.get("predictions", 0)),
        "offload.pool_calls": calls("offload"),
        "offload.pool_self_s": self_s("offload"),
        "offload.engine_self_s": self_s("cell"),
        "offload.mean_queue_delay_cycles": ratio(
            stats.get("queue_delay_total", 0), stats.get("queue_delay_events", 0)),
        "service.requests": name_calls("LatencyAccumulator.record"),
        "service.self_s": self_s("service"),
        "runner.baseline_s": summary["names"].get("runner.baseline", {}).get("ns", 0) / 1e9,
    }
    for key in ("trace_hits", "trace_misses", "bytes_read", "bytes_written",
                "result_hits", "result_misses"):
        out[f"cache.{key}"] = cache.get(key, 0)
    out.update(extra)
    return out


def check_coverage(design: Dict[str, Any], workload: str, summary: Dict[str, Any]) -> None:
    missing = [
        layer for layer, entry in design["layers"].items()
        if workload in entry["works_on"]
        and summary["layers"].get(layer, {}).get("calls", 0) == 0
    ]
    if missing:
        raise CoverageError(
            f"layers {missing} recorded no calls on {workload}, where the "
            "design says they work: a wrapped public call was routed around"
        )


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def parse_args(argv: List[str], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "test"), default="default",
                        help="ScaleProfile of every cell (test: the smoke tests' TEST_SCALE)")
    parser.add_argument("--state", default=str(ROOT / ".perfbench"),
                        help="directory for references, spans and scratch stores")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main(argv: List[str]) -> int:
    with open(DESIGN_PATH) as handle:
        design = json.load(handle)
    args = parse_args(argv, list(design["workloads"]))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro
    import repro.experiments.common  # noqa: F401  (the grid's import cost)
    import repro.sim.simulator  # noqa: F401

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from repro.sim.config import DEFAULT_SCALE, TEST_SCALE

    with open(BENCHMARK_PATH) as handle:
        declared = json.load(handle)
    profile = TEST_SCALE if args.scale == "test" else DEFAULT_SCALE
    if args.workload == "grid-cold":
        bench: Any = GridWorkload(design, args.seed, profile)
    else:
        bench = InProcessWorkload(args.workload, design, args.seed, profile)

    state = Path(args.state).resolve()
    work = state / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, design, declared, bench, state, work)
    except CoverageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, design, declared, bench, state: Path, work: Path) -> int:
    # 1. set-up, timed from a fresh state each time
    setups: List[float] = []
    began = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        if setups:
            shutil.rmtree(store)
        store = work / f"setup-{len(setups)}"
        gc.collect()
        timer = StepTimer(CAL_LOOPS)
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(ROOT / "src")], check=True)
        timer.step()
        bench.setup(store, step=timer.step)
        setups.append(timer.seconds)
    setup_s = median(setups)

    # 2. timed passes over the fixed cell set until --seconds are spent
    grid = isinstance(bench, GridWorkload)
    walls: List[float] = []
    outcomes: List[Outcome] = []
    pass_results = []
    began = time.perf_counter()
    while True:
        directory = store
        if grid:
            directory = work / f"pass-{len(walls)}"
            bench.setup(directory)
        gc.collect()
        tick = time.perf_counter()
        pass_outcomes, detail = bench.run_pass(directory)
        walls.append(time.perf_counter() - tick)
        outcomes.extend(pass_outcomes)
        pass_results.append((pass_outcomes, detail))
        if grid:
            shutil.rmtree(directory, ignore_errors=True)
        if time.perf_counter() - began + statistics.mean(walls) > args.seconds:
            break
    rss_mb = peak_rss_mb()
    run_s = bench.run_seconds(pass_results)

    # 3. the traced pass
    traced = None
    if args.trace:
        traced = bench.traced_pass(work, store)
        outcomes.extend(traced["outcomes"])

    # 4. the identity gate
    bench.finish(outcomes)
    reference = load_reference(bench, state, args.seed, args.scale, work)
    failures = gate(outcomes, reference)
    instructions = sum(reference["instructions"].values())

    fail_ratio = len(failures) / len(outcomes)
    end_to_end = {
        "setup_s": setup_s,
        "run_s": run_s,
        "sim_kips": instructions / run_s / 1000.0,
        "peak_rss_mb": rss_mb,
    }
    print(f"{bench.name} seed={args.seed} scale={args.scale}: "
          f"{len(walls)} passes of {len(pass_results[0][0])} cells "
          f"({', '.join(f'{t:.3f}' for t in walls)} s wall)")
    if grid:
        print("  at reference speed: " + ", ".join(
            f"{grid_pass.ref_seconds:.3f}" for _, grid_pass in pass_results) + " s")
    for cell in [o.cell for o in pass_results[0][0]]:
        times = [o.seconds for pass_outcomes, _ in pass_results
                 for o in pass_outcomes if o.cell == cell]
        print(f"  cell {cell:<26} " + " ".join(f"{t:.3f}" for t in times) + " s wall")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in end_to_end.items():
        print(f"  {name:<12} {value:12.4f} {units.get(name, '')}")
    print(f"  {'fail_ratio':<12} {fail_ratio:12.4f} ratio ({len(failures)}/{len(outcomes)} cells)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)

    if args.trace:
        check_coverage(design, bench.name, traced["summary"])
        metrics = per_layer(design, bench, traced, run_s)
        save_spans(state, bench.name, args, traced)
        for name in sorted(metrics):
            if not name.startswith("cell."):
                print(f"  {name:<34} {metrics[name]:14.6g} {units.get(name, '')}")
    else:
        metrics = end_to_end
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics {missing} are declared in BENCHMARK.json but not computed")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in names},
    }))
    return 1 if failures else 0


def per_layer(design, bench, traced: Dict[str, Any], run_s: float) -> Dict[str, float]:
    extra = {
        "runner.cells": 0, "runner.busy_s": 0.0, "runner.utilization": 0.0,
        "runner.retries": 0, "service.p99_cycles": 0, "memory.self_s_xcheck": 0.0,
        "trace_overhead": traced["seconds"] / run_s - 1.0,
    }
    extra.update(traced["extra"])
    metrics = layer_metrics(traced["summary"], traced["stats"], traced["cache"], extra)
    # every workload reports every cell metric; other workloads' are 0
    for workload, entry in design["workloads"].items():
        for cell in design_cell_ids(entry):
            metrics[f"cell.{workload}.{cell}.s"] = 0.0
    cell_ns = traced["summary"]["cell_ns"]
    for cell in design_cell_ids(design["workloads"][bench.name]):
        metrics[f"cell.{bench.name}.{cell}.s"] = cell_ns.get(cell, 0) / 1e9
    return metrics


def save_spans(state: Path, workload: str, args, traced: Dict[str, Any]) -> None:
    """Write the in-process spans (workers wrote theirs already)."""
    directory = state / "spans" / f"{workload}-{args.scale}-seed{args.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    traced["recorder"].save(str(directory / "driver.npz"))
    if traced["hook_dir"] is not None:
        for path in traced["hook_dir"].glob("*.npz"):
            shutil.copy(path, directory / f"worker-{path.name}")
