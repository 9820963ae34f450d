"""Tests for repro.cache: the content-addressed trace & result cache.

The load-bearing property is bit-identity: a simulation that replays a
materialized trace must be indistinguishable — golden stats included —
from one that generates the trace live.  Everything else (corruption
fallback, schema invalidation, concurrent writers, counters, CLI) is
the operational envelope around that guarantee.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib

import numpy as np
import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION,
    ResultStore,
    TraceStore,
    baselines_dir,
    cache_clear,
    cache_gc,
    cache_stats,
    resolve_cache_root,
)
from repro.cache import tracestore
from repro.cache.keys import PRIMING_SEED_OFFSET, TRACE_KIND, trace_key
from repro.cache.paths import CACHE_ENV_VAR, TRACES_SUBDIR
from repro.cache.tracestore import (
    _decode,
    _encode,
    _materialize_priming,
    _materialize_trace,
)
from repro.core.threshold import DynamicThresholdController
from repro.experiments.common import run_job_grid
from repro.obs.metrics import MetricsRegistry
from repro.offload import OffloadEngine, SMTOffloadEngine
from repro.offload.phases import generation_budget
from repro.runner import JobSpec, worker
from repro.runner.jobspec import config_to_payload
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate
from repro.workloads.base import OSInvocation
from repro.workloads.presets import get_workload

from tests.goldens.regen import GOLDEN_CELLS, golden_path, run_cell


@pytest.fixture(autouse=True)
def _fresh_worker_state():
    """Isolate the worker's per-process memos from other tests."""
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    yield
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()


def _store_root(tmp_path: pathlib.Path) -> str:
    return str(tmp_path / "cache")


# ----------------------------------------------------------------------
# bit-identity against the committed goldens
# ----------------------------------------------------------------------


@pytest.mark.parametrize(("workload", "seed"), GOLDEN_CELLS)
def test_cached_replay_reproduces_goldens(workload, seed, tmp_path):
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    # Cold pass materializes; warm pass replays from the same store's
    # LRU; a fresh store instance replays from disk.
    cold_store = TraceStore(root)
    assert run_cell(workload, seed, "scalar", trace_store=cold_store) == committed
    assert run_cell(workload, seed, "scalar", trace_store=cold_store) == committed
    disk_store = TraceStore(root)
    assert run_cell(workload, seed, "scalar", trace_store=disk_store) == committed
    assert disk_store.counters["trace_misses"] == 0
    assert disk_store.counters["trace_hits"] > 0


def test_cached_replay_batched_engine_matches_goldens(tmp_path):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    store = TraceStore(_store_root(tmp_path))
    assert run_cell(workload, seed, "batched", trace_store=store) == committed
    # The same entries replay into the scalar engine unchanged.
    assert run_cell(workload, seed, "scalar", trace_store=store) == committed


def _run_stats(config: SimulatorConfig, trace_store=None):
    spec = get_workload("apache")
    policy = make_policy("HI", threshold=100, spec=spec, config=config)
    result = simulate(spec, policy, config=config, trace_store=trace_store)
    return dataclasses.asdict(result.stats)


@pytest.mark.parametrize(
    "overrides",
    [
        {"threads_per_user_core": 2, "num_user_cores": 2},
        {"enable_icache": True},
        {"include_window_traps": True},
    ],
    ids=["smt", "icache", "window-traps"],
)
def test_replay_identical_across_configs(overrides, tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, **overrides)
    reference = _run_stats(config)
    root = _store_root(tmp_path)
    assert _run_stats(config, TraceStore(root)) == reference  # materialize
    assert _run_stats(config, TraceStore(root)) == reference  # disk replay


def test_lru_eviction_keeps_replay_correct(tmp_path):
    store = TraceStore(_store_root(tmp_path), max_entries=1)
    for workload, seed in GOLDEN_CELLS[:2]:
        committed = json.loads(golden_path(workload, seed).read_text())
        assert run_cell(workload, seed, "scalar", trace_store=store) == committed
    assert len(store._lru) == 1


# ----------------------------------------------------------------------
# recorded length: the consumed prefix, no more and no less
# ----------------------------------------------------------------------


def _capture_engines(monkeypatch):
    """Collect every engine ``simulate`` runs (SMT inherits ``run``)."""
    engines = []
    original = OffloadEngine.run

    def run(self):
        engines.append(self)
        return original(self)

    monkeypatch.setattr(OffloadEngine, "run", run)
    return engines


def _trace_sources(engine):
    """The trace sources an engine actually advances."""
    if isinstance(engine, SMTOffloadEngine):
        return [t.generator for group in engine._threads for t in group]
    return [ctx.generator for ctx in engine.contexts]


_PREFIX_CELLS = {
    "1-core": ({}, False),
    "4-cores": ({"num_user_cores": 4}, False),
    "smt": ({"threads_per_user_core": 2}, False),
    "open-loop": (
        {
            "num_user_cores": 2,
            "service": ServiceConfig(
                arrivals="poisson", mean_interarrival_cycles=2000.0,
                os_cores=2, dispatch="shortest",
            ),
        },
        False,
    ),
    "dynamic-n": ({}, True),
}


@pytest.mark.parametrize("cell", list(_PREFIX_CELLS))
def test_every_stored_trace_is_consumed_exactly(cell, tmp_path, monkeypatch):
    overrides, dynamic = _PREFIX_CELLS[cell]
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, **overrides)
    spec = get_workload("apache")

    def run(store):
        policy = make_policy("DI" if dynamic else "HI", threshold=100,
                             spec=spec, config=config)
        controller = (
            DynamicThresholdController(config.profile) if dynamic else None
        )
        result = simulate(spec, policy, config=config, controller=controller,
                          trace_store=store)
        return dataclasses.asdict(result.stats)

    live = run(None)
    engines = _capture_engines(monkeypatch)
    assert run(TraceStore(_store_root(tmp_path))) == live
    (engine,) = engines
    sources = _trace_sources(engine)
    assert len(sources) == config.num_user_cores * config.threads_per_user_core
    for source in sources:
        # Each replay ends on the last event its entry recorded.
        assert source._index == len(source._data.events) - 1


def test_full_slack_entries_replay_identically(tmp_path, monkeypatch):
    """Entries recorded to the whole generation budget stay valid.

    Recorders before the consumed-prefix rule stored every event up to
    the engine's ``generation_budget``; such an entry is a superset of
    today's and must replay to the same stats, so the cache schema
    needs no bump.
    """
    config = SimulatorConfig(profile=TEST_SCALE, seed=7, num_user_cores=2)
    spec = get_workload("apache")
    payload = config_to_payload(config)
    budget = generation_budget(config.profile)
    prefix_root = _store_root(tmp_path)
    full_store = TraceStore(str(tmp_path / "full"))
    for thread in range(config.num_user_cores):
        prefix = TraceStore(prefix_root).trace_data(spec, config, thread, budget)
        with monkeypatch.context() as patch:
            patch.setattr(tracestore, "consumed_prefix",
                          lambda events, budgets: events)
            full = _materialize_trace(spec, config.profile, config.seed,
                                      thread, budget, icache=False)
        assert len(full.events) > len(prefix.events)
        assert full.events[:len(prefix.events)] == prefix.events
        np.testing.assert_array_equal(
            full.data_lines[:len(prefix.data_lines)], prefix.data_lines
        )
        full_store._save(trace_key(spec, payload, thread), full)
    reference = _run_stats(config)
    assert _run_stats(config, TraceStore(prefix_root)) == reference
    replay = TraceStore(str(tmp_path / "full"))
    assert _run_stats(config, replay) == reference
    assert replay.counters["trace_misses"] == 1  # the priming stream only


# ----------------------------------------------------------------------
# corruption, truncation, schema invalidation
# ----------------------------------------------------------------------


def _trace_files(root: str, suffix: str):
    directory = pathlib.Path(root) / TRACES_SUBDIR
    return sorted(directory.glob(f"*{suffix}"))


def test_corrupt_npz_falls_back_with_warning(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, "scalar", trace_store=TraceStore(root))
    for npz in _trace_files(root, ".npz"):
        npz.write_bytes(npz.read_bytes()[:100])
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, "scalar", trace_store=store) == committed
    assert any("corrupt trace-cache entry" in r.message for r in caplog.records)
    assert store.counters["trace_misses"] > 0
    # The regenerated entries were written back and are readable again.
    fresh = TraceStore(root)
    assert run_cell(workload, seed, "scalar", trace_store=fresh) == committed
    assert fresh.counters["trace_misses"] == 0


def _shorten(name):
    def corrupt(arrays):
        arrays[name] = arrays[name][:-1]
    return corrupt


def _flip_kind(old, new):
    def corrupt(arrays):
        kinds = arrays["kinds"].copy()
        kinds[np.flatnonzero(kinds == old)[0]] = new
        arrays["kinds"] = kinds
    return corrupt


def _narrow_data_lines(arrays):
    arrays["data_lines"] = arrays["data_lines"].astype(np.int32)


@pytest.mark.parametrize(
    ("corrupt", "icache", "message"),
    [
        (_shorten("inv_shared"), False, "inv_shared array truncated"),
        (_flip_kind(0, 1), False, "invocation array shorter than event stream"),
        (_flip_kind(1, 0), False, "invocation array longer than event stream"),
        (_narrow_data_lines, False, "data line dtype mismatch"),
        (_shorten("code_lines"), True, "code stream truncated"),
    ],
    ids=["inv-column-short", "extra-os-event", "missing-os-event",
         "data-lines-int32", "code-lines-short"],
)
def test_structurally_corrupt_entry_falls_back(
    corrupt, icache, message, tmp_path, caplog
):
    workload, seed = GOLDEN_CELLS[0]
    if icache:
        # No golden cell models the I-cache: live generation is the
        # reference the fallback must reproduce.
        config = SimulatorConfig(profile=TEST_SCALE, seed=seed, enable_icache=True)
        expected = _run_stats(config)

        def run(store):
            return _run_stats(config, store)
    else:
        expected = json.loads(golden_path(workload, seed).read_text())

        def run(store):
            return run_cell(workload, seed, "scalar", trace_store=store)
    root = _store_root(tmp_path)
    run(TraceStore(root))
    manifest = next(
        path for path in _trace_files(root, ".json")
        if json.loads(path.read_text())["kind"] == TRACE_KIND
    )
    npz = manifest.with_suffix(".npz")
    with np.load(npz) as archive:
        arrays = {name: archive[name] for name in archive.files}
    corrupt(arrays)
    with open(npz, "wb") as handle:
        np.savez(handle, **arrays)
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run(store) == expected
    warnings = [r.getMessage() for r in caplog.records]
    assert any(
        "corrupt trace-cache entry" in text and message in text
        for text in warnings
    ), warnings
    assert store.counters["trace_misses"] == 1


def _recorded_entry(kind):
    spec = get_workload("apache")
    if kind == "trace":
        return _materialize_trace(spec, TEST_SCALE, 7, 0, 40_000, icache=True)
    return _materialize_priming(spec, TEST_SCALE, 7 + PRIMING_SEED_OFFSET, 3000)


def _field_types(event):
    fields = {name: type(value) for name, value in vars(event).items()}
    if isinstance(event, OSInvocation):
        fields["astate"] = {k: type(v) for k, v in vars(event.astate).items()}
    return fields


@pytest.mark.parametrize("kind", ["trace", "priming"])
def test_decode_round_trips_and_shares_distinct_events(kind):
    recorded = _recorded_entry(kind)
    arrays, manifest = _encode(recorded)
    decoded = _decode(json.loads(json.dumps(manifest)), arrays)
    assert len(decoded.events) == len(recorded.events)
    for got, want in zip(decoded.events, recorded.events):
        assert type(got) is type(want)
        assert got == want
        assert _field_types(got) == _field_types(want)
        if isinstance(want, OSInvocation):
            assert got.shared_fraction.hex() == want.shared_fraction.hex()
    # One object per distinct event, and the stream does repeat.
    distinct = set(decoded.events)
    assert len(distinct) < len(decoded.events)
    assert len({id(event) for event in decoded.events}) == len(distinct)
    for name in ("data_lines", "data_writes", "data_starts",
                 "code_lines", "code_starts"):
        want = getattr(recorded, name)
        got = getattr(decoded, name)
        if want is None:
            assert got is None
        else:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_unreadable_manifest_falls_back_with_warning(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, "scalar", trace_store=TraceStore(root))
    for manifest in _trace_files(root, ".json"):
        manifest.write_text("{ not json")
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, "scalar", trace_store=store) == committed
    assert any(
        "unreadable trace-cache manifest" in r.message for r in caplog.records
    )


def test_manifest_schema_stamp_invalidates_entry(tmp_path, caplog):
    workload, seed = GOLDEN_CELLS[0]
    committed = json.loads(golden_path(workload, seed).read_text())
    root = _store_root(tmp_path)
    run_cell(workload, seed, "scalar", trace_store=TraceStore(root))
    for path in _trace_files(root, ".json"):
        manifest = json.loads(path.read_text())
        manifest["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(manifest))
    store = TraceStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert run_cell(workload, seed, "scalar", trace_store=store) == committed
    assert store.counters["trace_misses"] > 0


def test_schema_bump_changes_every_key(tmp_path, monkeypatch):
    workload, seed = GOLDEN_CELLS[0]
    root = _store_root(tmp_path)
    run_cell(workload, seed, "scalar", trace_store=TraceStore(root))
    before = {p.name for p in _trace_files(root, ".json")}
    import repro.cache.keys as keys

    monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
    store = TraceStore(root)
    run_cell(workload, seed, "scalar", trace_store=store)
    after = {p.name for p in _trace_files(root, ".json")}
    assert store.counters["trace_hits"] == 0
    assert before and before.isdisjoint(after - before)
    assert len(after) > len(before)


# ----------------------------------------------------------------------
# level 2: result memoization
# ----------------------------------------------------------------------


def test_result_store_roundtrip_and_keying(tmp_path):
    store = ResultStore(_store_root(tmp_path))
    metrics = {"normalized_throughput": 1.25, "offloads": 42}
    store.put("apache/HI/N100/L100/s1", "fp-one", metrics)
    assert store.get("apache/HI/N100/L100/s1", "fp-one") == metrics
    # A different fingerprint or job id is a different outcome.
    assert store.get("apache/HI/N100/L100/s1", "fp-two") is None
    assert store.get("derby/HI/N100/L100/s1", "fp-one") is None
    assert store.counters["result_hits"] == 1
    assert store.counters["result_misses"] == 2


def test_result_store_ignores_corrupt_entries(tmp_path, caplog):
    root = _store_root(tmp_path)
    store = ResultStore(root)
    store.put("job", "fp", {"throughput": 1.0})
    for path in pathlib.Path(store.directory).glob("*.json"):
        path.write_text("{ nope")
    fresh = ResultStore(root)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert fresh.get("job", "fp") is None
    assert any(
        "unreadable result-cache entry" in r.message for r in caplog.records
    )


def test_execute_job_memoizes_whole_cells(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    spec = JobSpec("apache", "HI", 100, 100).resolved(config.seed)
    payload = {
        "job": spec.to_payload(),
        "config": config_to_payload(config),
        "baseline_dir": None,
        "timeout_s": None,
        "cache_dir": _store_root(tmp_path),
    }
    first = worker.execute_job(payload)
    assert first["status"] == "ok"
    assert first["cache_counters"]["result_misses"] == 1
    assert first["cache_counters"]["trace_misses"] > 0
    # A cold process (fresh memos) re-running the same cell hits level 2
    # and never touches the simulator's trace machinery.
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    second = worker.execute_job(payload)
    assert second["status"] == "ok"
    assert second["metrics"] == first["metrics"]
    assert second["cache_counters"]["result_hits"] == 1
    assert "trace_misses" not in second["cache_counters"]


# ----------------------------------------------------------------------
# batch runner integration
# ----------------------------------------------------------------------


def _grid_metrics(batch):
    return {result.job_id: result.metrics for result in batch}


def test_concurrent_workers_share_one_cache(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    specs = [
        JobSpec(workload, "HI", threshold, 100)
        for workload in ("apache", "derby")
        for threshold in (0, 100)
    ]
    plain = run_job_grid(specs, config)
    root = _store_root(tmp_path)
    # Two workers race on the same trace keys in a cold cache; atomic
    # writes make the collision benign and the numbers bit-identical.
    parallel = run_job_grid(specs, config, jobs=2, cache_dir=root)
    assert _grid_metrics(parallel) == _grid_metrics(plain)
    worker._BASELINE_MEMO.clear()
    worker._STORES.clear()
    registry = MetricsRegistry()
    warm = run_job_grid(specs, config, cache_dir=root, metrics=registry)
    assert _grid_metrics(warm) == _grid_metrics(plain)
    prometheus = registry.to_prometheus()
    assert "repro_cache_result_hits_total 4" in prometheus


def test_cache_root_hosts_shared_baselines(tmp_path):
    config = SimulatorConfig(profile=TEST_SCALE, seed=2010)
    root = _store_root(tmp_path)
    run_job_grid([JobSpec("apache", "HI", 100, 100)], config, cache_dir=root)
    baselines = pathlib.Path(baselines_dir(root))
    assert baselines.is_dir() and any(baselines.iterdir())


# ----------------------------------------------------------------------
# maintenance + CLI
# ----------------------------------------------------------------------


def test_maintenance_stats_gc_clear(tmp_path):
    root = _store_root(tmp_path)
    run_cell(*GOLDEN_CELLS[0], "scalar", trace_store=TraceStore(root))
    ResultStore(root).put("job", "fp", {"throughput": 1.0})
    stats = cache_stats(root)
    assert stats["files"] > 0 and stats["bytes"] > 0
    assert stats["sections"]["results"]["files"] == 1
    # Nothing is old enough for a 30-day gc...
    assert cache_gc(root, max_age_days=30)["removed"] == 0
    # ...but aging every entry makes the same gc reclaim all of them.
    for section in ("traces", "results"):
        for path in (pathlib.Path(root) / section).iterdir():
            os.utime(path, (0, 0))
    swept = cache_gc(root, max_age_days=30)
    assert swept["removed"] == stats["files"]
    run_cell(*GOLDEN_CELLS[0], "scalar", trace_store=TraceStore(root))
    cleared = cache_clear(root)
    assert cleared["removed"] > 0
    assert cache_stats(root)["files"] == 0


def test_resolve_cache_root_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "from-env"))
    assert resolve_cache_root() == str(tmp_path / "from-env")
    assert resolve_cache_root(str(tmp_path / "explicit")) == str(
        tmp_path / "explicit"
    )
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert resolve_cache_root().endswith(os.path.join(".cache", "repro"))


def test_cache_cli_stats_gc_clear(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    root = _store_root(tmp_path)
    monkeypatch.setenv(CACHE_ENV_VAR, root)
    # A cached sweep populates the root the CLI then inspects.
    assert main([
        "--profile", "test", "sweep", "apache",
        "--thresholds", "100", "--latencies", "100", "--json",
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["root"] == root
    assert stats["files"] > 0
    assert main(["cache", "gc", "--max-age-days", "30"]) == 0
    assert "removed 0 files" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["files"] == 0


def test_sweep_no_cache_flag_disables_cache(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    root = _store_root(tmp_path)
    monkeypatch.setenv(CACHE_ENV_VAR, root)
    assert main([
        "--profile", "test", "sweep", "apache", "--no-cache",
        "--thresholds", "100", "--latencies", "100", "--json",
    ]) == 0
    capsys.readouterr()
    assert not os.path.exists(root)


def test_experiment_rejects_cache_flags_for_serial_experiments(capsys):
    from repro.cli import main

    assert main(["experiment", "table1", "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


# ----------------------------------------------------------------------
# R304: cache-key honesty lint rule
# ----------------------------------------------------------------------


def test_r304_flags_config_reads_in_cache_package(tmp_path):
    from repro.lint import run_lint

    package = tmp_path / "cache"
    package.mkdir()
    (package / "bad.py").write_text(
        "def key_of(config):\n"
        "    return str(config.seed)\n"
    )
    (package / "good.py").write_text(
        "def key_of(config, config_to_payload):\n"
        "    return sorted(config_to_payload(config).items())\n"
    )
    findings = run_lint([tmp_path], root=tmp_path, select=["R304"])
    assert [(v.rule, v.line) for v in findings] == [("R304", 2)]
    assert "config.seed" in findings[0].message


def test_r304_ignores_config_reads_outside_cache_package(tmp_path):
    from repro.lint import run_lint

    module = tmp_path / "engine.py"
    module.write_text("def f(config):\n    return config.seed\n")
    assert run_lint([tmp_path], root=tmp_path, select=["R304"]) == []


def test_r304_clean_on_the_real_cache_package():
    from repro.lint import run_lint

    import repro.cache

    package = pathlib.Path(repro.cache.__file__).parent
    assert run_lint([package], root=package.parent.parent,
                    select=["R304"]) == []
