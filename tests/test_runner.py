"""Tests for the repro.runner batch-execution subsystem.

The load-bearing guarantees:

- serial (``jobs=1``) and parallel (``jobs>1``) executions of the same
  grid with the same root seed are bit-identical per cell;
- a failed cell is recorded, never fatal to the batch;
- an interrupted batch resumes from its checkpoint manifest, skipping
  completed cells, and the combined results are bit-identical to an
  uninterrupted serial run.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    BaselineStore,
    BatchInterrupted,
    JobSpec,
    batch_fingerprint,
    config_from_payload,
    config_to_payload,
    derive_seed,
    run_batch,
)
from repro.runner import scheduler
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import make_policy, simulate, simulate_baseline
from repro.offload.migration import MigrationModel
from repro.workloads.presets import get_workload

CONFIG = SimulatorConfig(profile=TEST_SCALE)

#: A small but non-trivial grid: two thresholds x two latencies.
GRID = [
    JobSpec("derby", "HI", threshold, latency)
    for threshold in (100, 10000)
    for latency in (0, 5000)
]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(2010, "a", 1) == derive_seed(2010, "a", 1)

    def test_sensitive_to_every_component(self):
        seeds = {
            derive_seed(2010, "a", 1),
            derive_seed(2010, "a", 2),
            derive_seed(2010, "b", 1),
            derive_seed(2011, "a", 1),
        }
        assert len(seeds) == 4

    def test_non_negative_63_bit(self):
        for index in range(50):
            seed = derive_seed(0, index)
            assert 0 <= seed < 2 ** 63


class TestJobSpec:
    def test_resolved_fills_root_seed(self):
        spec = JobSpec("derby").resolved(99)
        assert spec.seed == 99
        assert "s99" in spec.job_id

    def test_explicit_seed_wins(self):
        assert JobSpec("derby", seed=7).resolved(99).seed == 7

    def test_job_id_requires_seed(self):
        with pytest.raises(ConfigurationError):
            JobSpec("derby").job_id

    def test_tag_and_dynamic_n_distinguish_ids(self):
        base = JobSpec("derby").resolved(1)
        tagged = JobSpec("derby", tag="x").resolved(1)
        dynamic = JobSpec("derby", dynamic_n=True).resolved(1)
        assert len({base.job_id, tagged.job_id, dynamic.job_id}) == 3

    def test_tag_rejects_separator(self):
        with pytest.raises(ConfigurationError):
            JobSpec("derby", tag="a/b")

    def test_payload_roundtrip(self):
        spec = JobSpec("apache", "DI", 500, 1000, seed=3, tag="t")
        assert JobSpec.from_payload(spec.to_payload()) == spec

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            run_batch([JobSpec("derby"), JobSpec("derby")], CONFIG)


class TestConfigPayload:
    def test_roundtrip_is_exact(self):
        assert config_from_payload(config_to_payload(CONFIG)) == CONFIG

    def test_roundtrip_preserves_custom_fields(self):
        import dataclasses

        config = dataclasses.replace(
            CONFIG, num_user_cores=3, enable_icache=True, seed=7
        )
        assert config_from_payload(config_to_payload(config)) == config

    def test_fingerprint_tracks_grid_and_config(self):
        ids = [spec.resolved(CONFIG.seed).job_id for spec in GRID]
        import dataclasses

        other = dataclasses.replace(CONFIG, seed=1)
        assert batch_fingerprint(ids, CONFIG) == batch_fingerprint(ids, CONFIG)
        assert batch_fingerprint(ids, CONFIG) != batch_fingerprint(ids, other)
        assert batch_fingerprint(ids, CONFIG) != batch_fingerprint(ids[:1], CONFIG)


def _payload(workload, seed, tag):
    return {"job": {"workload": workload, "seed": seed, "job_id": tag}}


def _ids(payloads):
    return [payload["job"]["job_id"] for payload in payloads]


class _InlineExecutor:
    """Runs every submitted call at once, in the submitting process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestLeaderFirstDispatch:
    #: two workloads x three cells, submitted workload by workload
    GROUPED = [
        _payload(workload, 1, f"{workload}-{index}")
        for workload in ("apache", "derby")
        for index in range(3)
    ]

    def test_returns_a_permutation(self):
        payloads = self.GROUPED + [_payload("apache", 2, "apache-s2")]
        ordered = scheduler.leaders_first(payloads)
        assert sorted(_ids(ordered)) == sorted(_ids(payloads))
        assert len(ordered) == len(payloads)

    def test_leaders_first_then_followers_in_submission_order(self):
        payloads = self.GROUPED + [_payload("apache", 2, "apache-s2")]
        assert _ids(scheduler.leaders_first(payloads)) == [
            "apache-0", "derby-0", "apache-s2",
            "apache-1", "apache-2", "derby-1", "derby-2",
        ]

    def test_explicit_per_cell_seeds_keep_order(self):
        payloads = [_payload("apache", seed, f"c{seed}") for seed in range(5)]
        assert scheduler.leaders_first(payloads) == payloads

    def test_single_group_keeps_order(self):
        payloads = self.GROUPED[:3]
        assert scheduler.leaders_first(payloads) == payloads

    def test_parallel_path_submits_one_cell_per_task(self, monkeypatch):
        calls = []

        def fake_shard(payloads):
            calls.append(payloads)
            return [{"job_id": payload["job"]["job_id"]} for payload in payloads]

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(scheduler, "execute_shard", fake_shard)
        runner = scheduler.BatchRunner(CONFIG, jobs=2)
        records = list(runner._execute(list(self.GROUPED), parallel=True))
        assert all(len(call) == 1 for call in calls)
        expected = ["apache-0", "derby-0",
                    "apache-1", "apache-2", "derby-1", "derby-2"]
        assert [call[0]["job"]["job_id"] for call in calls] == expected
        assert sorted(r["job_id"] for r in records) == sorted(expected)


class TestSerialBatch:
    def test_matches_direct_simulation(self):
        spec = JobSpec("derby", "HI", 100, 0)
        batch = run_batch([spec], CONFIG)
        result = batch.get(spec.resolved(CONFIG.seed))
        workload = get_workload("derby")
        baseline = simulate_baseline(workload, CONFIG)
        direct = simulate(
            workload, make_policy("HI", threshold=100),
            MigrationModel("t", 0), CONFIG,
        )
        assert result.ok
        assert result.metrics["normalized_throughput"] == (
            direct.throughput / baseline.throughput
        )
        assert result.metrics["baseline_throughput"] == baseline.throughput

    def test_batch_result_shape(self):
        batch = run_batch(GRID, CONFIG)
        assert len(batch) == len(GRID)
        assert batch.executed == len(GRID)
        assert batch.skipped == 0
        assert not batch.failures
        summary = batch.summary()
        assert summary["ok"] == len(GRID)
        assert summary["failed"] == 0
        json.dumps(summary)  # JSON-safe


class TestParallelEquivalence:
    def test_jobs2_bit_identical_to_serial(self):
        serial = run_batch(GRID, CONFIG, jobs=1)
        parallel = run_batch(GRID, CONFIG, jobs=2)
        assert [r.job_id for r in serial] == [r.job_id for r in parallel]
        assert [r.metrics for r in serial] == [r.metrics for r in parallel]


class TestFaultTolerance:
    def test_failed_cell_is_isolated(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        batch = run_batch(specs, CONFIG)
        ok, bad = batch.results
        assert ok.ok and not bad.ok
        assert "unknown workload" in bad.error
        assert "WorkloadError" in bad.traceback

    def test_failed_cell_is_isolated_in_parallel(self):
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch"),
                 JobSpec("derby", "HI", 10000, 0)]
        batch = run_batch(specs, CONFIG, jobs=2)
        assert len(batch.failures) == 1
        assert len(batch.completed) == 2

    def test_raise_on_failures(self):
        batch = run_batch([JobSpec("nosuch")], CONFIG)
        with pytest.raises(ReproError, match="nosuch"):
            batch.raise_on_failures()

    def test_retries_re_execute_and_count_attempts(self):
        batch = run_batch([JobSpec("nosuch")], CONFIG, retries=2)
        result = batch.results[0]
        assert not result.ok
        assert result.attempts == 3
        assert batch.retries == 2

    def test_timeout_records_failure(self):
        batch = run_batch(
            [JobSpec("derby", "HI", 100, 0)], CONFIG, timeout_s=0.005
        )
        result = batch.results[0]
        assert not result.ok
        assert "timeout" in result.error.lower()


class TestCheckpointResume:
    def _interrupt_after(self, count):
        def progress(update, done, total):
            if update.finished and done >= count:
                raise BatchInterrupted(f"stop after {count}")

        return progress

    def test_interrupt_resume_bit_identical_to_serial(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        reference = run_batch(GRID, CONFIG)  # uninterrupted serial run

        with pytest.raises(BatchInterrupted):
            run_batch(GRID, CONFIG, checkpoint_dir=checkpoint,
                      progress=self._interrupt_after(2))

        manifest = tmp_path / "ckpt" / "manifest.jsonl"
        records = [json.loads(line) for line in
                   manifest.read_text().splitlines()]
        assert records[0]["kind"] == "header"
        assert len([r for r in records if r["kind"] == "result"]) == 2

        executed = []
        resumed = run_batch(
            GRID, CONFIG, checkpoint_dir=checkpoint, resume=True,
            progress=lambda update, done, total: (
                executed.append(update.job_id) if update.finished else None
            ),
        )
        assert resumed.skipped == 2
        assert resumed.executed == len(GRID) - 2
        assert len(executed) == len(GRID) - 2
        completed_ids = {r["job_id"] for r in records if r["kind"] == "result"}
        assert not completed_ids.intersection(executed)  # no re-execution
        assert [r.metrics for r in resumed] == [r.metrics for r in reference]

    def test_parallel_resume_after_serial_interrupt(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        with pytest.raises(BatchInterrupted):
            run_batch(GRID, CONFIG, checkpoint_dir=checkpoint,
                      progress=self._interrupt_after(1))
        resumed = run_batch(GRID, CONFIG, jobs=2,
                            checkpoint_dir=checkpoint, resume=True)
        reference = run_batch(GRID, CONFIG)
        assert resumed.skipped == 1
        assert [r.metrics for r in resumed] == [r.metrics for r in reference]

    def test_resume_on_fresh_directory_runs_everything(self, tmp_path):
        batch = run_batch(GRID, CONFIG, checkpoint_dir=str(tmp_path / "new"),
                          resume=True)
        assert batch.executed == len(GRID)
        assert batch.skipped == 0

    def test_resume_rejects_different_grid(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        run_batch(GRID, CONFIG, checkpoint_dir=checkpoint)
        other = [JobSpec("derby", "HI", 42, 0)]
        with pytest.raises(ReproError, match="different batch"):
            run_batch(other, CONFIG, checkpoint_dir=checkpoint, resume=True)

    def test_non_resume_reuse_starts_fresh(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        run_batch(GRID, CONFIG, checkpoint_dir=checkpoint)
        other = [JobSpec("derby", "HI", 42, 0)]
        batch = run_batch(other, CONFIG, checkpoint_dir=checkpoint)
        assert batch.executed == 1  # old manifest truncated, no conflict

    def test_failed_cells_are_retried_on_resume(self, tmp_path):
        checkpoint = str(tmp_path / "ckpt")
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        first = run_batch(specs, CONFIG, checkpoint_dir=checkpoint)
        assert len(first.failures) == 1
        resumed = run_batch(specs, CONFIG, checkpoint_dir=checkpoint,
                            resume=True)
        assert resumed.skipped == 1      # the ok cell
        assert resumed.executed == 1     # the failed cell ran again
        assert not resumed.results[1].resumed

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ReproError, match="checkpoint"):
            run_batch(GRID, CONFIG, resume=True)


class TestBaselinePersistence:
    def test_store_roundtrip_and_corruption_tolerance(self, tmp_path):
        store = BaselineStore(str(tmp_path))
        assert store.get("derby", CONFIG) is None
        store.put("derby", CONFIG, 0.75)
        assert BaselineStore(str(tmp_path)).get("derby", CONFIG) == 0.75
        (entry,) = [p for p in os.listdir(tmp_path)
                    if p.startswith("baseline-")]
        (tmp_path / entry).write_text("{not json")
        assert BaselineStore(str(tmp_path)).get("derby", CONFIG) is None

    def test_batch_persists_baselines_under_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "ckpt"
        batch = run_batch([JobSpec("derby", "HI", 100, 0)], CONFIG,
                          checkpoint_dir=str(checkpoint))
        store = BaselineStore(str(checkpoint / "baselines"))
        stored = store.get("derby", CONFIG)
        assert stored == batch.results[0].metrics["baseline_throughput"]


class TestMetricsIntegration:
    def test_runner_counters(self, tmp_path):
        registry = MetricsRegistry()
        specs = [JobSpec("derby", "HI", 100, 0), JobSpec("nosuch")]
        checkpoint = str(tmp_path / "ckpt")
        run_batch(specs, CONFIG, checkpoint_dir=checkpoint, metrics=registry)
        assert registry.get("runner_jobs_total").value == 2
        assert registry.get("runner_jobs_completed").value == 1
        assert registry.get("runner_jobs_failed").value == 1
        assert registry.get("runner_job_seconds").count == 2

        run_batch(specs, CONFIG, checkpoint_dir=checkpoint, resume=True,
                  metrics=registry, retries=1)
        assert registry.get("runner_jobs_skipped").value == 1
        assert registry.get("runner_retries_total").value == 1
        assert "runner_jobs_total" in registry.to_prometheus()


class TestBaselineRunsCounter:
    def test_counts_only_simulated_baselines(self, tmp_path):
        import dataclasses

        # a seed no other test uses, so the per-process memo starts cold
        config = dataclasses.replace(CONFIG, seed=918273)
        specs = [JobSpec(workload, "HI", threshold, 0)
                 for workload in ("derby", "apache")
                 for threshold in (100, 10000)]

        def baseline_runs():
            registry = MetricsRegistry()
            batch = run_batch(specs, config, metrics=registry,
                              baseline_dir=str(tmp_path / "baselines"))
            total = sum(r.cache_counters.get("baseline_runs", 0) for r in batch)
            counter = registry.get("repro_cache_baseline_runs_total")
            assert counter.value == total
            return total

        assert baseline_runs() == 2
        assert baseline_runs() == 0  # memo (and store) hits add nothing


class TestExperimentGridHelper:
    def test_run_job_grid_deduplicates(self):
        from repro.experiments.common import run_job_grid

        batch = run_job_grid(
            [JobSpec("derby", "HI", 100, 0), JobSpec("derby", "HI", 100, 0)],
            CONFIG,
        )
        assert len(batch) == 1

    def test_fig4_parallel_equals_serial(self):
        from repro.experiments import run_fig4

        kwargs = dict(
            groups=("derby",), thresholds=(100,), latencies=(0,),
            compute_members=("hmmer",),
        )
        serial = run_fig4(CONFIG, **kwargs)
        parallel = run_fig4(CONFIG, jobs=2, **kwargs)
        assert serial.panels == parallel.panels

    def test_robustness_seeds_derive_from_root(self):
        from repro.experiments.robustness import trial_seeds

        seeds = trial_seeds(2010, "apache", 3)
        assert len(set(seeds)) == 3
        assert seeds == trial_seeds(2010, "apache", 3)
        # extending the study keeps existing trials stable
        assert trial_seeds(2010, "apache", 5)[:3] == seeds
        assert trial_seeds(2011, "apache", 3) != seeds


class TestProgressOrdering:
    """Satellite guarantee: started always precedes finished, and retry
    cycles surface as started -> retried -> started -> ... -> finished."""

    def _run(self, specs, **kwargs):
        from repro.runner import run_batch as run

        updates = []
        run(
            specs, CONFIG,
            progress=lambda update, done, total: updates.append(
                (update, done, total)
            ),
            **kwargs,
        )
        return updates

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_cell_starts_before_it_finishes(self, jobs):
        from repro.runner import STAGE_FINISHED, STAGE_STARTED

        updates = self._run(GRID, jobs=jobs)
        stages_by_cell = {}
        for update, _, _ in updates:
            stages_by_cell.setdefault(update.job_id, []).append(update.stage)
        assert len(stages_by_cell) == len(GRID)
        for stages in stages_by_cell.values():
            assert stages == [STAGE_STARTED, STAGE_FINISHED]

    def test_done_counts_only_finished_cells(self):
        updates = self._run(GRID, jobs=1)
        dones = [done for update, done, _ in updates if update.finished]
        assert dones == list(range(1, len(GRID) + 1))
        # A started update reports the progress so far, never ahead.
        for update, done, total in updates:
            assert total == len(GRID)
            if not update.finished:
                assert done < len(GRID)

    def test_retry_cycle_ordering_and_attempt_numbers(self):
        from repro.runner import (
            STAGE_FINISHED,
            STAGE_RETRIED,
            STAGE_STARTED,
        )

        updates = self._run([JobSpec("nosuch")], retries=2)
        transitions = [(u.stage, u.attempt) for u, _, _ in updates]
        assert transitions == [
            (STAGE_STARTED, 1), (STAGE_RETRIED, 1),
            (STAGE_STARTED, 2), (STAGE_RETRIED, 2),
            (STAGE_STARTED, 3), (STAGE_FINISHED, 3),
        ]
        finished = updates[-1][0]
        assert finished.result is not None and not finished.result.ok

    def test_started_and_retried_counters(self):
        from repro.runner import run_batch as run

        registry = MetricsRegistry()
        run([JobSpec("nosuch"), JobSpec("derby", "HI", 100, 0)], CONFIG,
            retries=1, metrics=registry)
        assert registry.get("runner_cell_started_total").value == 3
        assert registry.get("runner_cell_retried_total").value == 1
        assert registry.get("runner_cells_running").value == 0
