"""Bench RUNNER — parallel batch-runner scaling guard.

The batch runner exists to make grid sweeps scale with cores, so this
bench regresses exactly that: a 16-cell Figure-4-style grid executed
serially and with 2 worker processes must show a >= 1.5x speedup (the
budget leaves headroom for pool start-up, per-cell task submission, and
result marshalling on 2-core CI runners).

Methodology notes:

- the grid is big enough (16 cells) that per-cell simulation time
  dominates the pool's fixed costs at the test profile;
- baselines are pre-computed into a shared on-disk store so neither
  timing includes them (both paths would otherwise pay once per
  process, muddying the comparison);
- the serial and parallel batches are also compared cell-by-cell — the
  speedup must not come at the cost of the bit-identical guarantee;
- on a single-core machine (or a CPU set restricted to one core) the
  bench skips: a process pool cannot beat serial execution without a
  second core to run on.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.runner import BatchRunner, JobSpec

#: Required serial/parallel wall-time ratio at 2 workers.
MIN_SPEEDUP = 1.5

#: workload x threshold x latency grid: 16 cells on one workload, so a
#: single shared baseline covers every cell.
GRID = [
    JobSpec("derby", "HI", threshold, latency)
    for threshold in (0, 100, 500, 1000)
    for latency in (0, 100, 1000, 5000)
]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_two_workers_speed_up_a_sweep(config, tmp_path):
    if _usable_cpus() < 2:
        pytest.skip("parallel speedup needs at least two usable CPUs")

    baseline_dir = str(tmp_path / "baselines")

    def run(jobs: int):
        runner = BatchRunner(config=config, jobs=jobs,
                             baseline_dir=baseline_dir)
        start = time.perf_counter()
        batch = runner.run(GRID)
        elapsed = time.perf_counter() - start
        batch.raise_on_failures()
        return batch, elapsed

    run(1)  # warm the shared baseline store and the allocator
    serial_batch, serial_s = run(1)
    parallel_batch, parallel_s = run(2)
    speedup = serial_s / parallel_s

    print()
    print(f"grid: {len(GRID)} cells, profile {config.profile.name}")
    print(f"serial: {serial_s:.2f}s  2 workers: {parallel_s:.2f}s  "
          f"speedup: {speedup:.2f}x")

    assert [r.metrics for r in serial_batch] == [
        r.metrics for r in parallel_batch
    ], "parallel execution changed cell results"
    assert speedup >= MIN_SPEEDUP, (
        f"2-worker speedup {speedup:.2f}x is below the {MIN_SPEEDUP}x budget"
    )
