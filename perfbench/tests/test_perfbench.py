"""Smoke tests of the benchmark itself, at TEST_SCALE.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Each workload runs end to end through ``perfbench/run.py`` (with
and without tracing) and must emit exactly the metrics BENCHMARK.json
declares, with their units; the identity gate must be able to fail; and
the workloads must be pure functions of their seed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.driver import (  # noqa: E402
    CoverageError,
    InProcessWorkload,
    canonical,
    check_coverage,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
LISTED = [workload["name"] for workload in BENCHMARK["workloads"]]
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_bench(workload: str, state: Path, seed: int = 3, trace: int = 0,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "test", "--state", str(state)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def state(tmp_path_factory) -> Path:
    """One state directory per module, so scalar references are reused."""
    return tmp_path_factory.mktemp("perfbench-state")


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += LISTED
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and set(name) <= NAME_CHARS and name[0].isalnum()
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert set(LISTED) <= set(DESIGN["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", LISTED)
def test_smoke_emits_every_declared_metric(workload, trace, state):
    proc = run_bench(workload, state, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # the human-readable table names every end-to-end metric and fail_ratio
    for name in [m["name"] for m in BENCHMARK["end_to_end"]] + ["fail_ratio"]:
        assert f"  {name} " in proc.stdout


@pytest.mark.parametrize("workload", LISTED)
def test_corrupted_reference_is_a_failed_cell(workload, state, tmp_path):
    assert run_bench(workload, state).returncode == 0
    corrupt = tmp_path / "state"
    shutil.copytree(state, corrupt, ignore=shutil.ignore_patterns("work", "spans"))
    [path] = corrupt.glob(f"ref/{workload}-test-seed3-*.json")
    reference = json.loads(path.read_text())
    cell = sorted(reference["outputs"])[0]
    output = reference["outputs"][cell]
    if "stats" in output:
        output["stats"]["cores"][0]["instructions"] += 1
    else:
        output["offloads"] += 1
    path.write_text(json.dumps(reference))

    proc = run_bench(workload, corrupt)
    assert proc.returncode == 1
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert f"{cell}: output differs from the scalar reference" in proc.stderr


@pytest.mark.xfail(strict=True, reason=(
    "repro.sim.validate's cycle-composition check omits CoreStats.idle_cycles, "
    "so validate_result rejects every open-loop cell whose cores idle"))
def test_open_loop_passes_its_gate(state):
    proc = run_bench("open-loop", state)
    assert "differs from the scalar reference" not in proc.stderr
    assert proc.returncode == 0, proc.stderr


def test_same_seed_same_stats_other_seed_other_traces(tmp_path):
    from repro.sim.config import TEST_SCALE

    def outputs(seed: int, store: Path):
        bench = InProcessWorkload("closed-warm", DESIGN, seed, TEST_SCALE)
        bench.setup(store)
        outcomes, _ = bench.run_pass(store)
        bench.finish(outcomes)
        assert all(o.error is None for o in outcomes)
        return [canonical(o.output) for o in outcomes]

    first = outputs(5, tmp_path / "a")
    assert outputs(5, tmp_path / "b") == first
    assert outputs(6, tmp_path / "c") != first

    def trace_arrays(store: Path):
        return sorted(
            np.load(path)["data_lines"].tobytes()
            for path in store.glob("traces/*.npz")
            if "data_lines" in np.load(path).files
        )

    assert trace_arrays(tmp_path / "a") == trace_arrays(tmp_path / "b")
    assert trace_arrays(tmp_path / "a") != trace_arrays(tmp_path / "c")


def test_host_speed_correction_scales_by_the_calibration_loop():
    from perfbench.speed import CAL_REF_S, at_reference, calibrate

    # work timed while the loop ran twice as slow as at the reference
    # speed took half as long at the reference speed
    assert at_reference(3.0, 2 * CAL_REF_S) == pytest.approx(1.5)
    assert at_reference(3.0, CAL_REF_S) == pytest.approx(3.0)
    assert calibrate(3) > 0


def test_coverage_check_rejects_a_silent_layer():
    summary = {"layers": {layer: {"calls": 1, "self_ns": 1} for layer in DESIGN["layers"]}}
    check_coverage(DESIGN, "grid-cold", summary)
    summary["layers"]["memory"]["calls"] = 0
    with pytest.raises(CoverageError, match="memory"):
        check_coverage(DESIGN, "grid-cold", summary)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(LISTED[0], tmp_path / ".perfbench", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
