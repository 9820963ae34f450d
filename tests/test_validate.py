"""Tests for the post-run consistency validator."""

import dataclasses

import pytest

from repro.core.policies import AlwaysOffload, HardwareInstrumentation, NeverOffload
from repro.errors import SimulationError
from repro.offload.migration import AGGRESSIVE, CONSERVATIVE
from repro.service.config import ServiceConfig
from repro.sim.config import SimulatorConfig, TEST_SCALE
from repro.sim.simulator import simulate, simulate_baseline
from repro.sim.validate import validate_result
from repro.workloads.presets import get_workload

CONFIG = SimulatorConfig(profile=TEST_SCALE, policy_priming_invocations=300)


class TestCleanRunsValidate:
    @pytest.mark.parametrize("workload", ["apache", "derby", "mcf"])
    def test_baseline_runs_validate(self, workload):
        result = simulate_baseline(get_workload(workload), CONFIG)
        names = validate_result(result)
        assert len(names) == 6

    @pytest.mark.parametrize("policy_factory", [
        lambda: NeverOffload(),
        lambda: AlwaysOffload(),
        lambda: HardwareInstrumentation(threshold=100),
        lambda: HardwareInstrumentation(threshold=10000),
    ])
    def test_offload_runs_validate(self, policy_factory):
        result = simulate(
            get_workload("apache"), policy_factory(), AGGRESSIVE, CONFIG
        )
        validate_result(result)

    def test_conservative_migration_validates(self):
        result = simulate(
            get_workload("derby"), HardwareInstrumentation(threshold=100),
            CONSERVATIVE, CONFIG,
        )
        validate_result(result)

    def test_multicore_run_validates(self):
        config = dataclasses.replace(CONFIG, num_user_cores=2)
        result = simulate(
            get_workload("derby"), AlwaysOffload(), AGGRESSIVE, config
        )
        validate_result(result)

    def test_icache_run_validates(self):
        config = dataclasses.replace(CONFIG, enable_icache=True)
        result = simulate(
            get_workload("derby"), HardwareInstrumentation(threshold=100),
            AGGRESSIVE, config,
        )
        validate_result(result)

    def test_open_loop_run_with_idle_cores_validates(self):
        # User cores that outpace their Poisson arrivals idle; idle
        # cycles are part of each core's total and must be recomposed.
        config = dataclasses.replace(
            CONFIG,
            num_user_cores=2,
            service=ServiceConfig(
                arrivals="poisson", mean_interarrival_cycles=10_000.0,
                os_cores=1,
            ),
        )
        result = simulate(
            get_workload("apache"), HardwareInstrumentation(threshold=100),
            AGGRESSIVE, config,
        )
        assert any(core.idle_cycles > 0 for core in result.stats.cores)
        validate_result(result)


class TestCorruptedRunsAreCaught:
    def _clean_result(self):
        return simulate(
            get_workload("derby"), AlwaysOffload(), AGGRESSIVE, CONFIG
        )

    def test_os_core_instruction_mismatch(self):
        result = self._clean_result()
        result.stats.os_core.instructions += 7
        with pytest.raises(SimulationError, match="OS core executed"):
            validate_result(result)

    def test_offloads_exceed_entries(self):
        result = self._clean_result()
        result.stats.offload.offloads = result.stats.offload.os_entries + 1
        with pytest.raises(SimulationError, match="exceed"):
            validate_result(result)

    def test_queue_cycles_exceed_wait(self):
        result = self._clean_result()
        core = result.stats.cores[0]
        core.queue_cycles = core.offload_wait_cycles + 1
        with pytest.raises(SimulationError, match="queue cycles"):
            validate_result(result)

    def test_predictor_buckets_overflow(self):
        result = self._clean_result()
        stats = result.stats.predictor
        stats.predictions = 1
        stats.exact = 1
        stats.close = 1
        with pytest.raises(SimulationError, match="accuracy buckets"):
            validate_result(result)

    def test_phantom_coherence_in_baseline(self):
        result = simulate_baseline(get_workload("derby"), CONFIG)
        result.stats.coherence.cache_to_cache_transfers = 5
        with pytest.raises(SimulationError, match="one active node"):
            validate_result(result)

    def test_l2_traffic_exceeding_l1_misses(self):
        result = self._clean_result()
        for cache in result.stats.l2.values():
            cache.hits += 10_000
        with pytest.raises(SimulationError, match="L2 saw"):
            validate_result(result)
