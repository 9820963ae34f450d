"""Unit tests for configuration objects and scaling."""

import pytest

from repro.errors import ConfigurationError
from repro.runner.jobspec import config_from_payload, config_to_payload
from repro.sim.config import (
    DEFAULT_SCALE,
    ENGINE_MODES,
    FULL_SCALE,
    TEST_SCALE,
    CacheConfig,
    CoreConfig,
    MemorySystemConfig,
    ScaleProfile,
    SimulatorConfig,
    table2_parameters,
)


class TestCacheConfig:
    def test_table2_l2_geometry(self):
        l2 = MemorySystemConfig().l2
        assert l2.num_lines == 16384  # 1 MB / 64 B
        assert l2.num_sets == 1024

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 2)


class TestMemorySystemConfig:
    def test_defaults_match_table2(self):
        mem = MemorySystemConfig()
        assert mem.l1.size_bytes == 32 * 1024
        assert mem.l1.associativity == 2
        assert mem.l2.size_bytes == 1024 * 1024
        assert mem.l2.associativity == 16
        assert mem.dram_latency == 350
        assert mem.line_size == 64

    def test_rejects_l1_larger_than_l2(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig(
                l1=CacheConfig(2 * 1024 * 1024, 2),
                l2=CacheConfig(1024 * 1024, 16),
            )

    def test_rejects_line_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig(l1=CacheConfig(32 * 1024, 2, line_size=32))

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            MemorySystemConfig(dram_latency=-1)


class TestCoreConfig:
    def test_rejects_sub_one_cpi(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(base_cpi=0.5)

    def test_defaults(self):
        core = CoreConfig()
        assert core.frequency_ghz == 3.5
        assert core.tlb_entries == 128


class TestScaleProfile:
    def test_full_scale_is_identity(self):
        profile = FULL_SCALE
        assert profile.scaled_roi == 200_000_000
        assert profile.scale_instructions(25_000_000) == 25_000_000
        l2 = MemorySystemConfig().l2
        assert profile.scale_cache(l2) == l2

    def test_scaled_roi_positive(self):
        assert TEST_SCALE.scaled_roi > 0
        assert DEFAULT_SCALE.scaled_roi > TEST_SCALE.scaled_roi

    def test_cache_scaling_keeps_geometry_legal(self):
        l2 = MemorySystemConfig().l2
        scaled = DEFAULT_SCALE.scale_cache(l2)
        assert scaled.size_bytes % (scaled.line_size * scaled.associativity) == 0
        assert scaled.size_bytes == l2.size_bytes // DEFAULT_SCALE.cache_scale

    def test_cache_scaling_floors_at_one_line_per_way(self):
        tiny = CacheConfig(2 * 64, 2)
        scaled = ScaleProfile(scale=1, cache_scale=1000).scale_cache(tiny)
        assert scaled.num_lines == 2

    def test_l1_scales_less_than_l2(self):
        config = SimulatorConfig(profile=DEFAULT_SCALE)
        mem = config.effective_memory()
        full = MemorySystemConfig()
        l1_factor = full.l1.size_bytes / mem.l1.size_bytes
        l2_factor = full.l2.size_bytes / mem.l2.size_bytes
        assert l1_factor < l2_factor

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ScaleProfile(scale=0)


class TestSimulatorConfig:
    def test_rejects_zero_user_cores(self):
        with pytest.raises(ConfigurationError):
            SimulatorConfig(num_user_cores=0)

    def test_window_traps_included_by_default(self):
        assert SimulatorConfig().include_window_traps is True

    def test_engine_modes_are_scalar_and_batched(self):
        assert ENGINE_MODES == {"scalar", "batched"}
        for engine in sorted(ENGINE_MODES):
            assert SimulatorConfig(engine=engine).engine == engine

    @pytest.mark.parametrize("engine", ["columnar", "vectorized"])
    def test_rejects_unknown_engine(self, engine):
        with pytest.raises(ConfigurationError, match="engine must be one of"):
            SimulatorConfig(engine=engine)

    @pytest.mark.parametrize("engine", ["columnar", "vectorized"])
    def test_payload_naming_unknown_engine_is_rejected(self, engine):
        # Checkpoints and job payloads written elsewhere may still name
        # an engine this build does not have.
        payload = config_to_payload(SimulatorConfig())
        payload["engine"] = engine
        with pytest.raises(ConfigurationError, match="engine must be one of"):
            config_from_payload(payload)


class TestTable2:
    def test_all_paper_rows_present(self):
        params = table2_parameters()
        for key in (
            "ISA", "Core Frequency", "Processor Pipeline", "TLB",
            "Coherence Protocol", "L1 I-cache", "L1 D-cache", "L2 Cache",
            "L1 and L2 Cache Line Size", "Main Memory",
        ):
            assert key in params

    def test_values_reflect_live_defaults(self):
        params = table2_parameters()
        assert params["Main Memory"] == "350 Cycle Uniform Latency"
        assert params["L1 and L2 Cache Line Size"] == "64 Bytes"
