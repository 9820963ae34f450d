"""Post-run consistency validation.

A trace-driven simulator can silently drop cycles or instructions and
still produce plausible-looking throughput numbers.  This module checks
a finished :class:`~repro.sim.simulator.SimulationResult` against the
accounting identities the engine is supposed to maintain, raising
:class:`~repro.errors.SimulationError` with a precise message when one
fails.  The integration tests run every shape experiment through it;
users can call :func:`validate_result` on their own runs.

Checked identities:

1. **instruction conservation** — user-core + OS-core instructions cover
   the region of interest (each user core executed at least the scaled
   ROI; nothing was double-counted);
2. **cycle composition** — every core's total equals busy + off-load
   wait + decision cycles, and queue/migration components never exceed
   the wait that contains them;
3. **off-load accounting** — offloads ≤ OS entries, off-loaded
   instructions ≤ OS instructions, and the OS core executed exactly the
   off-loaded instructions;
4. **cache sanity** — hit + miss = accesses per cache (by construction
   of :class:`CacheStats`, re-checked against aggregate energy counters
   when energy tracking is on);
5. **predictor sanity** — exact + close ≤ predictions, binary_correct ≤
   binary_total;
6. **coherence sanity** — with a single active node there must be no
   cache-to-cache transfers or invalidations.
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError
from repro.sim.simulator import SimulationResult


def validate_result(result: SimulationResult) -> List[str]:
    """Run all consistency checks; returns the list of check names run.

    Raises :class:`SimulationError` on the first violated identity.
    """
    checks = [
        _check_instruction_conservation,
        _check_cycle_composition,
        _check_offload_accounting,
        _check_cache_sanity,
        _check_predictor_sanity,
        _check_coherence_sanity,
    ]
    for check in checks:
        check(result)
    return [check.__name__.lstrip("_") for check in checks]


def _fail(message: str) -> None:
    raise SimulationError(f"result validation failed: {message}")


def _check_instruction_conservation(result: SimulationResult) -> None:
    stats = result.stats
    roi = result.config.profile.scaled_roi
    for index, core in enumerate(stats.cores):
        executed = core.instructions
        # Off-loaded OS instructions were executed remotely on this
        # core's behalf; per-core attribution is via the offload stats.
        if stats.offload.offloaded_instructions + executed < roi:
            _fail(
                f"user core {index} plus off-loaded work covers "
                f"{executed + stats.offload.offloaded_instructions} < ROI {roi}"
            )
    total = stats.total_instructions
    if total < roi:
        _fail(f"total instructions {total} below the ROI {roi}")
    if stats.os_core.instructions != stats.offload.offloaded_instructions:
        _fail(
            f"OS core executed {stats.os_core.instructions} instructions "
            f"but {stats.offload.offloaded_instructions} were off-loaded"
        )


def _check_cycle_composition(result: SimulationResult) -> None:
    for index, core in enumerate(result.stats.cores):
        recomposed = (
            core.busy_cycles + core.offload_wait_cycles
            + core.decision_cycles + core.idle_cycles
        )
        if core.total_cycles != recomposed:
            _fail(f"core {index} cycle buckets do not sum to its total")
        if core.queue_cycles > core.offload_wait_cycles:
            _fail(f"core {index} queue cycles exceed its off-load wait")
        if core.migration_cycles > core.offload_wait_cycles:
            _fail(f"core {index} migration cycles exceed its off-load wait")
        if min(core.busy_cycles, core.offload_wait_cycles,
               core.decision_cycles, core.idle_cycles) < 0:
            _fail(f"core {index} has a negative cycle bucket")


def _check_offload_accounting(result: SimulationResult) -> None:
    offload = result.stats.offload
    if offload.offloads > offload.os_entries:
        _fail(
            f"{offload.offloads} offloads exceed {offload.os_entries} entries"
        )
    if offload.offloaded_instructions > offload.os_instructions:
        _fail("off-loaded instructions exceed total OS instructions")
    if offload.queue_delay_events != offload.offloads:
        _fail(
            f"{offload.queue_delay_events} queue events for "
            f"{offload.offloads} offloads"
        )


def _check_cache_sanity(result: SimulationResult) -> None:
    stats = result.stats
    for group_name, group in (("l1", stats.l1), ("l1i", stats.l1i),
                              ("l2", stats.l2)):
        for label, cache in group.items():
            if cache.hits < 0 or cache.misses < 0:
                _fail(f"{group_name}[{label}] has negative counters")
    # L2 traffic is a subset of L1 traffic (L1 misses plus nothing else).
    l1_misses = sum(c.misses for c in stats.l1.values()) + sum(
        c.misses for c in stats.l1i.values()
    )
    l2_accesses = sum(c.accesses for c in stats.l2.values())
    if l2_accesses > l1_misses:
        _fail(
            f"L2 saw {l2_accesses} accesses but only {l1_misses} L1 misses "
            "occurred"
        )


def _check_predictor_sanity(result: SimulationResult) -> None:
    predictor = result.stats.predictor
    if predictor.exact + predictor.close > predictor.predictions:
        _fail("predictor accuracy buckets exceed prediction count")
    if predictor.binary_correct > predictor.binary_total:
        _fail("binary_correct exceeds binary_total")
    if predictor.global_fallbacks > predictor.predictions:
        _fail("fallback count exceeds prediction count")


def _check_coherence_sanity(result: SimulationResult) -> None:
    stats = result.stats
    coherence = stats.coherence
    if min(coherence.cache_to_cache_transfers, coherence.invalidations,
           coherence.directory_lookups) < 0:
        _fail("negative coherence counter")
    os_touched = stats.l2.get("os")
    single_node = (
        len(stats.cores) == 1
        and (os_touched is None or os_touched.accesses == 0)
    )
    if single_node and coherence.cache_to_cache_transfers > 0:
        _fail("cache-to-cache transfers recorded with one active node")
    if single_node and coherence.invalidations > 0:
        _fail("invalidations recorded with one active node")
