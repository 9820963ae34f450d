"""SMT user cores: the paper's 2-threads-per-core server mapping.

Section II: "Our server benchmarks map two threads per core ... This
2:1 mapping allows workloads that might stall on I/O operations to
continue making progress, if possible."  In an off-loading system the
same mechanism hides migration and OS-core time: while one hardware
thread is blocked on an off-loaded invocation, the core executes its
sibling.

:class:`SMTOffloadEngine` extends the base engine with a blocked-switch
scheduler: each user core owns ``threads_per_user_core`` thread
contexts, runs one at a time, and switches when the running thread
blocks on an off-load.  The core idles only when *every* thread is
blocked.  Per-core wall time therefore satisfies

``wall = executed cycles + decision cycles + idle``

and the idle component is reported through the existing
``offload_wait_cycles`` bucket so all downstream throughput accounting
(:class:`~repro.sim.stats.SimulationStats`) works unchanged.  Queue and
migration cycles are accounted in the off-load statistics only — with
overlap they are no longer core-blocking quantities.

The single-threaded base engine remains the calibrated configuration;
``simulate`` picks this engine automatically when
``config.threads_per_user_core > 1``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import SimulationError
from repro.obs import names
from repro.obs.events import MigrationEvent, QueueEvent
from repro.offload.engine import OS_MODE, USER_MODE, OffloadEngine
from repro.offload.phases import TRACE_SHORT, generation_budget
from repro.workloads.base import OSInvocation, UserSegment
from repro.workloads.generator import TraceEvent, TraceGenerator


class _ThreadState:
    """One hardware thread's trace position and blocking state."""

    __slots__ = ("thread_id", "generator", "events", "executed",
                 "blocked_until", "done")

    def __init__(self, thread_id: int, generator: TraceGenerator,
                 events: Iterator[TraceEvent]):
        self.thread_id = thread_id
        self.generator = generator
        self.events = events
        self.executed = 0
        self.blocked_until = 0
        self.done = False


class SMTOffloadEngine(OffloadEngine):
    """Off-loading engine with multi-threaded user cores."""

    def __init__(self, spec, policy, migration, config, controller=None,
                 bus=None, metrics=None, trace_store=None, profiler=None):
        super().__init__(spec, policy, migration, config, controller,
                         bus=bus, metrics=metrics, trace_store=trace_store,
                         profiler=profiler)
        threads = config.threads_per_user_core
        if threads < 2:
            raise SimulationError(
                "SMTOffloadEngine requires threads_per_user_core >= 2; "
                "use OffloadEngine for the single-threaded configuration"
            )
        budget = generation_budget(config.profile)
        # Per user core: a list of thread states with globally unique
        # thread ids (disjoint address regions per thread).
        self._threads: List[List[_ThreadState]] = []
        for core_index in range(config.num_user_cores):
            group: List[_ThreadState] = []
            for slot in range(threads):
                thread_id = core_index * threads + slot
                if trace_store is not None:
                    with self.profiler.span(names.SPAN_TRACE_LOAD):
                        generator = trace_store.trace_source(
                            spec, config, thread_id, budget
                        )
                else:
                    generator = TraceGenerator(
                        spec, config.profile, seed=config.seed,
                        thread_id=thread_id,
                    )
                group.append(
                    _ThreadState(thread_id, generator,
                                 generator.events(budget))
                )
            self._threads.append(group)
        # Absolute per-core clocks (never reset; used for queue arrivals).
        self._core_clock: List[int] = [0] * config.num_user_cores

    # ------------------------------------------------------------------
    # phase machinery (blocked-switch scheduling)
    # ------------------------------------------------------------------

    def _run_phase(self, budget: int, epochs: bool) -> Tuple[int, int]:
        if budget <= 0:
            return 0, 0
        total = 0
        os_total = 0
        phase_start = list(self._core_clock)
        busy_start = [
            self.stats.cores[i].busy_cycles + self.stats.cores[i].decision_cycles
            for i in range(len(self._core_clock))
        ]
        for group in self._threads:
            for thread in group:
                thread.executed = 0
                thread.done = False

        active_cores = set(range(len(self._threads)))
        while active_cores:
            core_index = min(active_cores, key=lambda i: self._core_clock[i])
            executed, os_executed = self._step_core(core_index, budget)
            total += executed
            os_total += os_executed
            if epochs and executed:
                self._epoch_executed += executed
                self._maybe_end_epoch()
            if all(t.done for t in self._threads[core_index]):
                active_cores.discard(core_index)

        # Report: wall = clock advance (plus any outstanding off-load);
        # everything not spent executing or deciding is off-load idle.
        for core_index, group in enumerate(self._threads):
            outstanding = max(
                (t.blocked_until for t in group), default=0
            )
            end = max(self._core_clock[core_index], outstanding)
            self._core_clock[core_index] = end
            wall = end - phase_start[core_index]
            stats = self.stats.cores[core_index]
            executed_cycles = (
                stats.busy_cycles + stats.decision_cycles - busy_start[core_index]
            )
            stats.offload_wait_cycles += max(0, wall - executed_cycles)
        return total, os_total

    def _step_core(self, core_index: int, budget: int) -> Tuple[int, int]:
        """Advance one core by one event (or one idle skip).

        Returns ``(instructions_executed, os_instructions_executed)``.
        """
        group = self._threads[core_index]
        clock = self._core_clock[core_index]
        runnable = [
            t for t in group if not t.done and t.blocked_until <= clock
        ]
        if not runnable:
            # Every live thread is blocked: idle until the earliest one
            # returns from its off-load.
            next_ready = min(
                t.blocked_until for t in group if not t.done
            )
            self._core_clock[core_index] = next_ready
            return 0, 0

        # Round-robin flavour: least-recently-ready thread first.
        thread = min(runnable, key=lambda t: t.blocked_until)
        event = next(thread.events, None)
        if event is None:
            raise SimulationError(TRACE_SHORT)
        core = self.contexts[core_index].core
        ctx = self.contexts[core_index]

        if isinstance(event, UserSegment):
            prof = self.profiler
            t0 = prof.t() if prof.enabled else 0
            lines, writes = thread.generator.user_accesses(event.instructions)
            code_lines = (
                thread.generator.user_code_accesses(event.instructions)
                if self.config.enable_icache
                else None
            )
            if prof.enabled:
                t1 = prof.t()
                prof.add_ns(self._gen_span, t1 - t0)
            stalls = self._replay(core_index, lines, writes, ctx.tlb)
            if code_lines is not None:
                stalls += self._replay_code(core_index, code_lines)
            if prof.enabled:
                prof.add_ns(self._mem_span, prof.t() - t1)
            if ctx.branch is not None:
                stalls += ctx.branch.execute(event.instructions, USER_MODE)
            cycles = core.retire(event.instructions, stalls)
            self._core_clock[core_index] += cycles
            thread.executed += event.instructions
            if thread.executed >= budget:
                thread.done = True
            return event.instructions, 0

        assert isinstance(event, OSInvocation)
        executed = self._run_smt_invocation(core_index, thread, event)
        thread.executed += event.length
        if thread.executed >= budget:
            thread.done = True
        return event.length, event.length

    def _run_smt_invocation(
        self, core_index: int, thread: _ThreadState, invocation: OSInvocation
    ) -> None:
        offload_stats = self.stats.offload
        offload_stats.os_instructions += invocation.length
        ctx = self.contexts[core_index]
        core = ctx.core

        run_locally = (
            invocation.is_window_trap and not self.config.include_window_traps
        )
        prof = self.profiler
        decision = None
        if not run_locally:
            offload_stats.os_entries += 1
            t0 = prof.t() if prof.enabled else 0
            decision = self.policy.decide(invocation)
            if prof.enabled:
                prof.add_ns(names.SPAN_POLICY_DECIDE, prof.t() - t0)
            if decision.overhead_cycles:
                core.pay_decision(decision.overhead_cycles)
                self._core_clock[core_index] += decision.overhead_cycles

        t0 = prof.t() if prof.enabled else 0
        lines, writes = thread.generator.os_accesses(invocation)
        code_lines = (
            thread.generator.os_code_accesses(invocation)
            if self.config.enable_icache
            else None
        )
        if prof.enabled:
            prof.add_ns(self._gen_span, prof.t() - t0)

        do_offload = decision is not None and decision.offload
        if do_offload and self._admission_enabled:
            if not self.oscore.admit(
                self._core_clock[core_index], thread=thread.thread_id
            ):
                offload_stats.admission_drops += 1
                do_offload = False
        migration_cycles = 0
        if do_offload:
            offload_stats.offloads += 1
            offload_stats.offloaded_instructions += invocation.length
            one_way = self.migration.one_way_latency
            t0 = prof.t() if prof.enabled else 0
            stalls = self._replay(self.os_node_id, lines, writes, self.os_tlb)
            if code_lines is not None:
                stalls += self._replay_code(self.os_node_id, code_lines)
            if prof.enabled:
                prof.add_ns(self._mem_span, prof.t() - t0)
            if self.os_branch is not None:
                stalls += self.os_branch.execute(invocation.length, OS_MODE)
            service = (
                one_way
                + int(invocation.length * self.config.core.base_cpi)
                + stalls
            )
            arrival = self._core_clock[core_index]
            t0 = prof.t() if prof.enabled else 0
            start, queue_delay = self.oscore.serve(
                arrival, service, thread=thread.thread_id
            )
            if prof.enabled:
                prof.add_ns(names.SPAN_QUEUE, prof.t() - t0)
            self.stats.os_core.instructions += invocation.length
            self.stats.os_core.busy_cycles += service
            migration_cycles = 2 * one_way
            # The THREAD blocks; the core stays free for its siblings.
            thread.blocked_until = start + service + one_way
            if self.bus.enabled:
                self.bus.emit(MigrationEvent(
                    core=core_index, phase=self._phase_label,
                    vector=invocation.vector, length=invocation.length,
                    one_way_latency=one_way, service_cycles=service,
                ))
                self.bus.emit(QueueEvent(
                    core=core_index, phase=self._phase_label,
                    arrival=arrival, start=start, queue_delay=queue_delay,
                    service_cycles=service,
                ))
            if self._queue_hist is not None:
                self._queue_hist.observe(queue_delay)
        else:
            t0 = prof.t() if prof.enabled else 0
            stalls = self._replay(core_index, lines, writes, ctx.tlb)
            if code_lines is not None:
                stalls += self._replay_code(core_index, code_lines)
            if prof.enabled:
                prof.add_ns(self._mem_span, prof.t() - t0)
            if ctx.branch is not None:
                stalls += ctx.branch.execute(invocation.length, OS_MODE)
            cycles = core.retire(invocation.length, stalls)
            self._core_clock[core_index] += cycles
        if decision is not None:
            if self.bus.enabled:
                self._emit_decision(
                    core_index, invocation, decision, migration_cycles
                )
            if self._length_hist is not None:
                self._length_hist.observe(invocation.length)
            t0 = prof.t() if prof.enabled else 0
            self.policy.observe(invocation, decision)
            if prof.enabled:
                prof.add_ns(names.SPAN_POLICY_DECIDE, prof.t() - t0)
