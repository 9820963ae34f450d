"""Per-context phase accounting, shared by the engines and the trace recorder.

A run has two timed phases in order: a warm-up, then the region of
interest (the paper's Section IV).  In each phase every engine context
takes events from its own trace until its phase count reaches the
phase budget; the count then resets for the next phase, and a
non-positive budget is skipped.  An event counts its full length,
user or privileged, whatever the policy does with it.

So the events one context consumes are fixed by its trace alone:
neither the interleaving of contexts nor policy, threshold, latency,
core count, service mode or threshold adaptation can change them.
:func:`consumed_prefix` applies this rule to a stream, which lets the
trace store record exactly what a run will replay.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.sim.config import ScaleProfile
from repro.workloads.base import UserSegment
from repro.workloads.generator import TraceEvent

#: The engines' error when a context's trace ends inside a phase.  A
#: live generator always covers :func:`generation_budget`, so only a
#: stored trace recorded short of :func:`consumed_prefix` can end early.
TRACE_SHORT = (
    "trace exhausted before the phase budget: a stored trace stopped "
    "short of the phase budgets"
)


def phase_budgets(profile: ScaleProfile) -> Tuple[int, int]:
    """The per-context ``(warm-up, region of interest)`` instruction budgets."""
    return profile.scaled_warmup, profile.scaled_roi


def generation_budget(profile: ScaleProfile) -> int:
    """Instructions a context requests from its trace source.

    Twice both phases plus one.  The phases stop a run well inside this
    cap, so it only bounds a stream; :func:`consumed_prefix` says where
    a run really stops.
    """
    return sum(phase_budgets(profile)) * 2 + 1


def consumed_prefix(
    events: Iterable[TraceEvent], budgets: Iterable[int]
) -> Iterator[TraceEvent]:
    """Yield ``events`` up to the one that completes the last phase.

    Applies the per-context rule above to each budget in turn.  It never
    pulls an event past that one, and it ends early if ``events`` does.
    """
    stream = iter(events)
    for budget in budgets:
        executed = 0
        while executed < budget:
            event = next(stream, None)
            if event is None:
                return
            yield event
            executed += (
                event.instructions
                if isinstance(event, UserSegment)
                else event.length
            )
