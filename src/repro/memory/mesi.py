"""Directory-based MESI coherence protocol state.

The paper keeps two (or more) private L2 caches coherent with a
directory-based MESI protocol over a point-to-point interconnect, and
models "directory lookup, cache-to-cache transfers, and coherence
invalidation overheads independently".

This module holds the *directory* side of the protocol: for every line
that is cached anywhere it tracks the set of sharer nodes and whether one
of them holds the line exclusively (E or M).  The per-cache line states
live inside :class:`repro.memory.cache.Cache`; the
:class:`repro.memory.hierarchy.MemoryHierarchy` drives both in lock-step
and enforces the protocol invariants:

- a line in M or E in one cache is in no other cache;
- a line in S may be in several caches, all in S;
- the directory's sharer set exactly matches the caches holding the line.

The directory is consulted only on L2 misses and upgrades, which both
engines route through the same scalar protocol helpers: the batched
engine vectorizes only the per-reference L1 fast path.  Protocol
transitions therefore stay on one code path, which is what makes the
scalar-versus-batched engine matrix a meaningful differential test
rather than two parallel implementations of MESI.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.errors import SimulationError
from repro.sim.stats import CoherenceStats


class DirectoryEntry:
    """Directory state for a single line.

    ``owner`` is the node id holding the line in E or M, or ``-1`` when
    the line is shared (or uncached).  ``sharers`` is the set of nodes
    with any copy, including the exclusive owner.
    """

    __slots__ = ("sharers", "owner")

    def __init__(self) -> None:
        self.sharers: Set[int] = set()
        self.owner: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DirectoryEntry(sharers={self.sharers}, owner={self.owner})"


class Directory:
    """Full-map directory over the private L2 caches.

    The directory is accessed on every L2 miss and on upgrade (S->M)
    requests.  It answers "who has this line" so the hierarchy can charge
    the right latency (cache-to-cache transfer vs. DRAM fetch) and send
    the right invalidations.
    """

    def __init__(self, stats: CoherenceStats):
        self.stats = stats
        self._entries: Dict[int, DirectoryEntry] = {}

    def lookup(self, line: int) -> DirectoryEntry:
        """Return (creating if absent) the entry for ``line``.

        Counts a directory lookup; latency is charged by the hierarchy.
        """
        self.stats.directory_lookups += 1
        entry = self._entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line] = entry
        return entry

    def peek(self, line: int) -> DirectoryEntry:
        """Entry for ``line`` without counting a lookup (checks/tests)."""
        entry = self._entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line] = entry
        return entry

    def record_fill(self, line: int, node: int, exclusive: bool) -> None:
        """Note that ``node`` now holds ``line``.

        ``exclusive`` marks an E/M fill; the caller must already have
        invalidated or downgraded other copies.
        """
        entry = self.peek(line)
        if exclusive:
            if entry.sharers - {node}:
                raise SimulationError(
                    f"exclusive fill of line {line} by node {node} while "
                    f"sharers {entry.sharers} still hold it"
                )
            entry.owner = node
        else:
            entry.owner = -1
        entry.sharers.add(node)

    def record_eviction(self, line: int, node: int) -> None:
        """Note that ``node`` dropped its copy of ``line``."""
        entry = self._entries.get(line)
        if entry is None:
            return
        entry.sharers.discard(node)
        if entry.owner == node:
            entry.owner = -1
        if not entry.sharers:
            del self._entries[line]

    def downgrade_owner(self, line: int) -> None:
        """Owner moves from E/M to S (another node read the line)."""
        entry = self._entries.get(line)
        if entry is not None:
            entry.owner = -1

    def set_owner(self, line: int, node: int) -> None:
        """Promote ``node`` to exclusive owner (after invalidating others)."""
        entry = self.peek(line)
        entry.owner = node
        entry.sharers = {node}

    def sharers_of(self, line: int) -> Set[int]:
        """Current sharer set (empty when uncached); no lookup counted."""
        entry = self._entries.get(line)
        return set(entry.sharers) if entry is not None else set()

    def tracked_lines(self) -> Set[int]:
        """All lines with at least one cached copy (for invariant checks)."""
        return set(self._entries)

    def snapshot(self) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """Deterministic ``{line: (owner, sorted sharers)}`` view.

        Entries with no sharers (created by :meth:`peek` probes) are
        omitted, so the snapshot depends only on protocol transitions.
        The differential engine tests assert that scalar and batched
        runs of the same cell end with *equal snapshots* — a stronger
        bit-identity check than comparing counters alone.
        """
        return {
            line: (entry.owner, tuple(sorted(entry.sharers)))
            for line, entry in self._entries.items()
            if entry.sharers
        }
