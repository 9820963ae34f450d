"""Uniform-latency main memory model.

The paper uses a flat 350-cycle memory latency "based on real machine
timings from Brown and Tullsen"; there is no bank/row modelling.  We keep
a counter of fetches so benchmarks can report memory traffic, and expose
the latency through a method so a future non-uniform model can slot in.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class MainMemory:
    """Flat-latency DRAM endpoint for the coherence hierarchy."""

    def __init__(self, latency: int = 350):
        if latency < 0:
            raise ConfigurationError("DRAM latency must be non-negative")
        self._latency = latency
        self.fetches = 0
        self.writebacks = 0

    @property
    def latency(self) -> int:
        return self._latency

    def fetch(self) -> int:
        """Charge one line fetch; returns its latency in cycles."""
        self.fetches += 1
        return self._latency

    def writeback(self) -> int:
        """Record a dirty-line writeback.

        Writebacks happen off the critical path (the paper models uniform
        access latency only), so the returned latency is zero; the counter
        still lets benchmarks report write traffic.
        """
        self.writebacks += 1
        return 0
