"""Monotonic phase timers.

:class:`PhaseTimers` — wall-clock accumulators charged at *phase
granularity* (a run has a handful of phase transitions, never one per
instruction), so the *hot path* pays nothing it was not already
paying.  This follows the low-overhead statistical-counter rule: keep
the increment local and cheap, pay aggregation costs at read time.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict


class _Phase:
    """Context manager charging one phase on exit."""

    __slots__ = ("timers", "name", "t0")

    def __init__(self, timers: "PhaseTimers", name: str):
        self.timers = timers
        self.name = name

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.timers.add(self.name, perf_counter() - self.t0)
        return False


class PhaseTimers:
    """Monotonic wall-clock accumulators, one per pipeline phase.

    The engines charge the canonical phases ``decode`` (env binding),
    ``cfg_fusion`` (block discovery and template fusion, or warm-plan
    rebinding, plus every fuser the run loop builds, compiles and
    binds, block or one-instruction, on both template engines),
    ``probe_compile`` (memory-system construction, where the fast
    timing model's per-geometry drain compiles) and ``execute`` (the
    dispatch loop, wall-clock, entry to exit, net of the fuser builds,
    with the timing log's drains).  Nothing
    enforces that set — ad-hoc phases time fine — but the report CLI
    knows how to present the canonical ones.
    """

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, phase: str, dt: float) -> None:
        """Charge ``dt`` seconds (one call) to ``phase``."""
        seconds = self.seconds
        seconds[phase] = seconds.get(phase, 0.0) + dt
        calls = self.calls
        calls[phase] = calls.get(phase, 0) + 1

    def phase(self, name: str) -> _Phase:
        """``with timers.phase("decode"): ...``"""
        return _Phase(self, name)

    def snapshot(self) -> Dict[str, float]:
        """``{phase: cumulative_seconds}`` copy (the shape carried on
        ``RunResult.phases`` and in ``run_end`` events)."""
        return dict(self.seconds)

    def total(self) -> float:
        """Sum of all phase seconds."""
        return sum(self.seconds.values())
