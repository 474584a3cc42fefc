"""Run-level observability: phase timers, event traces, manifests.

The simulator's engine ladder is fast enough that the next regressions
will be *silent* — a cold fusion-plan cache or a probe-shape miss
shows up only as a fuzzy wall-clock delta.  This package is the
introspection substrate that makes such regressions attributable after
the fact:

``repro.obs.metrics``
    :class:`~repro.obs.metrics.PhaseTimers` — monotonic wall-clock
    accumulators the engines charge per pipeline phase (decode,
    CFG/fusion, probe compilation, execution).

``repro.obs.events``
    An opt-in buffered JSONL span/event emitter
    (:class:`~repro.obs.events.EventLog`), enabled per run through
    ``MachineConfig(obs_events=...)``.  Off by default; when on it
    records run manifests, statistics and phase times at under 2%
    timed overhead (gated in CI).

``repro.obs.manifest``
    The run manifest — knobs, engine, cache geometry, git sha, host —
    attached to every :class:`~repro.machine.cpu.RunResult` and every
    sharded-harness cell, so any recorded number can be traced back
    to the exact configuration that produced it.

``repro.obs.report``
    ``python -m repro.obs.report`` — renders per-run results and
    phase-time breakdowns from an obs JSONL, and A/B diffs of two
    runs or two ``BENCH_engine.json`` records.
"""

from repro.obs.events import EventLog, read_events
from repro.obs.manifest import run_manifest
from repro.obs.metrics import PhaseTimers

__all__ = [
    "EventLog",
    "read_events",
    "run_manifest",
    "PhaseTimers",
]
