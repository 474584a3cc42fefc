"""Workload runner: compile once, run one workload per configuration."""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional

from repro.baselines.fatptr import SETBOUND_EXTRA_UOPS
from repro.caches.hierarchy import CacheParams
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.cpu import CPU, RunResult
from repro.minic.codegen import InstrumentMode
from repro.minic.driver import compile_program, mode_for_config
from repro.workloads.registry import WORKLOADS, Workload

#: the three encodings of Figure 5, in bar order
ENCODINGS = ("extern4", "intern4", "intern11")

_program_cache: Dict[tuple, Program] = {}


def source_digest(source: str) -> str:
    """Stable content hash of a workload source (also used by the
    parallel harness's on-disk cache keys)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compile_cached(source: str, mode: InstrumentMode,
                   optimize: bool = True) -> Program:
    """Compile with memoization (programs are reusable across runs).

    Keyed on a sha256 content digest plus the instrumentation mode
    and the optimizer knob: ``hash(source)`` would be unstable across
    interpreter runs under hash randomization and collision-prone
    within one, and an optimized program must never be served for an
    ``optimize=False`` request (or vice versa).
    """
    key = (source_digest(source), mode, optimize)
    if key not in _program_cache:
        _program_cache[key] = compile_program(source, mode,
                                              optimize=optimize)
    return _program_cache[key]


def run_workload(workload, config: MachineConfig,
                 cache_params: Optional[CacheParams] = None,
                 observer=None, optimize: bool = True) -> RunResult:
    """Run one workload (by name or object) under a configuration.

    With event tracing on and no explicit label, the workload name is
    stamped as the run's ``obs_label`` so obs reports and A/B diffs
    can match runs across files.
    """
    if isinstance(workload, str):
        workload = WORKLOADS[workload]
    if config.obs_events and not config.obs_label:
        config = dataclasses.replace(config, obs_label=workload.name)
    program = compile_cached(workload.source, mode_for_config(config),
                             optimize)
    cpu = CPU(program, config, cache_params)
    if observer is not None:
        cpu.observer = observer
    return cpu.run()


class BenchmarkRun:
    """All measurements for one workload (Figures 5-7 inputs)."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.name = workload.name
        self.base: Optional[RunResult] = None
        self.encodings: Dict[str, RunResult] = {}
        self.ccured: Optional[RunResult] = None
        #: the object-table baseline's
        #: :class:`~repro.harness.parallel.ObjTableSummary`
        self.objtable = None

    # -- derived metrics ----------------------------------------------------

    def overhead(self, encoding: str) -> float:
        """Relative runtime of an encoding vs. the plain baseline."""
        return self.encodings[encoding].cycles / self.base.cycles

    def ccured_uop_overhead(self) -> float:
        run = self.ccured
        uops = run.uops + SETBOUND_EXTRA_UOPS * run.setbound_uops
        return uops / self.base.uops

    def ccured_runtime_overhead(self) -> float:
        run = self.ccured
        cycles = run.cycles + SETBOUND_EXTRA_UOPS * run.setbound_uops
        return cycles / self.base.cycles

    def objtable_runtime_overhead(self) -> float:
        return (self.base.cycles + self.objtable.extra_uops) \
            / self.base.cycles

    def page_overhead(self, encoding: str) -> Dict[str, float]:
        """Figure 6: extra distinct pages, split by metadata kind."""
        stats = self.encodings[encoding].mem_stats
        base_pages = self.base.mem_stats.distinct_pages("data")
        return {
            "base_pages": base_pages,
            "tag": stats.distinct_pages("tag") / base_pages,
            "shadow": stats.distinct_pages("shadow") / base_pages,
            "total": (stats.distinct_pages("tag")
                      + stats.distinct_pages("shadow")) / base_pages,
        }
