"""One declarative entry point for every sensitivity sweep.

Each sweep has the same shape: build a (workload × grid) job list,
resolve it through the result cache, run the misses, reduce.
:func:`run_sweep` does that for every kind behind a declarative
:class:`SweepSpec`::

    from repro.harness import SweepSpec, run_sweep

    spec = SweepSpec(kind="objtable", workloads=("treeadd", "power"),
                     grid=(0.0, 0.5, 0.95))
    curve = run_sweep(spec, workers=4, cache=ResultCache(".repro-cache"))

and every spec executes identically on all three backends:

* in process (``workers=1``),
* a fresh pool (``workers=N`` — :func:`map_jobs`),
* the persistent service (``service=`` a
  :class:`repro.service.Client` or in-process ``Service``), where
  cells are submitted with their content-hash keys so identical
  in-flight cells deduplicate and the shared store serves repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.harness.parallel import (
    ResultCache,
    _ccured_fraction_cell,
    _objtable_descriptor,
    _objtable_elision_cell,
    _run_cached_jobs,
    _tag_cache_cell,
    _tag_cache_descriptor,
    descriptor,
)
from repro.machine.config import ENGINE_BLOCKS, ENGINES
from repro.workloads.registry import WORKLOADS

#: registered sweep kinds (the validation error lists these)
SWEEP_KINDS = ("ccured", "objtable", "tagcache")


@dataclass(frozen=True)
class SweepSpec:
    """Declarative identity of one sensitivity sweep.

    ``kind``
        one of :data:`SWEEP_KINDS` — ``"ccured"`` (SAFE-fraction
        grid), ``"objtable"`` (elision-fraction grid), or
        ``"tagcache"`` (tag-metadata-cache size grid);
    ``workloads``
        workload names (any iterable; stored as a tuple);
    ``grid``
        the swept values — fractions for the first two kinds, sizes
        in bytes for ``"tagcache"``;
    ``encoding``
        pointer encoding (``"tagcache"`` only);
    ``engine``
        execution engine for the cells that take one (the ccured
        cells run the software fat-pointer engine and ignore it).
    """

    kind: str
    workloads: Tuple[str, ...]
    grid: Tuple = field(default_factory=tuple)
    encoding: str = "extern4"
    engine: str = ENGINE_BLOCKS

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "grid", tuple(self.grid))
        if self.kind not in SWEEP_KINDS:
            raise ValueError("unknown sweep kind %r (have: %s)"
                             % (self.kind, ", ".join(SWEEP_KINDS)))
        if not self.workloads:
            raise ValueError("SweepSpec needs at least one workload")
        if not self.grid:
            raise ValueError("SweepSpec needs a non-empty grid")
        for name in self.workloads:
            if name not in WORKLOADS:
                raise ValueError("unknown workload %r (have: %s)"
                                 % (name, ", ".join(WORKLOADS)))
        if self.engine not in ENGINES:
            raise ValueError("unknown engine %r (have: %s)"
                             % (self.engine, ", ".join(ENGINES)))


def _ccured_descriptor(name: str, fraction: Optional[float]) -> dict:
    """Cell identity for the CCured SAFE-fraction sweep.

    ``fraction=None`` is the plain-core baseline cell.
    """
    return descriptor(name, sweep="ccured-safe", fraction=fraction)


def _ccured_jobs(spec: SweepSpec):
    jobs = [(name, None) for name in spec.workloads]
    jobs += [(name, fraction) for fraction in spec.grid
             for name in spec.workloads]
    return jobs


def _ccured_reduce(spec: SweepSpec, results: Dict) -> Dict[float, float]:
    # cells return (name, fraction, cycles) tuples
    cycles = {job: results[job][2] for job in results}
    return {fraction: sum(cycles[(name, fraction)]
                          / cycles[(name, None)]
                          for name in spec.workloads)
            / len(spec.workloads)
            for fraction in spec.grid}


def _objtable_jobs(spec: SweepSpec):
    jobs = [(name, None, spec.engine) for name in spec.workloads]
    jobs += [(name, fraction, spec.engine) for fraction in spec.grid
             for name in spec.workloads]
    return jobs


def _objtable_reduce(spec: SweepSpec,
                     results: Dict) -> Dict[float, float]:
    out: Dict[float, float] = {}
    for fraction in spec.grid:
        total = 0.0
        for name in spec.workloads:
            base = results[(name, None, spec.engine)]
            summary = results[(name, fraction, spec.engine)]
            total += (base.cycles + summary.extra_uops) / base.cycles
        out[fraction] = total / len(spec.workloads)
    return out


def _tagcache_jobs(spec: SweepSpec):
    return [(name, size, spec.encoding, spec.engine)
            for name in spec.workloads for size in spec.grid]


def _tagcache_reduce(spec: SweepSpec, results: Dict
                     ) -> Dict[Tuple[str, int], Dict[str, float]]:
    out: Dict[Tuple[str, int], Dict[str, float]] = {}
    for name in spec.workloads:
        for size in spec.grid:
            run = results[(name, size, spec.encoding, spec.engine)]
            tag = run.mem_stats.kinds["tag"]
            out[(name, size)] = {
                "cycles": run.cycles,
                "tag_miss_rate": (tag.l1_misses / tag.accesses
                                  if tag.accesses else 0.0),
            }
    return out


class _SweepKind:
    __slots__ = ("jobs", "cell", "descriptor", "reduce")

    def __init__(self, jobs: Callable, cell: Callable,
                 descriptor: Callable, reduce: Callable):
        self.jobs = jobs
        self.cell = cell
        self.descriptor = descriptor
        self.reduce = reduce


_KINDS: Dict[str, _SweepKind] = {
    "ccured": _SweepKind(_ccured_jobs, _ccured_fraction_cell,
                         _ccured_descriptor, _ccured_reduce),
    "objtable": _SweepKind(_objtable_jobs, _objtable_elision_cell,
                           _objtable_descriptor, _objtable_reduce),
    "tagcache": _SweepKind(_tagcache_jobs, _tag_cache_cell,
                           _tag_cache_descriptor, _tagcache_reduce),
}


def run_sweep(spec: SweepSpec, *, workers: int = 2,
              cache: Optional[ResultCache] = None, service=None):
    """Execute one :class:`SweepSpec` and reduce it (see module).

    Returns ``{fraction: mean overhead}`` for ``ccured``/``objtable``,
    ``{(workload, size): {"cycles", "tag_miss_rate"}}`` for
    ``tagcache``.  ``service`` (a ``repro.service`` Client or
    Service) takes precedence over ``workers``.
    """
    kind = _KINDS[spec.kind]
    results = _run_cached_jobs(kind.jobs(spec), kind.cell,
                               kind.descriptor, workers, cache,
                               service=service)
    return kind.reduce(spec, results)
