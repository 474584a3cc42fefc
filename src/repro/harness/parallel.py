"""One cell runner for the figure matrix and every sensitivity sweep.

:func:`run_benchmark_matrix` splits the workload × encoding ×
baseline matrix into *cells* (one workload under one configuration
is one job), and :func:`repro.harness.sweep_api.run_sweep` does the
same for each sweep's grid.  Cells run in process by default, across
a pool of ``workers`` processes, or on the persistent service fleet.
An optional on-disk result cache, keyed by content hash, fronts
every backend: the simulator sources' digest, the workload's source
digest and the full cell configuration.  A warm rerun touches no
worker at all.

Every cell result is a pure-statistics snapshot
(:class:`~repro.machine.cpu.RunResult` without its CPU, or an
:class:`ObjTableSummary`), so results pickle cheaply across process
and cache boundaries and a long sweep holds no machine state.

Also usable as a CLI::

    PYTHONPATH=src python -m repro.harness.parallel --workers 4 --figure 5
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import pickle
from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.fatptr import SoftBoundEngine, ccured_sim_config
from repro.baselines.objtable import ObjectTableModel
from repro.caches.hierarchy import CacheParams
from repro.harness.runner import (
    BenchmarkRun,
    ENCODINGS,
    run_workload,
    source_digest,
)
from repro.machine.config import (
    ENGINE_BLOCKS,
    ENGINES,
    MachineConfig,
    SafetyMode,
)
from repro.obs.events import EventLog
# re-exported: every cell key reads it through this module
from repro.obs.manifest import code_digest
from repro.workloads.registry import WORKLOADS

#: environment knob: workers append their obs JSONL event streams to
#: this path (set by the CLI ``--obs`` flag; inherited by pool
#: processes).  Never part of any cache key — events don't change
#: results.
OBS_ENV = "REPRO_OBS"

#: cell kinds beyond the per-encoding HardBound runs
KIND_BASE = "base"
KIND_CCURED = "ccured"
KIND_OBJTABLE = "objtable"


class ObjTableSummary:
    """Picklable statistics snapshot of an :class:`ObjectTableModel`.

    Carries exactly what the figure pipeline consumes (``extra_uops``
    and the event counters) without the splay tree itself.
    """

    __slots__ = ("extra_uops", "arith_events", "alloc_events",
                 "mem_events", "elide_fraction", "manifest")

    def __init__(self, model: ObjectTableModel, manifest=None):
        self.extra_uops = model.extra_uops
        self.arith_events = model.arith_events
        self.alloc_events = model.alloc_events
        self.mem_events = model.mem_events
        self.elide_fraction = model.elide_fraction
        #: run manifest of the observed run (same shape as
        #: ``RunResult.manifest``), so every cached cell records the
        #: exact knobs/host that produced it
        self.manifest = manifest


class ResultCache:
    """Content-hash keyed on-disk pickle cache for cell results.

    One directory serves the harness and the service alike: sweeps
    read and write it, and the service's workers publish into it
    concurrently.  Publication is atomic (write to a per-pid temp
    file, then ``os.replace``), so readers never observe a partially
    written entry even with concurrent writers in other processes,
    and reads take no lock.  An entry that nevertheless fails to
    unpickle — a torn write from a crashed process, a file damaged at
    rest — is counted under ``corrupt`` (distinct from a clean miss)
    and *deleted*, so the caller's rerun rewrites it instead of
    tripping over the poisoned file forever.
    """

    def __init__(self, path: str):
        self.path = path
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        os.makedirs(path, exist_ok=True)

    def stats(self) -> Dict[str, int]:
        """Cumulative cache traffic of this instance."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "corrupt": self.corrupt}

    def __len__(self) -> int:
        """Entries published in the directory, by any process."""
        try:
            names = os.listdir(self.path)
        except OSError:
            return 0
        return sum(name.endswith(".pkl") for name in names)

    @staticmethod
    def key_of(descr: dict) -> str:
        """Deterministic key for a JSON-serializable cell descriptor."""
        blob = json.dumps(descr, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _file(self, key: str) -> str:
        return os.path.join(self.path, key + ".pkl")

    def get(self, key: str):
        path = self._file(key)
        try:
            fh = open(path, "rb")
        except OSError:
            self.misses += 1
            return None
        try:
            with fh:
                result = pickle.load(fh)
        except Exception:
            # a present-but-unreadable entry is not a clean miss:
            # count it separately and drop the poisoned file so the
            # caller's rerun rewrites it (matters once concurrent
            # service workers share the store)
            self.corrupt += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> None:
        tmp = self._file(key) + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, self._file(key))
        self.writes += 1


def map_jobs(fn, jobs: Iterable, workers: int = 2,
             service=None) -> List:
    """Run ``fn`` over ``jobs`` on a process pool, preserving order.

    The one pool idiom every sharded consumer shares (matrix sweeps,
    sensitivity sweeps, the fuzz CLI): ``workers <= 1`` degrades to
    an in-process loop — same results, no pool, picklability not
    required — which is also the debuggable path.  ``fn`` and each
    job must pickle when ``workers > 1``.

    With ``service`` (a ``repro.service`` Client or Service) the jobs
    go to the persistent warm-worker fleet instead of a fresh pool;
    ``workers`` is then ignored (the fleet's size rules).
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if service is not None:
        return service.map(fn, jobs)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _sweep_cache_summary(cache: Optional[ResultCache],
                         before: Dict[str, int]) -> Dict[str, int]:
    """One sweep's cache traffic: delta vs. the pre-sweep snapshot.

    When ``REPRO_OBS`` streams this sweep, the deltas land as a
    ``sweep_summary`` event after the workers' run events.
    """
    if cache is None:
        return {"hits": 0, "misses": 0, "writes": 0}
    summary = {name: count - before.get(name, 0)
               for name, count in cache.stats().items()}
    path = os.environ.get(OBS_ENV)
    if path:
        log = EventLog(path)
        log.emit("sweep_summary", **summary)
        log.flush()
    return summary


def _with_obs(config: MachineConfig) -> MachineConfig:
    """Worker-side obs knob: append events to the ``REPRO_OBS`` path.

    The path travels by environment (inherited by pool processes)
    rather than through job tuples so cell descriptors — and
    therefore cache keys — can never depend on it.
    """
    path = os.environ.get(OBS_ENV)
    if path:
        config.obs_events = path
    return config


def _cell_config(kind: str, timing: bool, engine: str) -> MachineConfig:
    if kind == KIND_BASE:
        return MachineConfig.plain(timing=timing, engine=engine)
    if kind == KIND_CCURED:
        config = ccured_sim_config(timing)
        config.engine = engine
        return config
    if kind == KIND_OBJTABLE:
        # the object-table model observes a functional HardBound run
        return MachineConfig.hardbound(timing=False, engine=engine)
    return MachineConfig.hardbound(encoding=kind, timing=timing,
                                   engine=engine)


def descriptor(workload: str, **fields) -> dict:
    """JSON-serializable identity of one cell (its cache key input).

    The fields every matrix and sweep cell shares — simulator code,
    workload source and name, optimizer pass — plus the cell's own
    ``fields``.
    """
    descr = {
        "code": code_digest(),
        "source": source_digest(WORKLOADS[workload].source),
        "workload": workload,
        # cells compile with the default optimizer pass
        "optimize": True,
    }
    descr.update(fields)
    return descr


def cell_descriptor(workload: str, kind: str, timing: bool,
                    engine: str) -> dict:
    """Identity of one matrix cell (the cache key)."""
    # objtable cells always run functionally (see _cell_config): key
    # on what actually runs so both sweeps share the entry
    return descriptor(workload, kind=kind,
                      timing=False if kind == KIND_OBJTABLE else timing,
                      engine=engine)


def run_cell(job: Tuple[str, str, bool, str]):
    """Worker entry point: run one (workload, kind) matrix cell."""
    workload, kind, timing, engine = job
    config = _with_obs(_cell_config(kind, timing, engine))
    if kind == KIND_OBJTABLE:
        model = ObjectTableModel()
        result = run_workload(workload, config, observer=model)
        return ObjTableSummary(model, result.manifest)
    return run_workload(workload, config)


def run_benchmark_matrix(
        workloads: Optional[Iterable[str]] = None,
        encodings: Iterable[str] = ENCODINGS,
        with_baselines: bool = True,
        timing: bool = True,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        engine: str = ENGINE_BLOCKS,
        service=None) -> Dict[str, BenchmarkRun]:
    """Run the measurement matrix of Section 5 (Figures 5-7).

    Per workload: a plain-core baseline, one HardBound run per
    encoding and (optionally) the CCured-simulation and object-table
    baselines.  Cells already present in ``cache`` are served from
    disk; the rest run in process (``workers=1``), over ``workers``
    processes, or — submitted with their content-hash keys — on the
    persistent ``service`` fleet.  Returns ``{workload:
    BenchmarkRun}`` with ``bench.objtable`` an
    :class:`ObjTableSummary`.
    """
    names = list(workloads) if workloads is not None else list(WORKLOADS)
    kinds: List[str] = [KIND_BASE] + list(encodings)
    if with_baselines:
        kinds += [KIND_CCURED, KIND_OBJTABLE]

    jobs = [(name, kind, timing, engine)
            for name in names for kind in kinds]
    by_job = _run_cached_jobs(jobs, run_cell,
                              cell_descriptor, workers, cache,
                              service=service)
    results = {job[:2]: result for job, result in by_job.items()}

    matrix: Dict[str, BenchmarkRun] = {}
    for name in names:
        bench = BenchmarkRun(WORKLOADS[name])
        bench.base = results[(name, KIND_BASE)]
        for enc in encodings:
            bench.encodings[enc] = results[(name, enc)]
        if with_baselines:
            bench.ccured = results[(name, KIND_CCURED)]
            bench.objtable = results[(name, KIND_OBJTABLE)]
        matrix[name] = bench
    return matrix


# -- sensitivity-sweep cells (driven by repro.harness.sweep_api) -----------

def _engine_factory(safe_fraction: float):
    def factory(encoding, memsys, check_uop, check_access_extent):
        return SoftBoundEngine(encoding, memsys, check_uop,
                               check_access_extent,
                               safe_fraction=safe_fraction)
    return factory


def _ccured_fraction_cell(
        job: Tuple[str, Optional[float]]) -> Tuple[str, Optional[float],
                                                   int]:
    """Worker: cycles of one workload at one CCured SAFE fraction.

    A ``None`` fraction is the plain-core baseline cell.
    """
    name, fraction = job
    if fraction is None:
        config = MachineConfig.plain()
    else:
        config = MachineConfig(mode=SafetyMode.FULL,
                               encoding="uncompressed",
                               engine_factory=_engine_factory(fraction))
    return name, fraction, run_workload(name, _with_obs(config)).cycles


def _objtable_elision_cell(job: Tuple[str, Optional[float], str]):
    """Worker: one workload at one object-table elision fraction.

    A ``None`` fraction is the plain-core baseline cell (timing on).
    """
    name, fraction, engine = job
    if fraction is None:
        return run_workload(name,
                            _with_obs(MachineConfig.plain(engine=engine)))
    model = ObjectTableModel(elide_fraction=fraction)
    result = run_workload(
        name, _with_obs(MachineConfig.hardbound(timing=False,
                                                engine=engine)),
        observer=model)
    return ObjTableSummary(model, result.manifest)


def _objtable_descriptor(name: str, fraction: Optional[float],
                         engine: str) -> dict:
    return descriptor(name, sweep="objtable-elision", fraction=fraction,
                      engine=engine)


def _tag_cache_cell(job: Tuple[str, int, str, str]):
    """Worker: one workload under one tag-metadata-cache size."""
    name, size, encoding, engine = job
    params = CacheParams(tag_cache_size=size)
    return run_workload(
        name, _with_obs(MachineConfig.hardbound(encoding=encoding,
                                                engine=engine)),
        cache_params=params)


def _tag_cache_descriptor(name: str, size: int, encoding: str,
                          engine: str) -> dict:
    return descriptor(name, sweep="tag-cache", tag_cache_size=size,
                      encoding=encoding, engine=engine)


def _map_pending(cell_fn, pending, pending_keys, workers,
                 service) -> List:
    """Run the cache misses: fresh pool, or keyed service submission.

    Through the service, each job carries its content-hash key so
    identical in-flight cells deduplicate on the dispatcher and the
    workers publish into the shared store.
    """
    if service is None:
        return map_jobs(cell_fn, pending, workers)
    from repro.service.dispatch import JobSpec
    futures = service.submit_many(
        [JobSpec(cell_fn, job, key=key)
         for job, key in zip(pending, pending_keys)])
    return [future.result() for future in futures]


def _run_cached_jobs(jobs, cell_fn, descriptor_fn, workers,
                     cache: Optional[ResultCache],
                     service=None) -> Dict:
    """Resolve jobs through the cache, shard the misses over a pool
    (or the persistent service fleet)."""
    before = cache.stats() if cache is not None else {}
    results: Dict = {}
    pending = []
    pending_keys: List[Optional[str]] = []
    want_keys = cache is not None or service is not None
    for job in jobs:
        key = None
        if want_keys:
            key = ResultCache.key_of(descriptor_fn(*job))
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[job] = hit
                continue
        pending.append(job)
        pending_keys.append(key)
    if pending:
        for job, result in zip(pending,
                               _map_pending(cell_fn, pending,
                                            pending_keys, workers,
                                            service)):
            results[job] = result
        if cache is not None:
            for job, key in zip(pending, pending_keys):
                cache.put(key, results[job])
    _sweep_cache_summary(cache, before)
    return results


# -- CLI --------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded figure-matrix runner with on-disk caching")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="workload subset (default: all nine)")
    parser.add_argument("--figure", type=int, choices=(5, 6, 7),
                        default=5, help="figure table to print")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="on-disk result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cache")
    parser.add_argument("--engine", default=ENGINE_BLOCKS,
                        help="execution engine "
                             "(blocks|decoded|legacy)")
    parser.add_argument("--sweep",
                        choices=("ccured", "objtable", "tagcache"),
                        default=None,
                        help="run a sensitivity sweep instead of a "
                             "figure matrix")
    parser.add_argument("--obs", default=None, metavar="PATH",
                        help="append every cell's obs JSONL event "
                             "stream to PATH (cached cells emit "
                             "nothing; render with python -m "
                             "repro.obs.report)")
    parser.add_argument("--service", default=None, metavar="STATE_DIR",
                        nargs="?", const=".repro-service",
                        help="submit cells to the persistent service "
                             "daemon rendezvoused in STATE_DIR "
                             "(default .repro-service) instead of a "
                             "fresh pool")
    args = parser.parse_args(argv)
    if args.obs:
        os.environ[OBS_ENV] = args.obs

    if args.engine not in ENGINES:
        parser.error("unknown engine %r (have: %s)"
                     % (args.engine, ", ".join(ENGINES)))
    for name in args.workloads or ():
        if name not in WORKLOADS:
            parser.error("unknown workload %r (have: %s)"
                         % (name, ", ".join(WORKLOADS)))

    from repro.harness.figures import (
        figure5_table, figure6_table, figure7_table, format_table)
    from repro.harness.sweep_api import SweepSpec, run_sweep

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    service = None
    if args.service is not None:
        from repro.service.client import connect
        service = connect(args.service)

    def cache_line() -> str:
        if cache is None:
            return ""
        summary = cache.stats()
        return ("\ncache: %(hits)d hit(s), %(misses)d miss(es), "
                "%(writes)d write(s), %(corrupt)d corrupt" % summary
                + " at " + cache.path)

    try:
        if args.sweep is not None:
            names = args.workloads or list(WORKLOADS)
            if args.sweep == "ccured":
                sweep = run_sweep(
                    SweepSpec(kind="ccured", workloads=names,
                              grid=(0.1, 0.5, 0.9, 1.0)),
                    workers=args.workers, cache=cache,
                    service=service)
                rows = [["%.2f" % fraction, "%.3f" % overhead]
                        for fraction, overhead in sorted(sweep.items())]
                print(format_table(["safe-frac", "overhead"], rows,
                                   "CCured SAFE-fraction sensitivity"))
            elif args.sweep == "objtable":
                sweep = run_sweep(
                    SweepSpec(kind="objtable", workloads=names,
                              grid=(0.0, 0.25, 0.5, 0.75, 0.95),
                              engine=args.engine),
                    workers=args.workers, cache=cache,
                    service=service)
                rows = [["%.2f" % fraction, "%.3f" % overhead]
                        for fraction, overhead in sorted(sweep.items())]
                print(format_table(["elision", "overhead"], rows,
                                   "Object-table elision sensitivity"))
            else:
                sweep = run_sweep(
                    SweepSpec(kind="tagcache", workloads=names,
                              grid=(512, 2048, 8192, 32768),
                              engine=args.engine),
                    workers=args.workers, cache=cache,
                    service=service)
                rows = [[name, "%dB" % size, "%d" % cell["cycles"],
                         "%.4f" % cell["tag_miss_rate"]]
                        for (name, size), cell in sorted(sweep.items())]
                print(format_table(["benchmark", "tag-cache", "cycles",
                                    "tag-miss-rate"], rows,
                                   "Tag cache size sensitivity "
                                   "(extern4)"))
            line = cache_line()
            if line:
                print(line)
            return 0
        matrix = run_benchmark_matrix(
            workloads=args.workloads, workers=args.workers,
            cache=cache, engine=args.engine, service=service)
        table_fn = {5: figure5_table, 6: figure6_table,
                    7: figure7_table}
        headers, rows = table_fn[args.figure](matrix)
        print(format_table(headers, rows, "Figure %d" % args.figure))
        line = cache_line()
        if line:
            print(line)
        return 0
    finally:
        if service is not None:
            service.close()


if __name__ == "__main__":
    # ``python -m`` runs this file a second time as ``__main__`` (the
    # package already imported it): run the imported module's main,
    # so cells and results pickle as ``repro.harness.parallel.*``
    from repro.harness.parallel import main as _main
    raise SystemExit(_main())
