"""``python -m repro.fuzz``: sharded differential fuzzing.

Seed-range partitioning over :func:`repro.harness.parallel.map_jobs`
worker processes: the seed space ``[start, start+seeds)`` splits into
one contiguous slice per worker (:func:`repro.fuzz.rng.shard_ranges`),
each shard runs its seeds through the full oracle and appends its
JSONL event stream — ``fuzz_run`` per program, ``fuzz_divergence``
per mismatch, one ``fuzz_summary`` per shard — to the shared ``--out``
file via the obs event log (single ``O_APPEND`` write per shard, so
shards never interleave mid-line).

Divergent programs are minimized in the parent (delta debugging, ISA
level) and written to ``--corpus-dir`` as ``.s``/``.c`` + JSON
sidecar pairs ready to be committed under ``tests/fuzz/corpus/``.

Exit status: 0 when every program agreed, 1 when any divergence was
found (the nightly CI job keys off this), 2 for usage errors.

Render a result stream with ``python -m repro.obs.report fuzz
results/fuzz.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import List, Optional, Tuple

from repro.fuzz.minimize import (
    corpus_name,
    instruction_count,
    minimize_result,
    write_corpus_entry,
)
from repro.fuzz.oracle import fuzz_one
from repro.fuzz.rng import FUZZ_SEED_ENV, shard_ranges
from repro.harness.parallel import map_jobs
from repro.obs.events import EventLog

LEVELS = ("isa", "minic", "both")


def _levels(level: str) -> Tuple[str, ...]:
    return ("isa", "minic") if level == "both" else (level,)


def run_shard(job: Tuple) -> List[dict]:
    """Worker entry: one seed slice through the oracle.

    Returns one dict per seed (program text kept only for divergent
    seeds, so big sweeps pickle small); events go to ``out`` if set.
    """
    level, lo, hi, timings, out, deadline = job
    log = EventLog(out)
    results: List[dict] = []
    by_status: dict = {}
    traps: dict = {}
    divergences = 0
    for seed in range(lo, hi):
        if deadline is not None and time.time() > deadline:
            break
        result = fuzz_one(seed, level, timings=tuple(timings))
        record = result.as_dict()
        if result.ok:
            record.pop("divergences")
        else:
            record["program"] = result.program
            divergences += len(result.divergences)
            for d in result.divergences:
                log.emit("fuzz_divergence", seed=seed, level=level,
                         **d.as_dict())
        by_status[result.status] = by_status.get(result.status, 0) + 1
        if result.trap:
            traps[result.trap] = traps.get(result.trap, 0) + 1
        log.emit("fuzz_run", **{k: v for k, v in record.items()
                                if k != "program"})
        results.append(record)
    log.emit("fuzz_summary", level=level, shard=[lo, hi],
             programs=len(results), divergences=divergences,
             by_status=by_status, traps=traps)
    log.flush()
    return results


def run_fuzz(levels: Tuple[str, ...], seeds: int, start: int = 0,
             workers: int = 1, out: Optional[str] = None,
             timings: Tuple[bool, ...] = (False, True),
             max_seconds: Optional[float] = None,
             service=None) -> List[dict]:
    """Fuzz ``seeds`` seeds per level, sharded; returns all records.

    With ``service`` (a ``repro.service`` client), the shards run on
    the persistent warm-worker fleet instead of a fresh pool;
    ``workers`` still controls how many shards the seed space splits
    into.
    """
    deadline = (time.time() + max_seconds
                if max_seconds is not None else None)
    jobs = [(level, lo, hi, tuple(timings), out, deadline)
            for level in levels
            for lo, hi in shard_ranges(start, seeds, workers)]
    records: List[dict] = []
    for shard in map_jobs(run_shard, jobs, workers, service=service):
        records.extend(shard)
    return records


def _summarize(records: List[dict]) -> str:
    by_level: dict = {}
    by_status: dict = {}
    traps: dict = {}
    bad = [r for r in records if not r["ok"]]
    for r in records:
        by_level[r["level"]] = by_level.get(r["level"], 0) + 1
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
        if r["trap"]:
            traps[r["trap"]] = traps.get(r["trap"], 0) + 1
    lines = ["fuzz: %d programs (%s)"
             % (len(records),
                ", ".join("%s=%d" % kv
                          for kv in sorted(by_level.items()))),
             "  status: " + ", ".join(
                 "%s=%d" % kv for kv in sorted(by_status.items())),
             "  traps:  " + (", ".join(
                 "%s=%d" % kv for kv in sorted(traps.items()))
                 or "none")]
    if bad:
        lines.append("  DIVERGENT SEEDS: %s"
                     % ", ".join("%s:%d" % (r["level"], r["seed"])
                                 for r in bad))
        lines.append("  reproduce one with %s=<seed> (and the same "
                     "--level)" % FUZZ_SEED_ENV)
    else:
        lines.append("  divergences: none")
    return "\n".join(lines)


def _write_divergences(records: List[dict], corpus_dir: str,
                       minimize: bool) -> List[str]:
    written = []
    for record in records:
        if record["ok"]:
            continue
        program = record["program"]
        if minimize and record["level"] == "isa":
            class _R:  # minimal shim for minimize_result
                level = record["level"]
                seed = record["seed"]
                config = None
            _R.program = program
            from repro.fuzz.oracle import config_for_seed
            _R.config = config_for_seed(record["seed"],
                                        record["level"])
            try:
                program = minimize_result(_R)
            except ValueError:
                pass   # flaky divergence: keep the full program
        meta = {
            "level": record["level"], "seed": record["seed"],
            "config": record["config"],
            "divergences": record["divergences"],
            "instructions": instruction_count(program),
        }
        name = "%s-seed%d" % (record["level"], record["seed"])
        prog_path, _meta = write_corpus_entry(corpus_dir, name,
                                              program, meta)
        written.append(prog_path)
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing: random programs through "
                    "all three engines under both memory models")
    parser.add_argument("--level", choices=LEVELS, default="both",
                        help="generator level (default: both)")
    parser.add_argument("--seeds", type=int, default=100,
                        help="seeds per level (default 100)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="append JSONL fuzz events to PATH "
                             "(render with python -m repro.obs.report "
                             "fuzz PATH)")
    parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="write divergent programs (minimized) "
                             "to DIR")
    parser.add_argument("--functional-only", action="store_true",
                        help="skip the timed memory model (faster "
                             "smoke sweeps)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="write divergent programs un-minimized")
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="soft wall-clock budget: shards stop "
                             "starting new seeds past it")
    parser.add_argument("--service", default=None, metavar="STATE_DIR",
                        nargs="?", const=".repro-service",
                        help="run shards on the persistent service "
                             "daemon rendezvoused in STATE_DIR "
                             "(default .repro-service) instead of a "
                             "fresh pool")
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error("--seeds must be >= 0")

    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
    timings = (False,) if args.functional_only else (False, True)
    service = None
    if args.service is not None:
        from repro.service.client import connect
        service = connect(args.service)
    t0 = time.time()
    try:
        records = run_fuzz(_levels(args.level), args.seeds,
                           args.start, args.workers, args.out,
                           timings, args.max_seconds,
                           service=service)
    finally:
        if service is not None:
            service.close()
    print(_summarize(records))
    print("  wall: %.1fs%s" % (time.time() - t0,
                               ", events: %s" % args.out
                               if args.out else ""))
    bad = [r for r in records if not r["ok"]]
    if bad and args.corpus_dir:
        written = _write_divergences(records, args.corpus_dir,
                                     minimize=not args.no_minimize)
        print("  corpus: %d entr%s under %s"
              % (len(written), "y" if len(written) == 1 else "ies",
                 args.corpus_dir))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
