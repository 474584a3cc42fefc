"""One benchmark process: set up a workload, serve requests, report.

``run.py`` starts this script in fresh interpreters.  It prints JSON
lines on stdout: ``READY <json>`` when set-up is done (the parent
times set-up from spawn to that line) and ``RESULT <json>`` at the
end.  By hand, from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py reference
    PYTHONPATH=src python3 perfbench/worker.py steady --seed 1 --seconds 5

Modes:

* ``reference`` — plain-core outputs of every Olden workload, run on
  the ``decoded`` engine without the timing model: the independent
  answer key for the HardBound runs (HardBound must not change the
  output of a correct program).
* ``steady`` / ``fuzz`` — the workload in one long-lived process,
  measured for about ``--seconds``.

Every input comes from ``--seed``.  ``--setup-only`` stops right after
``READY``.  ``--trace`` wraps the entry point of each simulator layer
with a timer (see ``install_spans``); without it the simulator runs
unwrapped.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

#: steady state: cold pass plus one pass for the superblock plan
#: cache to converge, before anything is timed
STEADY_WARMUP_PASSES = 2
#: timed passes at least, so every cell has a best-of-three
STEADY_MIN_PASSES = 3

#: fuzz corpus size per second of ``--seconds``, by oracle level: a
#: prefix of the CI fuzz smoke's fixed seed ranges (168 ISA and 40
#: MiniC seeds, the same 4:1 mix); one check of the corpus takes
#: about 1.5 ``--seconds``
FUZZ_PER_SECOND = (("isa", 2.4), ("minic", 0.6))
#: untimed warm-up programs, outside every corpus: they fill the
#: process-wide template caches (the MiniC stdlib's blocks above all)
#: as the first seeds of any fuzz shard do
FUZZ_WARMUP = (("isa", 10000), ("minic", 10000))

#: per-layer time accumulators, in the order they are reported
LAYERS = ("compile", "machine_init", "probe_compile", "decode",
          "cfg_fusion", "trace_formation", "execute")


def emit(tag, payload):
    sys.stdout.write("%s %s\n" % (tag, json.dumps(payload)))
    sys.stdout.flush()


class Ledger:
    """Seconds per layer and work counts over one run's requests."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.counts = {}

    def add(self, layer, dt):
        self.seconds[layer] += dt

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def record_run(self, cpu):
        """Fold one finished (or trapped) CPU run into the ledger."""
        phases = cpu.timers.snapshot()
        for phase in ("decode", "cfg_fusion", "trace_formation"):
            self.add(phase, phases.get(phase, 0.0))
        self.add("execute", max(phases.get("execute", 0.0)
                                - phases.get("trace_formation", 0.0),
                                0.0))
        self.count("engine_runs", 1)
        self.count("instructions", cpu.icount)
        if cpu.hb is not None:
            self.count("hb_checks", cpu.hb.stats.checks)
        if cpu.memsys is not None:
            kinds = cpu.memsys.stats.kinds.values()
            self.count("mem_accesses", sum(k.accesses for k in kinds))
            self.count("l1_misses", sum(k.l1_misses for k in kinds))
        stats = getattr(cpu, "engine_stats", None)
        if stats:
            for key in ("traces_formed", "trace_dispatches",
                        "block_dispatches", "side_exits"):
                self.count(key, stats[key])

    def as_dict(self):
        return {"seconds": self.seconds, "counts": self.counts}


def _timed(fn, layer, ledger):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.add(layer, perf_counter() - t0)
    return wrapper


def install_spans(ledger):
    """Time every call into a simulator layer from outside the layer.

    The harness and the fuzz oracle reach the compiler and the
    machine through module-level names; rebinding those names to
    timed wrappers puts a span around each call without touching the
    simulator's code.  ``CPU`` becomes a subclass that times its own
    construction (memory image, HardBound engine; minus the timing
    model's ``probe_compile`` phase, reported on its own) and folds
    the engine's phase timers and counters into the ledger after
    every run, trapped runs included.
    """
    import repro.fuzz.oracle as oracle
    import repro.harness.runner as runner
    from repro.machine.cpu import CPU

    class TracedCPU(CPU):
        def __init__(self, *args, **kwargs):
            t0 = perf_counter()
            super().__init__(*args, **kwargs)
            probe = self.timers.seconds.get("probe_compile", 0.0)
            ledger.add("probe_compile", probe)
            ledger.add("machine_init", perf_counter() - t0 - probe)

        def run(self):
            try:
                return super().run()
            finally:
                ledger.record_run(self)

    runner.CPU = TracedCPU
    oracle.CPU = TracedCPU
    runner.compile_cached = _timed(runner.compile_cached, "compile",
                                   ledger)
    oracle.compile_program = _timed(oracle.compile_program, "compile",
                                    ledger)
    oracle.assemble = _timed(oracle.assemble, "compile", ledger)


def cell_stats(result):
    """What must repeat exactly each time one cell runs."""
    return {
        "output": result.output,
        "exit_code": result.exit_code,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "hb_checks": result.hb_stats.checks if result.hb_stats else 0,
    }


def olden_cells(names, seed):
    """The Olden workloads of one run, in the order they run.

    The suite is fixed; the seed shuffles the order.  Every cell runs
    under the same HardBound configuration, since the encodings cost
    different amounts per workload and a seed-dependent mix of them
    would move the figures between seeds.
    """
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


def fuzz_corpus(seed, seconds):
    """The fuzz programs of one run: ``[(level, program_seed), ...]``.

    A fixed corpus, the first seeds of each generator as the CI fuzz
    smoke checks them, sized to about ``seconds`` of oracle work; the
    seed shuffles the order.  Random programs differ in cost by ~50%
    from one to the next, so a corpus drawn afresh per seed would
    move the figures by more than any regression worth catching.
    """
    corpus = [(level, program_seed)
              for level, rate in FUZZ_PER_SECOND
              for program_seed in range(max(1, round(rate * seconds)))]
    random.Random(seed).shuffle(corpus)
    return corpus


def measure(batches, seconds, serve_one, min_batches=1):
    """Serve whole batches of requests for about ``seconds``.

    The first ``min_batches`` batches always run; another starts only
    if it should end in time at the pace of the previous one, so every
    run measures whole sweeps.  ``serve_one(request)`` returns a
    record dict, which gains ``latency_s``.  Returns the records.
    """
    records = []
    start = perf_counter()
    last = 0.0
    for done, batch in enumerate(batches):
        if done >= min_batches and perf_counter() - start + last > seconds:
            break
        t_batch = perf_counter()
        for request in batch:
            t0 = perf_counter()
            record = serve_one(request)
            record["latency_s"] = perf_counter() - t0
            records.append(record)
        last = perf_counter() - t_batch
    return records


# ---------------------------------------------------------------- modes

def mode_reference(args):
    from repro.harness.runner import run_workload
    from repro.machine.config import MachineConfig
    from repro.workloads.registry import WORKLOADS

    config = MachineConfig.plain(engine="decoded", timing=False)
    outputs = {}
    for name in WORKLOADS:
        result = run_workload(name, config)
        outputs[name] = {"output": result.output,
                         "exit_code": result.exit_code}
    emit("RESULT", {"outputs": outputs})


def serve_steady(args):
    from repro.harness.runner import compile_cached, run_workload
    from repro.machine.config import MachineConfig
    from repro.minic.driver import mode_for_config
    from repro.workloads.registry import WORKLOADS

    import_s = perf_counter() - T_START
    cells = olden_cells(WORKLOADS, args.seed)
    # timed HardBound with the default (intern11) pointer encoding
    config = MachineConfig.hardbound(timing=True)
    for name in cells:
        compile_cached(WORKLOADS[name].source, mode_for_config(config))
    emit("READY", {"import_s": import_s})
    if args.setup_only:
        return

    # the cold pass fixes what every later run of a cell must repeat
    expected = {name: cell_stats(run_workload(name, config))
                for name in cells}

    def serve_one(name):
        stats = cell_stats(run_workload(name, config))
        return {"cell": name, "ok": stats == expected[name]}

    warmup = [serve_one(name)
              for _ in range(STEADY_WARMUP_PASSES - 1) for name in cells]
    ledger = Ledger()
    if args.trace:
        install_spans(ledger)
    records = measure(itertools.repeat(cells), args.seconds, serve_one,
                      STEADY_MIN_PASSES)
    emit("RESULT", {"requests": records, "warmup": warmup,
                    "cells": expected, "ledger": ledger.as_dict()})


def serve_fuzz(args):
    from repro.fuzz.oracle import fuzz_one

    import_s = perf_counter() - T_START
    corpus = fuzz_corpus(args.seed, args.seconds)
    emit("READY", {"import_s": import_s})
    if args.setup_only:
        return

    def serve_one(request):
        level, seed = request
        result = fuzz_one(seed, level)
        record = {"cell": "%s:%d" % request, "ok": result.ok}
        if not result.ok:
            record["error"] = "; ".join(map(str, result.divergences))
        return record

    warmup = [serve_one(request) for request in FUZZ_WARMUP]
    ledger = Ledger()
    if args.trace:
        install_spans(ledger)
    records = measure([corpus], args.seconds, serve_one)
    emit("RESULT", {"requests": records, "warmup": warmup,
                    "ledger": ledger.as_dict()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("reference", "steady", "fuzz"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    {"reference": mode_reference, "steady": serve_steady,
     "fuzz": serve_fuzz}[args.mode](args)


if __name__ == "__main__":
    main()
