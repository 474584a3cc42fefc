"""Benchmark of the HardBound simulator, end to end and layer by layer.

Usage, from the repository root (no build step; the simulator is
imported from ``src/``):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``):

* ``steady`` — one warm process reruns the nine-cell Olden sweep under
  timed HardBound; each request is one cell.
* ``fuzz`` — fresh processes run the differential fuzz oracle (four
  engines x both memory models) over the CI smoke's ISA and MiniC
  programs; each request is one program, new to the process.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured with the simulator unwrapped;
``--trace 1`` runs the same workload with a timer around each call
into a simulator layer and reports the per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

#: fresh-process set-ups timed per run, spread before, between and
#: after the measured requests so a drift in machine load hits all of
#: them alike; the median is reported
SETUP_SAMPLES = 7
#: fuzz corpus checks per run, each in a fresh process and in the same
#: order, so each program meets the same cache state every time; each
#: program's best counts
FUZZ_REPEATS = 3
#: every worker is killed this long after the run started, so a hung
#: simulator fails the run instead of outliving it
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env():
    """The simulator's environment knobs (``REPRO_*``: fuzz-seed
    override, event tracing) are cleared, so workers run the stock
    configuration whatever the caller's shell holds."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """One ``worker.py`` process, killed at the run deadline.

    Use as a context manager: leaving the block kills the process if
    it still runs and always waits for it to end.
    """

    def __init__(self, argv, deadline):
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER] + argv, stdout=subprocess.PIPE,
            env=worker_env(), cwd=ROOT, text=True)
        self.watchdog = threading.Timer(
            max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.watchdog.start()

    def read(self, tag):
        """The payload of the next ``tag`` line and the seconds from
        spawn to that line."""
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return (json.loads(line[len(tag) + 1:]),
                        time.perf_counter() - self.t_spawn)
        raise BenchError("worker %s ended before %s (exit code %s)"
                         % (self.proc.args[2:], tag, self.proc.wait()))

    def finish(self):
        """Wait for a clean exit."""
        self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise BenchError("worker %s exited with code %d"
                             % (self.proc.args[2:], code))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        return False


def time_setups(argv, deadline, count):
    """Spawn ``count`` workers that stop after set-up; returns the
    spawn-to-``READY`` seconds and the import seconds of each."""
    setups, imports = [], []
    for _ in range(count):
        with Worker(argv + ["--setup-only"], deadline) as worker:
            ready, seconds = worker.read("READY")
            worker.finish()
        setups.append(seconds)
        imports.append(ready["import_s"])
    return setups, imports


def reference_outputs(deadline):
    with Worker(["reference"], deadline) as worker:
        result, _ = worker.read("RESULT")
        worker.finish()
    return result["outputs"]


def cell_ok(cell, stats, reference):
    """HardBound must leave a correct program's output and exit code
    as the plain core produced them, and must have checked pointers."""
    expected = reference[cell]
    return (stats["output"] == expected["output"]
            and stats["exit_code"] == expected["exit_code"]
            and stats["hb_checks"] > 0)


def bench(args, deadline):
    """Set-ups around the measured workers; returns the report."""
    argv = [args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    steady = args.workload == "steady"
    reference = reference_outputs(deadline) if steady else None
    setups, imports = time_setups(argv, deadline, SETUP_SAMPLES // 2)
    records, warmup, ledgers = [], [], []
    for _ in range(1 if steady else FUZZ_REPEATS):
        with Worker(argv + (["--trace"] if args.trace else []),
                    deadline) as worker:
            ready, seconds = worker.read("READY")
            result, _ = worker.read("RESULT")
            worker.finish()
        setups.append(seconds)
        imports.append(ready["import_s"])
        records += result["requests"]
        warmup += result["warmup"]
        ledgers.append(result["ledger"])
    after = time_setups(argv, deadline, SETUP_SAMPLES - len(setups))
    if steady:
        good = {cell for cell, stats in result["cells"].items()
                if cell_ok(cell, stats, reference)}
        for record in records + warmup:
            record["ok"] = record["ok"] and record["cell"] in good
    return summarize(args, records, warmup, setups + after[0],
                     imports + after[1], ledgers)


# -------------------------------------------------------------- metrics

def end_to_end(records, setups):
    """Each distinct request counts once, with its best latency.

    The steady workload repeats every cell once per pass, the fuzz
    workload every program once per fresh process.  Interference from
    other tenants of a shared host only ever adds time and comes in
    bursts that can slow a whole pass by a third; the best of a
    request's repeats is what the simulator's own code costs.
    """
    best = {}
    for record in records:
        cell = record["cell"]
        best[cell] = min(best.get(cell, record["latency_s"]),
                         record["latency_s"])
    latencies = list(best.values())
    return {
        "latency_ms": (statistics.median(latencies) * 1e3, "ms"),
        "throughput": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(records, imports, ledgers):
    """Per-request means of each layer's time and work.

    ``other_ms`` is the part of a request inside no timed layer: the
    harness's glue, and the oracle's program generation and outcome
    comparisons.
    """
    n = len(records)
    seconds, counts = {}, {}
    for ledger in ledgers:
        for key, value in ledger["seconds"].items():
            seconds[key] = seconds.get(key, 0.0) + value
        for key, value in ledger["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    total = sum(r["latency_s"] for r in records)
    metrics = {"import_ms": (statistics.median(imports) * 1e3, "ms")}
    for layer, value in seconds.items():
        metrics[layer + "_ms"] = (value / n * 1e3, "ms")
    instructions = counts.get("instructions", 0)
    dispatches = (counts.get("trace_dispatches", 0)
                  + counts.get("block_dispatches", 0))
    metrics.update({
        "other_ms": ((total - sum(seconds.values())) / n * 1e3, "ms"),
        "host_ns_per_instr": (ratio(seconds["execute"], instructions)
                              * 1e9, "ns"),
        "sim_instructions": (instructions / n, "count"),
        "engine_runs": (counts.get("engine_runs", 0) / n, "count"),
        "hb_checks": (counts.get("hb_checks", 0) / n, "count"),
        "mem_accesses": (counts.get("mem_accesses", 0) / n, "count"),
        "l1_miss_rate": (ratio(counts.get("l1_misses", 0),
                               counts.get("mem_accesses", 0)), "ratio"),
        "traces_formed": (counts.get("traces_formed", 0) / n, "count"),
        "trace_coverage": (ratio(counts.get("trace_dispatches", 0),
                                 dispatches), "ratio"),
        "side_exit_rate": (ratio(counts.get("side_exits", 0),
                                 counts.get("trace_dispatches", 0)),
                           "ratio"),
    })
    return metrics


def summarize(args, records, warmup, setups, imports, ledgers):
    checked = records + warmup
    failed = sum(not r["ok"] for r in checked)
    for r in checked:
        if not r["ok"]:
            sys.stderr.write("perfbench: incorrect result for %s %s\n"
                             % (r["cell"], r.get("error", "")))
    if args.trace:
        metrics = per_layer(records, imports, ledgers)
    else:
        metrics = end_to_end(records, setups)
    return {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no simulator sources under %s\n"
                         % SRC)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        report = bench(args, deadline)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
