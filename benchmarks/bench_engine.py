"""Execution-engine speedups over the legacy dispatch interpreter.

Not a paper figure — this tracks the simulator's own hot path across
all three engines on the Olden sweep (plain + HardBound per
workload):

* the decoded engine (the blocks engine's run loop with an empty
  fusion plan: one instruction template per dispatch) must stay at
  least 2x faster than the legacy dispatch loop on the functional
  sweep;
* the basic-block fusion engine (the same templates fused per block
  over the flat-bytearray heap, the inlined fast memory-timing
  charges, fast-local rebinding of bound names, program-keyed fusion
  plans) must not regress the functional sweep against the decoded
  engine and must clear ``FLOOR_TIMED_BLOCKS_VS_DECODED`` and
  ``FLOOR_TIMED_BLOCKS_VS_LEGACY`` on the timed sweep (the legacy
  ratio sees template regressions that slow both template-driven
  engines alike); the minic optimizer's dynamic instruction savings are
  recorded per workload (``optimizer_instructions``), while the
  engine ladder itself runs ``optimize=False`` binaries so its
  seconds stay comparable with earlier records;
* one-shot, a fresh process must not pay more for ``blocks`` than
  for ``decoded``: ``cold`` records the seconds a new interpreter
  takes to import the simulator, compile the Olden programs and run
  the timed sweep once, per engine, and ``cold.blocks_vs_decoded``
  must clear ``FLOOR_COLD_BLOCKS_VS_DECODED``;
* the observability layer must be effectively free: with
  ``obs_events`` on, the timed blocks cells must stay within
  ``FLOOR_OBS_OVERHEAD_RATIO`` (the median of the per-cell
  events-off/events-on seconds ≥ 0.98, i.e. <2% slowdown);
* the service layer must make persistence pay: mapping the timed
  Olden sweep through a *warm* spawn-context worker fleet (program +
  fusion-plan caches resident) must beat a freshly spawned fleet by
  ``FLOOR_SERVICE_WARM_VS_COLD`` (recorded as
  ``service_warm_vs_cold``);
* every engine stays bit-identical to the others (enforced by
  ``tests/machine/test_engine_differential.py`` and
  ``tests/machine/test_blocks.py``).

Each ladder round runs every workload's functional and timed cells
back to back, so host drift over a round hits both memory models
alike; each timing keeps its best round.  Inside the same rounds, the
plain and HardBound cells are timed apart (``ablation``: engine ×
timing × {plain, hardbound}, each the best of the rounds), which
gives the timing model's share of a timed HardBound ``blocks`` sweep
(``timing_share``: 1 − functional / timed).  ``drain_exits`` records
the fast timing model's exit ledger (word charges, full walks, TLB
walks, demotions) over the timed HardBound ``blocks`` cells.

``cold`` also records what the ``blocks`` cold pass hands to CPython's
``compile()``: its fuser compiles and generated source bytes, and the
source split by template family (``source_by_family``: ops and bytes
per family).  An extra, untimed fresh process runs the same pass with
``blocks._compile_fuser`` wrapped to tally them, so the timed passes
stay as they are.

The events-on sweep also leaves CI-uploadable artifacts behind:
``results/obs_olden.jsonl`` (the full Olden event stream) and
``results/obs_report.txt`` (the rendered per-run and phase-time
report of ``python -m repro.obs.report``).

The measured seconds and speedups are written to
``results/BENCH_engine.json`` so CI keeps a machine-readable record,
and CI's ``bench-gate`` step fails the build if the freshly emitted
``timed.blocks_vs_decoded``, ``timed.blocks_vs_legacy``,
``cold.blocks_vs_decoded``, ``obs_overhead.ratio`` or
``service_warm_vs_cold.ratio`` falls below its committed floor (see
``benchmarks/check_bench_gate.py``).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from check_bench_gate import (
    FLOOR_COLD_BLOCKS_VS_DECODED,
    FLOOR_OBS_OVERHEAD_RATIO,
    FLOOR_SERVICE_WARM_VS_COLD,
    FLOOR_TIMED_BLOCKS_VS_DECODED,
    FLOOR_TIMED_BLOCKS_VS_LEGACY,
)
from conftest import RESULTS_DIR, write_result

from repro.harness.figures import format_table
from repro.harness.runner import compile_cached, run_workload
from repro.machine.config import MachineConfig
from repro.minic.driver import mode_for_config
from repro.workloads.registry import WORKLOADS

ENGINES = ("legacy", "decoded", "blocks")

#: timing-noise guard: each sweep is repeated and the minimum kept
ROUNDS = 3

#: the engine-ladder sweeps compile with ``optimize=False``, the
#: binaries every earlier record timed, so seconds stay comparable
#: across records.  The optimizer's own effect is reported
#: separately (``optimizer_instructions``).
LADDER_OPTIMIZE = False

#: fresh processes per engine for the one-shot pass (interleaved, the
#: minimum kept)
COLD_SAMPLES = 2

#: rounds of the paired events-off/events-on cells of ``_obs_overhead``:
#: even, so each order runs as often as the other, and enough pairs
#: (18 per round) that the median's run-to-run spread on a shared
#: 2-vCPU host stays well inside the floor's 2% margin (7 rounds read
#: 0.980-1.002 over ten runs of unchanged code)
OBS_ROUNDS = 12

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")

#: the one-shot pass a fresh interpreter runs for ``_cold_seconds``:
#: import the simulator, compile every Olden program, run the timed
#: sweep of ``_sweep_seconds`` once; prints its own seconds
_COLD_PASS = """
import sys
import time
t0 = time.perf_counter()
from repro.harness.runner import run_workload
from repro.machine.config import MachineConfig
from repro.workloads.registry import WORKLOADS
engine = sys.argv[1]
for name in WORKLOADS:
    run_workload(name, MachineConfig.plain(engine=engine, timing=True),
                 optimize=%r)
    run_workload(name, MachineConfig.hardbound(
        encoding="intern11", engine=engine, timing=True), optimize=%r)
print(time.perf_counter() - t0)
""" % (LADDER_OPTIMIZE, LADDER_OPTIMIZE)

#: template families of the cold pass's generated source, by the
#: shape-id prefixes of ``repro.machine.blocks``; every other template
#: is ``other``
SOURCE_FAMILIES = (("hardbound_word", ("ldhb_", "sthb_")),
                   ("plain_word", ("ldpl_", "stpl_")),
                   ("addsub_imm", ("addsubri",)),
                   ("handler", ("h_",)))

#: ``_COLD_PASS`` with ``blocks._compile_fuser`` wrapped to tally the
#: fusers it compiles and their source, each part's share by template
#: family; prints the tally as JSON after the seconds
_SOURCE_PASS = """
import json
from repro.machine import blocks
FAMILIES = %r
compile_fuser = blocks._compile_fuser
by_family = {name: {"ops": 0, "bytes": 0}
             for name in [name for name, _ in FAMILIES] + ["other"]}
tally = {"fuser_compiles": 0, "fuser_source_bytes": 0,
         "source_by_family": by_family}
def family(shape):
    for name, prefixes in FAMILIES:
        if shape.startswith(prefixes):
            return name
    return "other"
def counted(signature, parts):
    size = compile_fuser(signature, parts)
    tally["fuser_compiles"] += 1
    tally["fuser_source_bytes"] += size
    rest = size
    for offset, part in enumerate(parts):
        # the part's indented body lines and its header parameters
        part_bytes = (sum(len(line.format(i=offset)) + 5
                          for line in part.lines)
                      + sum(len(name) + len(str(offset)) + 2
                            for name, _ in part.params))
        cell = by_family[family(part.shape)]
        cell["ops"] += 1
        cell["bytes"] += part_bytes
        rest -= part_bytes
    # the rest of the fuser header: ``pc`` and the shared names
    by_family["other"]["bytes"] += rest
    return size
blocks._compile_fuser = counted
""" % (SOURCE_FAMILIES,) + _COLD_PASS + """
print(json.dumps(tally))
"""


def _warm_compile_cache():
    for name in WORKLOADS:
        for config in (MachineConfig.plain(), MachineConfig.hardbound()):
            compile_cached(WORKLOADS[name].source,
                           mode_for_config(config),
                           optimize=LADDER_OPTIMIZE)


def _optimizer_instruction_counts():
    """Dynamic instruction counts per workload, optimizer off vs on
    (functional HardBound runs — the counts are engine-independent)."""
    out = {}
    for name in WORKLOADS:
        counts = {}
        for optimize in (False, True):
            counts[optimize] = run_workload(
                name, MachineConfig.hardbound(timing=False),
                optimize=optimize).instructions
        out[name] = {
            "instructions_unoptimized": counts[False],
            "instructions_optimized": counts[True],
            "ratio": counts[True] / counts[False],
        }
    return out


#: a sweep's cells per workload: name, config factory, its keywords
_CELLS = (("plain", MachineConfig.plain, {}),
          ("hardbound", MachineConfig.hardbound, {"encoding": "intern11"}))


def _sweep_split(engine, timings=(False, True), obs=None):
    """One round's ``{timing: {"plain": s, "hardbound": s}}`` seconds:
    plain + HardBound per workload, each cell run under every timing
    of ``timings`` back to back."""
    split = {timing: {"plain": 0.0, "hardbound": 0.0}
             for timing in timings}
    for name in WORKLOADS:
        for cell, mode_fn, kw in _CELLS:
            for timing in timings:
                config = mode_fn(engine=engine, timing=timing,
                                 obs_events=obs, **kw)
                start = time.perf_counter()
                run_workload(name, config, optimize=LADDER_OPTIMIZE)
                split[timing][cell] += time.perf_counter() - start
    return split


def _sweep_seconds(engine, timing, obs=None):
    return sum(_sweep_split(engine, (timing,), obs)[timing].values())


def _drain_exits():
    """The fast model's exit ledger summed over the timed HardBound
    ``blocks`` cells, with each count's share of the word charges."""
    exits = {}
    for name in WORKLOADS:
        result = run_workload(name, MachineConfig.hardbound(
            encoding="intern11", engine="blocks", timing=True,
            retain_cpu=True), optimize=LADDER_OPTIMIZE)
        for key, count in result.cpu.memsys.exits.items():
            exits[key] = exits.get(key, 0) + count
    words = exits["word_charges"]
    exits.update({key + "_per_word": exits[key] / words
                  for key in ("full_walks", "tlb_walks", "demotions")})
    return exits


def _fresh_pass(script, engine):
    """Run a one-shot pass script in a fresh interpreter; its stdout
    lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, engine], env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout.splitlines()


def _cold_seconds():
    """One-shot timed sweep seconds per engine, each in a fresh
    interpreter: min of ``COLD_SAMPLES`` interleaved subprocesses.
    Returns the record gated by ``FLOOR_COLD_BLOCKS_VS_DECODED``, with
    the ``blocks`` pass's generated source from one more, untimed
    process (``_SOURCE_PASS``)."""
    best = {"decoded": float("inf"), "blocks": float("inf")}
    for _ in range(COLD_SAMPLES):
        for engine in best:
            out = _fresh_pass(_COLD_PASS, engine)
            best[engine] = min(best[engine], float(out[-1]))
    cold = {
        "decoded_seconds": best["decoded"],
        "blocks_seconds": best["blocks"],
        "blocks_vs_decoded": best["decoded"] / best["blocks"],
        "samples": COLD_SAMPLES,
    }
    cold.update(json.loads(_fresh_pass(_SOURCE_PASS, "blocks")[-1]))
    return cold


def _obs_overhead():
    """Events-off over events-on seconds, cell by cell, on the timed
    blocks sweep.

    Each of ``OBS_ROUNDS`` rounds runs every timed ``blocks`` cell
    (workload x plain/HardBound) with events off and on back to back,
    the order alternating by round, so a pair shares one host state;
    the ratio is the median of the per-pair off/on ratios, with its
    quartiles.  The events-on runs append to a throwaway file so the
    measurement includes the real buffered-emit + flush cost.  Returns
    the record gated by ``FLOOR_OBS_OVERHEAD_RATIO`` (off/on ≥ 0.98
    means tracing costs under ~2%).
    """
    fd, log_path = tempfile.mkstemp(suffix=".jsonl",
                                    prefix="repro-obs-bench-")
    os.close(fd)
    try:
        ratios = []
        for round_no in range(OBS_ROUNDS):
            order = (None, log_path) if round_no % 2 else (log_path, None)
            for name in WORKLOADS:
                for _, mode_fn, kw in _CELLS:
                    seconds = {}
                    for obs in order:
                        config = mode_fn(engine="blocks", timing=True,
                                         obs_events=obs, **kw)
                        start = time.perf_counter()
                        run_workload(name, config,
                                     optimize=LADDER_OPTIMIZE)
                        seconds[obs] = time.perf_counter() - start
                    ratios.append(seconds[None] / seconds[log_path])
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        return {
            "ratio": median,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "pairs": len(ratios),
            "rounds": OBS_ROUNDS,
        }
    finally:
        os.unlink(log_path)


def _obs_artifacts():
    """One clean events-on Olden sweep → CI-uploadable artifacts.

    Writes ``results/obs_olden.jsonl`` (fresh file, not appended
    across builds) and the rendered ``results/obs_report.txt``.
    """
    from repro.obs.events import read_events
    from repro.obs.report import render_summary

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "obs_olden.jsonl")
    if os.path.exists(path):
        os.remove(path)
    _sweep_seconds("blocks", True, obs=path)
    report = render_summary(list(read_events(path)))
    write_result("obs_report.txt", report)
    return path


def _service_warm_vs_cold():
    """Warm persistent workers vs. a freshly spawned fleet.

    Both passes map the same timed Olden sweep (plain + HardBound per
    workload) through :class:`repro.service.dispatch.Service` with
    spawn-context workers, so the cold pass honestly pays process
    start + compile + CFG/fusion-plan formation.  The warm fleet is
    primed with two passes first, then timed for min-of-``ROUNDS``;
    the cold side is min of two full spawn-map-shutdown cycles.  No
    result store is attached: every job must execute on a worker, so
    the ratio measures warm *processes*, not cache hits.
    """
    from repro.harness.parallel import run_cell
    from repro.service import Service

    jobs = [(name, kind, True, "blocks")
            for name in sorted(WORKLOADS)
            for kind in ("base", "intern11")]
    service_workers = 2

    cold = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        with Service(workers=service_workers,
                     context="spawn") as fleet:
            fleet.map(run_cell, jobs)
        cold = min(cold, time.perf_counter() - start)

    with Service(workers=service_workers, context="spawn") as fleet:
        for _ in range(2):
            fleet.map(run_cell, jobs)  # prime plan caches
        warm = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            fleet.map(run_cell, jobs)
            warm = min(warm, time.perf_counter() - start)
        status = fleet.status()

    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "ratio": cold / warm if warm > 0 else float("inf"),
        "workers": service_workers,
        "jobs": len(jobs),
        "warm_jobs": sum(worker["warm_jobs"]
                         for worker in status["workers"]),
        "rounds": ROUNDS,
    }


def test_engine_speedups(benchmark):
    def measure():
        timings = (False, True)
        _warm_compile_cache()
        # the first run of a program records its fusion plan and
        # compiles its fusers; warm both so the rounds below measure
        # the engine, not the cold build.  The other engines carry no
        # cross-run state.
        _sweep_split("blocks")
        seconds = {timing: {engine: float("inf") for engine in ENGINES}
                   for timing in timings}
        ablation = {timing: {engine: {"plain": float("inf"),
                                      "hardbound": float("inf")}
                             for engine in ENGINES}
                    for timing in timings}
        # interleave rounds so machine-load drift hits every engine
        # equally, and each cell's memory models within a round
        for _ in range(ROUNDS):
            for engine in ENGINES:
                for timing, split in _sweep_split(engine).items():
                    seconds[timing][engine] = min(
                        seconds[timing][engine], sum(split.values()))
                    cells = ablation[timing][engine]
                    for cell, cell_s in split.items():
                        cells[cell] = min(cells[cell], cell_s)
        return seconds, ablation

    seconds, ablation = benchmark.pedantic(measure, rounds=1,
                                           iterations=1)
    timing_share = 1.0 - (ablation[False]["blocks"]["hardbound"]
                          / ablation[True]["blocks"]["hardbound"])
    print("\ntiming model share of the timed HardBound blocks sweep: "
          "%.1f%%" % (100.0 * timing_share))
    cold = _cold_seconds()

    speedups = {}
    rows = []
    for timing in (False, True):
        best = seconds[timing]
        speedups[timing] = {
            "decoded_vs_legacy": best["legacy"] / best["decoded"],
            "blocks_vs_legacy": best["legacy"] / best["blocks"],
            "blocks_vs_decoded": best["decoded"] / best["blocks"],
        }
        rows.append(
            ["timing=%s" % timing]
            + ["%.2fs" % best[engine] for engine in ENGINES]
            + ["%.2fx" % speedups[timing]["blocks_vs_decoded"]])
    rows.append(["cold timing=True", "-",
                 "%.2fs" % cold["decoded_seconds"],
                 "%.2fs" % cold["blocks_seconds"],
                 "%.2fx" % cold["blocks_vs_decoded"]])
    table = format_table(
        ["sweep", "legacy", "decoded", "blocks", "blocks/decoded"],
        rows, "Engine speedups (Olden sweep)")
    print("\n" + table)
    write_result("engine_speedup.txt", table)

    print("cold blocks pass: %d fuser compiles, %d bytes of source; by "
          "family: %s" % (cold["fuser_compiles"],
                          cold["fuser_source_bytes"],
                          cold["source_by_family"]))
    drain_exits = _drain_exits()
    print("drain exits: %s" % drain_exits)
    obs_overhead = _obs_overhead()
    print("obs events-off/on: median %.3f (quartiles %.3f-%.3f, %d "
          "pairs)" % (obs_overhead["ratio"], obs_overhead["ratio_q1"],
                      obs_overhead["ratio_q3"], obs_overhead["pairs"]))
    service_warm = _service_warm_vs_cold()
    print("\nservice warm-vs-cold: cold %.3fs, warm %.3fs, %.2fx "
          "(%d jobs, %d workers)"
          % (service_warm["cold_seconds"],
             service_warm["warm_seconds"], service_warm["ratio"],
             service_warm["jobs"], service_warm["workers"]))
    _obs_artifacts()
    optimizer = _optimizer_instruction_counts()
    opt_rows = [[name,
                 "%d" % cell["instructions_unoptimized"],
                 "%d" % cell["instructions_optimized"],
                 "%.1f%%" % (100.0 * (1.0 - cell["ratio"]))]
                for name, cell in sorted(optimizer.items())]
    opt_table = format_table(
        ["benchmark", "instr (opt off)", "instr (opt on)", "saved"],
        opt_rows, "minic optimizer: dynamic instruction counts")
    print("\n" + opt_table)
    write_result("optimizer_instructions.txt", opt_table)

    record = {
        "workloads": list(WORKLOADS),
        "rounds": ROUNDS,
        "seconds": {
            "functional": seconds[False],
            "timed": seconds[True],
        },
        "speedups": {
            "functional": speedups[False],
            "timed": speedups[True],
        },
        "ablation": {
            "functional": ablation[False],
            "timed": ablation[True],
        },
        "timing_share": timing_share,
        "drain_exits": drain_exits,
        "cold": cold,
        "optimizer_instructions": optimizer,
        "obs_overhead": obs_overhead,
        "service_warm_vs_cold": service_warm,
        "ladder_optimize": LADDER_OPTIMIZE,
    }
    write_result("BENCH_engine.json", json.dumps(record, indent=2))

    # the decoded engine's original bar
    assert speedups[False]["decoded_vs_legacy"] >= 2.0, speedups
    assert speedups[True]["decoded_vs_legacy"] >= 1.2, speedups
    # the blocks engine must not regress the functional sweep...
    assert speedups[False]["blocks_vs_decoded"] >= 1.0, speedups
    # ...and must clear the committed floor on the timed sweep (the
    # constant lives in check_bench_gate so the in-process assert and
    # CI's bench-gate step can never disagree)
    assert (speedups[True]["blocks_vs_decoded"]
            >= FLOOR_TIMED_BLOCKS_VS_DECODED), speedups
    # ...and against the independent legacy loop, which sees template
    # regressions that slow decoded and blocks alike
    assert (speedups[True]["blocks_vs_legacy"]
            >= FLOOR_TIMED_BLOCKS_VS_LEGACY), speedups
    # one-shot, blocks must not cost more than decoded
    assert cold["blocks_vs_decoded"] >= FLOOR_COLD_BLOCKS_VS_DECODED, \
        cold
    # event tracing must cost under ~2% on the timed blocks sweep
    # (host-independent — both sweeps run in the same process)
    assert obs_overhead["ratio"] >= FLOOR_OBS_OVERHEAD_RATIO, \
        obs_overhead
    # a warm persistent worker fleet must beat a freshly spawned one
    # on the timed Olden sweep (host-independent — both passes run
    # back to back on the same machine)
    assert service_warm["ratio"] >= FLOOR_SERVICE_WARM_VS_COLD, \
        service_warm
