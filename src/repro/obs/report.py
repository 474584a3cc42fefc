"""Render observability artifacts on the terminal.

Usage::

    python -m repro.obs.report summary RUN.jsonl [--top N]
    python -m repro.obs.report diff A B [--top N]
    python -m repro.obs.report fuzz FUZZ.jsonl [--top N]
    python -m repro.obs.report service SVC.jsonl [--top N]

``summary`` renders, from one obs JSONL (any number of runs — e.g. a
whole Olden sweep appended into one file):

* a per-run result table (exit, instructions, cycles),
* a phase-time breakdown (decode / probe compile / CFG+fusion /
  execute).

``diff`` A/B-compares two artifacts of the *same* kind: either two
obs JSONL files (per-label cycles/instructions/execute-seconds
deltas) or two ``results/BENCH_engine.json`` records (per-engine
sweep seconds and speedup deltas).

``fuzz`` renders a ``python -m repro.fuzz`` result stream: programs
run per level/config, outcome-status and trap-class distributions,
shard summaries, and every recorded divergence.

``service`` renders a ``repro.service`` dispatcher stream: dispatch
traffic with the warm/cold split, per-worker job counts and warm
fractions, the requeue audit trail, and shutdown counter snapshots.

Every renderer is importable — the bench harness calls them to write
``results/obs_report.txt`` — and the CLI is just argument plumbing.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional, Tuple

from repro.harness.figures import format_table
from repro.obs.events import read_events, run_label, split_runs

#: phase columns of the breakdown table, in pipeline order
PHASES = ("decode", "probe_compile", "cfg_fusion", "execute")


# -- artifact loading --------------------------------------------------------

def load_artifact(path: str):
    """Classify and load one artifact.

    Returns ``("bench", record_dict)`` for a ``BENCH_engine.json``
    style record (a single JSON object with a ``speedups`` key) or
    ``("events", [event, ...])`` for an obs JSONL.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(1 << 20)
    try:
        record = json.loads(head)
    except ValueError:
        record = None
    if isinstance(record, dict) and "speedups" in record:
        return "bench", record
    return "events", list(read_events(path))


# -- per-run aggregation -----------------------------------------------------

class RunSummary:
    """Everything the renderers need from one run's event group."""

    __slots__ = ("label", "stats", "phases", "aborted")

    def __init__(self, run: List[dict]):
        self.label = run_label(run)
        self.stats: Dict = {}
        self.phases: Dict[str, float] = {}
        self.aborted = False
        for event in run:
            ev = event.get("ev")
            if ev in ("run_end", "run_abort"):
                self.aborted = ev == "run_abort"
                self.stats = event
                self.phases = event.get("phases") or {}


def summarize(events: List[dict]) -> List[RunSummary]:
    """Group a JSONL event stream into per-run summaries."""
    return [RunSummary(run) for run in split_runs(events)
            if any(e.get("ev") == "run_start" for e in run)]


# -- summary tables ----------------------------------------------------------

def runs_table(runs: List[RunSummary]) -> str:
    headers = ["run", "exit", "instructions", "cycles"]
    rows = []
    for run in runs:
        stats = run.stats
        rows.append([
            run.label,
            "abort" if run.aborted else str(stats.get("exit_code",
                                                      "?")),
            str(stats.get("instructions", "?")),
            str(stats.get("cycles", "?")),
        ])
    return format_table(headers, rows, "Runs")


def phase_table(runs: List[RunSummary]) -> str:
    """Phase-time breakdown, one row per run plus an aggregate."""
    headers = ["run"] + list(PHASES) + ["total"]
    rows = []
    agg = {phase: 0.0 for phase in PHASES}
    for run in runs:
        phases = run.phases
        cells = [run.label]
        total = 0.0
        for phase in PHASES:
            value = phases.get(phase, 0.0)
            agg[phase] += value
            total += value
            cells.append("%.4fs" % value)
        cells.append("%.4fs" % total)
        rows.append(cells)
    if len(rows) > 1:
        rows.append(["TOTAL"]
                    + ["%.4fs" % agg[phase] for phase in PHASES]
                    + ["%.4fs" % sum(agg.values())])
    return format_table(headers, rows, "Phase times")


def render_summary(events: List[dict]) -> str:
    """The full ``summary`` report for one JSONL event stream."""
    runs = summarize(events)
    if not runs:
        return "no runs recorded (is obs_events enabled?)"
    return "\n\n".join([runs_table(runs), phase_table(runs)])


# -- fuzz --------------------------------------------------------------------

def fuzz_overview_table(events: List[dict]) -> str:
    """Per-(level, safety-mode) program counts and verdicts."""
    cells: Dict[Tuple[str, str], Dict[str, int]] = {}
    for event in events:
        if event.get("ev") != "fuzz_run":
            continue
        config = event.get("config") or {}
        key = (event.get("level", "?"), str(config.get("mode", "?")))
        cell = cells.setdefault(key, {"programs": 0, "ok": 0,
                                      "trapped": 0})
        cell["programs"] += 1
        cell["ok"] += 1 if event.get("ok") else 0
        cell["trapped"] += 1 if event.get("trap") else 0
    headers = ["level", "mode", "programs", "agreed", "trapped"]
    rows = [[level, mode, str(cell["programs"]), str(cell["ok"]),
             str(cell["trapped"])]
            for (level, mode), cell in sorted(cells.items())]
    return format_table(headers, rows, "Fuzzed programs")


def fuzz_distribution_table(events: List[dict]) -> str:
    """Outcome-status and trap-class distribution."""
    status: Dict[str, int] = {}
    traps: Dict[str, int] = {}
    for event in events:
        if event.get("ev") != "fuzz_run":
            continue
        s = event.get("status", "?")
        status[s] = status.get(s, 0) + 1
        trap = event.get("trap")
        if trap:
            traps[trap] = traps.get(trap, 0) + 1
    rows = [["status:%s" % name, str(count)]
            for name, count in sorted(status.items())]
    rows += [["trap:%s" % name, str(count)]
             for name, count in sorted(traps.items())]
    return format_table(["outcome", "programs"], rows,
                        "Outcome distribution")


def fuzz_divergence_table(events: List[dict], top: int = 10) -> str:
    """Every recorded divergence (the table everyone hopes is empty)."""
    rows = []
    for event in events:
        if event.get("ev") != "fuzz_divergence":
            continue
        rows.append([
            "%s:%s" % (event.get("level", "?"), event.get("seed", "?")),
            event.get("kind", "?"),
            event.get("engine", "?"),
            "timed" if event.get("timing") else "functional",
            ",".join(event.get("fields") or []) or "-",
            (event.get("detail") or "")[:48],
        ])
    if not rows:
        return format_table(
            ["seed", "kind", "engine", "model", "fields", "detail"],
            [["-"] * 6], "Divergences (none recorded)")
    return format_table(
        ["seed", "kind", "engine", "model", "fields", "detail"],
        rows[:top], "Divergences (%d recorded)" % len(rows))


def fuzz_shard_table(events: List[dict]) -> str:
    headers = ["level", "seeds", "programs", "divergences", "traps"]
    rows = []
    for event in events:
        if event.get("ev") != "fuzz_summary":
            continue
        shard = event.get("shard") or ["?", "?"]
        traps = event.get("traps") or {}
        rows.append([
            event.get("level", "?"),
            "%s..%s" % (shard[0], shard[1]),
            str(event.get("programs", "?")),
            str(event.get("divergences", "?")),
            ", ".join("%s=%d" % kv for kv in sorted(traps.items()))
            or "-",
        ])
    return format_table(headers, rows, "Shards")


def render_fuzz(events: List[dict], top: int = 10) -> str:
    """The full ``fuzz`` report for one fuzz JSONL stream."""
    if not any(e.get("ev", "").startswith("fuzz_") for e in events):
        return ("no fuzz events recorded (produce a stream with "
                "python -m repro.fuzz --out PATH)")
    return "\n\n".join([fuzz_overview_table(events),
                        fuzz_distribution_table(events),
                        fuzz_shard_table(events),
                        fuzz_divergence_table(events, top)])


# -- service -----------------------------------------------------------------

def service_overview_table(events: List[dict]) -> str:
    """Dispatch traffic and warm/cold split across the stream."""
    dispatches = sum(1 for e in events
                    if e.get("ev") == "job_dispatch")
    requeues = sum(1 for e in events if e.get("ev") == "job_requeue")
    warm = cold = 0
    warm_s = cold_s = 0.0
    for event in events:
        if event.get("ev") != "worker_warm":
            continue
        seconds = float(event.get("seconds") or 0.0)
        if event.get("warm"):
            warm += 1
            warm_s += seconds
        else:
            cold += 1
            cold_s += seconds
    rows = [["dispatches", str(dispatches)],
            ["requeues", str(requeues)],
            ["warm jobs", str(warm)],
            ["cold jobs", str(cold)]]
    if warm and cold:
        mean_warm = warm_s / warm
        mean_cold = cold_s / cold
        rows.append(["mean cold s", "%.4f" % mean_cold])
        rows.append(["mean warm s", "%.4f" % mean_warm])
        if mean_warm > 0:
            rows.append(["cold/warm", "%.2fx"
                         % (mean_cold / mean_warm)])
    return format_table(["metric", "value"], rows,
                        "Service traffic")


def service_worker_table(events: List[dict]) -> str:
    """Per-worker job counts and warm fractions."""
    workers: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.get("ev") != "worker_warm":
            continue
        wid = str(event.get("worker", "?"))
        cell = workers.setdefault(wid, {"jobs": 0, "warm": 0,
                                        "seconds": 0.0})
        cell["jobs"] += 1
        cell["warm"] += 1 if event.get("warm") else 0
        cell["seconds"] += float(event.get("seconds") or 0.0)
    headers = ["worker", "jobs", "warm", "warm-frac", "busy-s"]
    rows = []
    for wid, cell in sorted(workers.items(),
                            key=lambda kv: int(kv[0])
                            if kv[0].isdigit() else 0):
        rows.append([
            "w" + wid, str(int(cell["jobs"])),
            str(int(cell["warm"])),
            "%.2f" % (cell["warm"] / cell["jobs"])
            if cell["jobs"] else "-",
            "%.3f" % cell["seconds"],
        ])
    return format_table(headers, rows, "Workers")


def service_requeue_table(events: List[dict], top: int = 10) -> str:
    """Every requeue (the crash-recovery audit trail)."""
    rows = []
    for event in events:
        if event.get("ev") != "job_requeue":
            continue
        rows.append([str(event.get("job", "?")),
                     event.get("reason", "?"),
                     "w%s" % event.get("worker", "?"),
                     str(event.get("exitcode", "?")),
                     str(event.get("attempt", "?"))])
    if not rows:
        return format_table(
            ["job", "reason", "worker", "exitcode", "attempt"],
            [["-"] * 5], "Requeues (none recorded)")
    return format_table(
        ["job", "reason", "worker", "exitcode", "attempt"],
        rows[:top], "Requeues (%d recorded)" % len(rows))


def service_status_table(events: List[dict]) -> str:
    """Final counter snapshots (one per service shutdown)."""
    rows = []
    for event in events:
        if event.get("ev") != "service_status":
            continue
        counters = event.get("counters") or {}
        for name in sorted(counters):
            rows.append([name, str(counters[name])])
    if not rows:
        return ""
    return format_table(["counter", "value"], rows,
                        "Shutdown counters")


def render_service(events: List[dict], top: int = 10) -> str:
    """The full ``service`` report for one JSONL event stream."""
    vocabulary = ("job_dispatch", "job_requeue", "worker_warm",
                  "service_status")
    if not any(e.get("ev") in vocabulary for e in events):
        return ("no service events recorded (run a sweep through "
                "the service with an --obs path, or point the "
                "daemon at one with start --obs)")
    sections = [service_overview_table(events),
                service_worker_table(events),
                service_requeue_table(events, top)]
    status = service_status_table(events)
    if status:
        sections.append(status)
    return "\n\n".join(sections)


# -- diffs -------------------------------------------------------------------

def _delta(a: float, b: float) -> str:
    if not a:
        return "n/a"
    return "%+.1f%%" % (100.0 * (b - a) / a)


def diff_bench(a: dict, b: dict) -> str:
    """A/B diff of two ``BENCH_engine.json`` records."""
    sections = []
    for sweep in ("functional", "timed"):
        rows = []
        sa = (a.get("seconds") or {}).get(sweep) or {}
        sb = (b.get("seconds") or {}).get(sweep) or {}
        for engine in sorted(set(sa) | set(sb)):
            va, vb = sa.get(engine), sb.get(engine)
            rows.append([engine,
                         "%.3fs" % va if va is not None else "-",
                         "%.3fs" % vb if vb is not None else "-",
                         _delta(va, vb)
                         if None not in (va, vb) else "n/a"])
        sections.append(format_table(
            ["engine", "A", "B", "delta"], rows,
            "%s sweep seconds" % sweep))
    rows = []
    spa = (a.get("speedups") or {}).get("timed") or {}
    spb = (b.get("speedups") or {}).get("timed") or {}
    for name in sorted(set(spa) | set(spb)):
        va, vb = spa.get(name), spb.get(name)
        rows.append([name,
                     "%.2fx" % va if va is not None else "-",
                     "%.2fx" % vb if vb is not None else "-",
                     _delta(va, vb) if None not in (va, vb)
                     else "n/a"])
    sections.append(format_table(["speedup", "A", "B", "delta"],
                                 rows, "timed speedups"))
    oa = (a.get("obs_overhead") or {}).get("ratio")
    ob = (b.get("obs_overhead") or {}).get("ratio")
    if oa is not None or ob is not None:
        sections.append(format_table(
            ["obs-overhead-ratio", "A", "B"],
            [["events-off/on", str(oa), str(ob)]],
            "Instrumentation overhead"))
    return "\n\n".join(sections)


def _by_label(runs: List[RunSummary]) -> Dict[str, RunSummary]:
    out: Dict[str, RunSummary] = {}
    for run in runs:
        out.setdefault(run.label, run)
    return out


def diff_events(a: List[dict], b: List[dict]) -> str:
    """A/B diff of two obs JSONL runs, matched by run label."""
    runs_a = _by_label(summarize(a))
    runs_b = _by_label(summarize(b))
    headers = ["run", "cycles A", "cycles B", "delta",
               "instrs A", "instrs B", "exec A", "exec B", "delta"]
    rows = []
    for label in sorted(set(runs_a) | set(runs_b)):
        ra, rb = runs_a.get(label), runs_b.get(label)
        if ra is None or rb is None:
            rows.append([label] + ["-"] * 8)
            continue
        ca = ra.stats.get("cycles")
        cb = rb.stats.get("cycles")
        ea = ra.phases.get("execute", 0.0)
        eb = rb.phases.get("execute", 0.0)
        rows.append([
            label, str(ca), str(cb),
            _delta(ca, cb) if None not in (ca, cb) else "n/a",
            str(ra.stats.get("instructions")),
            str(rb.stats.get("instructions")),
            "%.4fs" % ea, "%.4fs" % eb, _delta(ea, eb),
        ])
    return format_table(headers, rows, "A/B run diff (by label)")


def render_diff(path_a: str, path_b: str) -> str:
    kind_a, data_a = load_artifact(path_a)
    kind_b, data_b = load_artifact(path_b)
    if kind_a != kind_b:
        raise SystemExit(
            "cannot diff a %s artifact against a %s artifact"
            % (kind_a, kind_b))
    if kind_a == "bench":
        return diff_bench(data_a, data_b)
    return diff_events(data_a, data_b)


# -- CLI ---------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render obs JSONL traces and bench-record diffs")
    parser.add_argument("command", nargs="?", default="summary",
                        help='"summary" (default), "diff", "fuzz" '
                             'or "service"; a bare path is treated '
                             'as summary PATH')
    parser.add_argument("paths", nargs="*",
                        help="one JSONL for summary/fuzz/service; "
                             "two artifacts for diff")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the divergence / requeue "
                             "tables")
    args = parser.parse_args(argv)

    command = args.command
    paths = list(args.paths)
    if command not in ("summary", "diff", "fuzz", "service"):
        paths.insert(0, command)  # bare-path shorthand
        command = "summary"
    if command in ("summary", "fuzz", "service"):
        if len(paths) != 1:
            parser.error("%s takes exactly one JSONL path" % command)
        kind, data = load_artifact(paths[0])
        if kind != "events":
            parser.error("%s is a bench record; %s wants an "
                         "obs JSONL (use diff for bench records)"
                         % (paths[0], command))
        if command == "summary":
            print(render_summary(data))
        else:
            render = render_fuzz if command == "fuzz" else render_service
            print(render(data, top=args.top))
        return 0
    if len(paths) != 2:
        parser.error("diff takes exactly two artifact paths")
    print(render_diff(paths[0], paths[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
