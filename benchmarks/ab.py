#!/usr/bin/env python
"""Alternating-pair A/B of two revisions on a perfbench workload.

Usage, from the repository root::

    python benchmarks/ab.py BASE [HEAD] --workload steady|fuzz \\
        [--pairs 10] [--trace]

Both revisions (``HEAD`` defaults to ``HEAD``) are materialized with
``git archive`` into one temporary directory, so each side runs its
own committed ``perfbench/run.py`` against its own ``src/``, read
only, and neither carries a working tree's leftovers.  Every run is
bytecode-free (``PYTHONDONTWRITEBYTECODE=1`` on fresh trees): a tree
with valid ``.pyc`` files imports faster, and that would show up as
a ``setup_s`` and ``import_ms`` gain that is no code's doing.

Pair *i* runs both sides with seed ``1001 + i``, in alternating
order (base first on even pairs, head first on odd ones), so a drift
in host load hits both sides alike.  Each run lasts the benchmark's
``run_seconds``.  The report prints every pair's values, then per
metric the two medians, the base's quartiles and how many pairs the
head won.  The better direction of each metric is read from
``BENCHMARK.json``; a tie counts for neither side.  Each end-to-end
metric also gets a verdict, by the first rule that holds:

* ``gain``: the head won at least 9 pairs in 10, and its median beats
  the base's by more than the base's interquartile range;
* ``worse``: the head's median is worse than the base's by more than
  the metric's ``bound`` (a fraction of the base median);
* ``unresolved``: the base's interquartile range is wider than the
  bound (a fraction of the base median), too wide to tell;
* ``same``: every other case.

``--trace`` runs perfbench's per-layer mode (``--trace 1``) instead of
the end-to-end one; per-layer metrics carry no bound and no verdict.

Exit status: 0 when every run reported, 1 when a run failed or
returned an incorrect result (the pairs that did report are still
summarized).  Stdlib only.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the seed of pair 0; pair i runs seed FIRST_SEED + i on both sides
FIRST_SEED = 1001


def materialize(rev: str, dest: str) -> str:
    """Extract ``rev``'s committed tree into ``dest``; returns
    ``dest``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                          rev], check=True, capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest


def run_perfbench(tree: str, workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    """One ``perfbench/run.py`` run of ``tree``: its report, or a
    report with ``error`` set when the run failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": "exit %d: %s" % (proc.returncode,
                                          proc.stderr.strip()[-300:])}
    report = json.loads(lines[-1])
    if not report.get("correct"):
        report["error"] = "%d of %d requests incorrect" % (
            report.get("failed", 0), report.get("attempted", 0))
    return report


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def directions(spec: dict) -> dict:
    """``{metric: "lower" | "higher"}`` from the benchmark spec."""
    return {entry["name"]: entry["better"]
            for key in ("end_to_end", "per_layer")
            for entry in spec.get(key, [])}


def quartiles(values: list) -> tuple:
    """Lower and upper quartile (``statistics.quantiles``' default
    method); a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list, better: str) -> dict:
    """One metric over ``(base, head)`` value pairs: the medians, the
    base's quartiles and the pairs the head won (``better`` is
    ``"lower"`` or ``"higher"``; a tie counts for neither)."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "higher" else -1
    base_q1, base_q3 = quartiles(base)
    return {
        "n": len(pairs),
        "base_median": statistics.median(base),
        "head_median": statistics.median(head),
        "base_q1": base_q1,
        "base_q3": base_q3,
        "head_wins": sum(sign * (h - b) > 0 for b, h in pairs),
    }


def bounds(spec: dict) -> dict:
    """``{metric: bound}`` of the end-to-end metrics."""
    return {entry["name"]: entry["bound"]
            for entry in spec.get("end_to_end", [])}


def verdict(s: dict, better: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for one metric's
    summary (see the module docstring for the rule)."""
    sign = 1 if better == "higher" else -1
    gap = sign * (s["head_median"] - s["base_median"])
    iqr = s["base_q3"] - s["base_q1"]
    scale = abs(s["base_median"])
    if 10 * s["head_wins"] >= 9 * s["n"] and gap > iqr:
        return "gain"
    if -gap > bound * scale:
        return "worse"
    if iqr > bound * scale:
        return "unresolved"
    return "same"


def values(report: dict) -> dict:
    return {name: entry["value"]
            for name, entry in report["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="base revision (the parent)")
    parser.add_argument("head", nargs="?", default="HEAD",
                        help="head revision (default: HEAD)")
    parser.add_argument("--workload", required=True,
                        choices=("steady", "fuzz"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="per-layer metrics (perfbench --trace 1)")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    better = directions(spec)
    bound = bounds(spec)
    failed = 0
    pairs = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": materialize(args.base, os.path.join(tmp, "base")),
                 "head": materialize(args.head, os.path.join(tmp, "head"))}
        print("A/B %s (base) vs %s (head): %s, %d pairs%s"
              % (args.base, args.head, args.workload, args.pairs,
                 ", per layer" if args.trace else ""))
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            reports = {side: run_perfbench(trees[side], args.workload,
                                           seed, spec["run_seconds"],
                                           args.trace)
                       for side in order}
            errors = ["%s: %s" % (side, reports[side]["error"])
                      for side in order if "error" in reports[side]]
            if errors:
                failed += 1
                print("pair %d seed %d FAILED (%s)"
                      % (i, seed, "; ".join(errors)))
                continue
            base, head = values(reports["base"]), values(reports["head"])
            print("pair %d seed %d (%s first): %s" % (
                i, seed, order[0], ", ".join(
                    "%s %.10g -> %.10g" % (name, base[name], head[name])
                    for name in base if name in head)))
            for name in base:
                if name in head:
                    pairs.setdefault(name, []).append(
                        (base[name], head[name]))
    print("%-20s %12s %12s %25s %9s  %s"
          % ("metric", "base med", "head med", "base q1..q3", "head won",
             "verdict"))
    for name, metric_pairs in pairs.items():
        direction = better.get(name, "lower")
        s = summarize(metric_pairs, direction)
        print("%-20s %12.6g %12.6g %12.6g..%-12.6g %4d/%-4d %s"
              % (name, s["base_median"], s["head_median"], s["base_q1"],
                 s["base_q3"], s["head_wins"], s["n"],
                 verdict(s, direction, bound[name]) if name in bound
                 else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
