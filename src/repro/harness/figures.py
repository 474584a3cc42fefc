"""Reproduction of the paper's Figures 5, 6 and 7 as printable tables.

Each ``figure*_table`` function takes the measurement matrix from
:func:`repro.harness.parallel.run_benchmark_matrix` and returns
``(headers, rows)`` where rows are lists of formatted cells;
:func:`format_table` renders them aligned.  The published numbers
quoted in Figure 7 are included as constants for side-by-side
comparison (they come from the paper itself and from the works it
cites — our simulator cannot re-measure a 2008 Pentium 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.harness.runner import BenchmarkRun, ENCODINGS

#: Figure 7's published/measured-on-real-hardware columns, quoted
#: verbatim from the paper (rows in figure order).
FIGURE7_PUBLISHED: Dict[str, Dict[str, float]] = {
    "bh": {"jkrlda": 1.00, "ccured_pub": 1.44, "p4": 1.33,
           "core2": 1.18, "opteron": 1.29, "cc_uops": 1.74,
           "cc_runtime": 1.72, "extern4": 1.22, "intern4": 1.22,
           "intern11": 1.14},
    "bisort": {"jkrlda": 1.00, "ccured_pub": 1.09, "p4": 1.09,
               "core2": 1.07, "opteron": 1.09, "cc_uops": 1.22,
               "cc_runtime": 1.20, "extern4": 1.01, "intern4": 1.02,
               "intern11": 1.02},
    "em3d": {"jkrlda": 1.68, "ccured_pub": 1.45, "p4": 1.51,
             "core2": 1.39, "opteron": 1.36, "cc_uops": 1.64,
             "cc_runtime": 1.31, "extern4": 1.18, "intern4": 1.04,
             "intern11": 1.02},
    "health": {"jkrlda": 1.44, "ccured_pub": 1.07, "p4": 0.99,
               "core2": 1.01, "opteron": 1.01, "cc_uops": 1.23,
               "cc_runtime": 1.11, "extern4": 1.17, "intern4": 1.20,
               "intern11": 1.15},
    "mst": {"jkrlda": 1.26, "ccured_pub": 1.87, "p4": 1.12,
            "core2": 1.05, "opteron": 1.09, "cc_uops": 1.39,
            "cc_runtime": 1.06, "extern4": 1.16, "intern4": 1.07,
            "intern11": 1.05},
    "perimeter": {"jkrlda": 0.99, "ccured_pub": 1.10, "p4": 1.22,
                  "core2": 1.25, "opteron": 1.32, "cc_uops": 1.58,
                  "cc_runtime": 1.51, "extern4": 1.02, "intern4": 1.01,
                  "intern11": 1.01},
    "power": {"jkrlda": 1.00, "ccured_pub": 1.29, "p4": 1.21,
              "core2": 1.02, "opteron": 1.10, "cc_uops": 1.80,
              "cc_runtime": 1.79, "extern4": 1.05, "intern4": 1.05,
              "intern11": 1.05},
    "treeadd": {"jkrlda": 0.98, "ccured_pub": 1.15, "p4": 1.19,
                "core2": 1.18, "opteron": 1.03, "cc_uops": 1.16,
                "cc_runtime": 1.09, "extern4": 1.03, "intern4": 1.03,
                "intern11": 1.03},
    "tsp": {"jkrlda": 1.03, "ccured_pub": 1.06, "p4": 0.96,
            "core2": 1.00, "opteron": 1.00, "cc_uops": 1.09,
            "cc_runtime": 1.07, "extern4": 1.02, "intern4": 1.01,
            "intern11": 1.01},
}

#: the paper's reported averages (last row of Figure 7)
FIGURE7_PUBLISHED_AVERAGE = {
    "jkrlda": 1.13, "ccured_pub": 1.26, "p4": 1.17, "core2": 1.12,
    "opteron": 1.14, "cc_uops": 1.40, "cc_runtime": 1.29,
    "extern4": 1.09, "intern4": 1.07, "intern11": 1.05,
}


def format_table(headers: List[str], rows: List[List[str]],
                 title: str = "") -> str:
    """Align a headers+rows table for terminal output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines.append(fmt % tuple(headers))
    lines.append(fmt % tuple("-" * w for w in widths))
    for row in rows:
        lines.append(fmt % tuple(row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5: runtime overhead breakdown
# ---------------------------------------------------------------------------

def figure5_breakdown(bench: BenchmarkRun,
                      encoding: str) -> Dict[str, float]:
    """The four stacked segments of one Figure 5 bar, as fractions of
    baseline runtime."""
    base = bench.base
    run = bench.encodings[encoding]
    base_cycles = base.cycles
    setbound_frac = (run.instructions - base.instructions) / base_cycles
    meta_uops_frac = run.hb_stats.meta_uops / base_cycles
    meta_stall_frac = run.mem_stats.metadata_stall_cycles() / base_cycles
    pollution = (run.mem_stats["data"].stall_cycles
                 - base.mem_stats["data"].stall_cycles) / base_cycles
    total = run.cycles / base_cycles - 1.0
    return {
        "setbound": setbound_frac,
        "meta_uops": meta_uops_frac,
        "meta_stall": meta_stall_frac,
        "pollution": max(pollution, 0.0),
        "total": total,
    }


def figure5_table(matrix: Dict[str, BenchmarkRun],
                  encodings: Iterable[str] = ENCODINGS
                  ) -> Tuple[List[str], List[List[str]]]:
    """Figure 5: per-benchmark, per-encoding overhead breakdown."""
    headers = ["benchmark", "encoding", "setbound", "meta-uops",
               "meta-stall", "pollution", "total-overhead"]
    rows = []
    sums = {enc: 0.0 for enc in encodings}
    for name, bench in matrix.items():
        for enc in encodings:
            seg = figure5_breakdown(bench, enc)
            sums[enc] += seg["total"]
            rows.append([name, enc,
                         "%.1f%%" % (100 * seg["setbound"]),
                         "%.1f%%" % (100 * seg["meta_uops"]),
                         "%.1f%%" % (100 * seg["meta_stall"]),
                         "%.1f%%" % (100 * seg["pollution"]),
                         "%.1f%%" % (100 * seg["total"])])
    n = len(matrix)
    for enc in encodings:
        rows.append(["average", enc, "", "", "", "",
                     "%.1f%%" % (100 * sums[enc] / n)])
    return headers, rows


# ----------------------------------------------------------------------------
# Figure 6: memory (distinct pages) overhead
# ----------------------------------------------------------------------------

def figure6_table(matrix: Dict[str, BenchmarkRun],
                  encodings: Iterable[str] = ENCODINGS
                  ) -> Tuple[List[str], List[List[str]]]:
    """Figure 6: extra distinct 4KB pages vs. baseline, split into tag
    and base/bound metadata."""
    headers = ["benchmark", "encoding", "tag-pages", "bb-pages",
               "extra-pages"]
    rows = []
    sums = {enc: 0.0 for enc in encodings}
    for name, bench in matrix.items():
        for enc in encodings:
            pages = bench.page_overhead(enc)
            sums[enc] += pages["total"]
            rows.append([name, enc,
                         "%.1f%%" % (100 * pages["tag"]),
                         "%.1f%%" % (100 * pages["shadow"]),
                         "%.1f%%" % (100 * pages["total"])])
    n = len(matrix)
    for enc in encodings:
        rows.append(["average", enc, "", "",
                     "%.1f%%" % (100 * sums[enc] / n)])
    return headers, rows


# ----------------------------------------------------------------------------
# Figure 7: comparison table
# ----------------------------------------------------------------------------

def figure7_table(matrix: Dict[str, BenchmarkRun]
                  ) -> Tuple[List[str], List[List[str]]]:
    """Figure 7: JK/RL/DA and CCured baselines vs. HardBound.

    "(pub)" columns quote the paper verbatim; "(sim)" columns are
    measured on our simulator.
    """
    headers = ["benchmark",
               "JK/RL/DA(pub)", "JK/RL/DA(sim)",
               "CCured(pub)", "CCured-uops(pub)", "CCured-uops(sim)",
               "CCured-run(pub)", "CCured-run(sim)",
               "ext4(pub)", "ext4(sim)",
               "int4(pub)", "int4(sim)",
               "int11(pub)", "int11(sim)"]
    rows = []
    acc = [0.0] * 13
    for name, bench in matrix.items():
        pub = FIGURE7_PUBLISHED[name]
        vals = [pub["jkrlda"], bench.objtable_runtime_overhead(),
                pub["ccured_pub"],
                pub["cc_uops"], bench.ccured_uop_overhead(),
                pub["cc_runtime"], bench.ccured_runtime_overhead(),
                pub["extern4"], bench.overhead("extern4"),
                pub["intern4"], bench.overhead("intern4"),
                pub["intern11"], bench.overhead("intern11")]
        for i, v in enumerate(vals):
            acc[i] += v
        rows.append([name] + ["%.2f" % v for v in vals])
    n = len(matrix)
    rows.append(["average"] + ["%.2f" % (v / n) for v in acc])
    return headers, rows


# ---------------------------------------------------------------------------
# Section 5.4 ablation: bounds check as an explicit µop
# ---------------------------------------------------------------------------

def check_uop_ablation_table(matrix: Dict[str, BenchmarkRun],
                             matrix_uop: Dict[str, BenchmarkRun],
                             encodings: Iterable[str] = ENCODINGS
                             ) -> Tuple[List[str], List[List[str]]]:
    """Extra overhead when uncompressed-pointer checks cost a µop."""
    headers = ["benchmark", "encoding", "parallel-check", "check-uop",
               "delta"]
    rows = []
    deltas = {enc: 0.0 for enc in encodings}
    for name in matrix:
        for enc in encodings:
            par = matrix[name].overhead(enc)
            uop = matrix_uop[name].overhead(enc)
            deltas[enc] += uop - par
            rows.append([name, enc, "%.3f" % par, "%.3f" % uop,
                         "+%.1f%%" % (100 * (uop - par))])
    n = len(matrix)
    for enc in encodings:
        rows.append(["average", enc, "", "",
                     "+%.1f%%" % (100 * deltas[enc] / n)])
    return headers, rows
