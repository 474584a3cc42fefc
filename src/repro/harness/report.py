"""Command-line regeneration of every paper artifact.

Usage::

    python -m repro.harness.report            # everything (~2 min)
    python -m repro.harness.report figures    # Figures 5-7 only
    python -m repro.harness.report corpus     # Section 5.2 corpus only
"""

from __future__ import annotations

import sys

from repro.harness.figures import (
    figure5_table,
    figure6_table,
    figure7_table,
    format_table,
)
from repro.harness.parallel import run_benchmark_matrix
from repro.harness.violations import run_corpus


def report_corpus() -> None:
    print("Section 5.2: spatial-violation corpus "
          "(288 pairs, full-safety HardBound)")
    result = run_corpus(progress=True)
    print("  " + result.summary())
    if not result.clean:
        for name in result.missed:
            print("  MISSED: %s" % name)
        for name in result.false_positives:
            print("  FALSE POSITIVE: %s" % name)


def report_figures() -> None:
    print("Running the Section 5 measurement matrix "
          "(9 workloads x 6 configurations)...")
    matrix = run_benchmark_matrix()
    for builder, title in (
            (figure5_table, "Figure 5: runtime overhead breakdown"),
            (figure6_table, "Figure 6: extra distinct pages touched"),
            (figure7_table, "Figure 7: comparison vs software schemes")):
        headers, rows = builder(matrix)
        print()
        print(format_table(headers, rows, title))


def main(argv) -> int:
    what = argv[1] if len(argv) > 1 else "all"
    if what in ("corpus", "all"):
        report_corpus()
    if what in ("figures", "all"):
        report_figures()
    if what not in ("corpus", "figures", "all"):
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
