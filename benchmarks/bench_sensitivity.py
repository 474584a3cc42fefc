"""E13 (extension) — robustness of Figure 7 to baseline calibration.

The software baselines embed two modelled constants (DESIGN.md).
This sweep shows the headline comparison — HardBound cheaper than
both software schemes — holds across the entire plausible range of
those constants, not only at the calibrated point.
"""

from conftest import write_result

from repro.harness import SweepSpec, run_benchmark_matrix, run_sweep
from repro.harness.figures import format_table

WORKLOADS = ("treeadd", "mst", "perimeter")
SAFE_FRACTIONS = (0.3, 0.5, 0.6, 0.75, 0.9)
ELIDE_FRACTIONS = (0.80, 0.90, 0.93, 0.97)


def test_calibration_sensitivity(benchmark):
    def sweep():
        ccured = run_sweep(SweepSpec(kind="ccured", workloads=WORKLOADS,
                                     grid=SAFE_FRACTIONS), workers=1)
        objtable = run_sweep(SweepSpec(kind="objtable",
                                       workloads=WORKLOADS,
                                       grid=ELIDE_FRACTIONS), workers=1)
        matrix = run_benchmark_matrix(WORKLOADS, encodings=("intern11",),
                                      with_baselines=False)
        hb = sum(bench.overhead("intern11")
                 for bench in matrix.values()) / len(matrix)
        return ccured, objtable, hb

    ccured, objtable, hb = benchmark.pedantic(sweep, rounds=1,
                                              iterations=1)
    rows = [[label, "%.2f" % fraction, "%.3f" % overhead]
            for label, curve in (("ccured-safe-fraction", ccured),
                                 ("objtable-elide-fraction", objtable))
            for fraction, overhead in sorted(curve.items())]
    rows.append(["hardbound-intern11", "-", "%.3f" % hb])
    table = format_table(["model", "constant", "avg-overhead"], rows,
                         "E13: calibration sensitivity")
    print("\n" + table)
    write_result("sensitivity.txt", table)

    # CCured overhead decreases monotonically with the SAFE fraction
    ordered = [ccured[f] for f in sorted(ccured)]
    assert ordered == sorted(ordered, reverse=True)
    # even at the most favourable calibration, HardBound wins
    assert hb < min(ccured.values())
    assert hb < min(objtable.values())


def test_objtable_monotone_in_elision(benchmark):
    spec = SweepSpec(kind="objtable", workloads=("treeadd",),
                     grid=(0.5, 0.9, 0.99))
    sweep = benchmark.pedantic(lambda: run_sweep(spec, workers=1),
                               rounds=1, iterations=1)
    ordered = [sweep[f] for f in sorted(sweep)]
    assert ordered == sorted(ordered, reverse=True)
