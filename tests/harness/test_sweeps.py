"""Sensitivity sweeps through :func:`run_sweep`: direct coverage.

The sweeps defend the Figure-7 conclusion across the calibration
range.  One small workload keeps every sweep fast while still
asserting the *shape* of each result — overheads above 1.0, monotone
in the knob — plus parity between the in-process and pool backends.
"""

import pytest

from repro.baselines.fatptr import SoftBoundEngine
from repro.harness import SweepSpec, run_benchmark_matrix, run_sweep
from repro.harness.parallel import _engine_factory, main

WORKLOAD = ("treeadd",)


@pytest.fixture(scope="module")
def ccured_sweep():
    return run_sweep(SweepSpec(kind="ccured", workloads=WORKLOAD,
                               grid=(0.1, 0.9)), workers=1)


@pytest.fixture(scope="module")
def objtable_sweep():
    return run_sweep(SweepSpec(kind="objtable", workloads=WORKLOAD,
                               grid=(0.0, 0.95)), workers=1)


class TestCcuredSweep:
    def test_returns_one_overhead_per_fraction(self, ccured_sweep):
        assert set(ccured_sweep) == {0.1, 0.9}

    def test_overheads_exceed_baseline(self, ccured_sweep):
        assert all(value > 1.0 for value in ccured_sweep.values())

    def test_more_safe_pointers_means_less_overhead(self,
                                                    ccured_sweep):
        assert ccured_sweep[0.9] < ccured_sweep[0.1]


class TestObjtableSweep:
    def test_returns_one_overhead_per_fraction(self, objtable_sweep):
        assert set(objtable_sweep) == {0.0, 0.95}

    def test_overheads_exceed_baseline(self, objtable_sweep):
        assert all(value > 1.0 for value in objtable_sweep.values())

    def test_more_elision_means_less_overhead(self, objtable_sweep):
        assert objtable_sweep[0.95] < objtable_sweep[0.0]

    def test_sharded_path_matches_serial(self, objtable_sweep):
        sharded = run_sweep(SweepSpec(kind="objtable", workloads=WORKLOAD,
                                      grid=(0.0, 0.95)), workers=2)
        assert sharded == objtable_sweep


class TestHardboundAverage:
    def test_between_one_and_the_software_schemes(self, ccured_sweep,
                                                  objtable_sweep):
        matrix = run_benchmark_matrix(WORKLOAD, encodings=("intern11",),
                                      with_baselines=False)
        hb = sum(bench.overhead("intern11")
                 for bench in matrix.values()) / len(matrix)
        assert 1.0 < hb
        # the paper's conclusion at the calibrated points: hardware
        # bounds checking beats both software baselines
        assert hb < ccured_sweep[0.1]
        assert hb < objtable_sweep[0.0]


class TestPlumbing:
    def test_cli_prints_sweep_table(self, capsys):
        assert main(["--workers", "1", "--no-cache", "--sweep",
                     "ccured", "--workloads", "treeadd"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:4] == ["CCured SAFE-fraction sensitivity",
                             "================================",
                             "safe-frac  overhead",
                             "---------  --------"]
        rows = [line.split() for line in lines[4:]]
        assert [row[0] for row in rows] == ["0.10", "0.50", "0.90",
                                            "1.00"]
        overheads = [float(row[1]) for row in rows]
        assert all("%.3f" % value == row[1]
                   for value, row in zip(overheads, rows))
        assert overheads == sorted(overheads, reverse=True)

    def test_engine_factory_binds_safe_fraction(self):
        factory = _engine_factory(0.37)
        engine = factory("uncompressed", None, False, False)
        assert isinstance(engine, SoftBoundEngine)
        assert engine.safe_fraction == 0.37
