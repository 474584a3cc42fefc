"""Figure builders and the measurement runner on a reduced matrix."""

import pytest

from repro.harness.figures import (
    FIGURE7_PUBLISHED,
    FIGURE7_PUBLISHED_AVERAGE,
    check_uop_ablation_table,
    figure5_breakdown,
    figure5_table,
    figure6_table,
    figure7_table,
    format_table,
)
from repro.harness.parallel import run_benchmark_matrix
from repro.harness.runner import (
    BenchmarkRun,
    ENCODINGS,
    compile_cached,
    run_workload,
)
from repro.machine import MachineConfig
from repro.minic.codegen import InstrumentMode
from repro.workloads import WORKLOADS


@pytest.fixture(scope="module")
def small_matrix():
    return run_benchmark_matrix(workloads=["treeadd", "mst"],
                                with_baselines=True)


def test_published_table_matches_paper_rows():
    assert set(FIGURE7_PUBLISHED) == set(WORKLOADS)
    # spot-check two cells quoted from the paper
    assert FIGURE7_PUBLISHED["mst"]["ccured_pub"] == 1.87
    assert FIGURE7_PUBLISHED["em3d"]["jkrlda"] == 1.68
    assert FIGURE7_PUBLISHED_AVERAGE["intern11"] == 1.05


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert all(len(line) >= 6 for line in lines[2:])


def test_figure5_table_structure(small_matrix):
    headers, rows = figure5_table(small_matrix)
    assert headers[0] == "benchmark"
    # 2 workloads x 3 encodings + 3 average rows
    assert len(rows) == 2 * 3 + 3
    assert rows[-1][0] == "average"


def test_figure5_breakdown_fields(small_matrix):
    seg = figure5_breakdown(small_matrix["treeadd"], "intern11")
    assert set(seg) == {"setbound", "meta_uops", "meta_stall",
                        "pollution", "total"}
    assert seg["total"] > 0
    assert seg["setbound"] >= 0


def test_figure6_table_structure(small_matrix):
    headers, rows = figure6_table(small_matrix)
    assert len(rows) == 2 * 3 + 3
    pages = small_matrix["treeadd"].page_overhead("extern4")
    assert pages["total"] == pytest.approx(pages["tag"]
                                           + pages["shadow"])


def test_figure7_table_structure(small_matrix):
    headers, rows = figure7_table(small_matrix)
    assert len(headers) == 14
    assert len(rows) == 3  # two workloads + average
    for row in rows:
        for cell in row[1:]:
            assert float(cell) > 0.5


def test_check_uop_table(small_matrix):
    # reuse the same matrix for both: deltas must then be ~zero
    headers, rows = check_uop_ablation_table(small_matrix,
                                             small_matrix)
    assert rows[-1][-1] == "+0.0%"


def test_benchmark_run_metrics(small_matrix):
    bench = small_matrix["treeadd"]
    assert bench.overhead("intern11") > 1.0
    assert bench.ccured_runtime_overhead() > 1.0
    assert bench.ccured_uop_overhead() > 1.0
    assert bench.objtable_runtime_overhead() > 1.0


def test_compile_cached_reuses_programs():
    wl = WORKLOADS["treeadd"]
    p1 = compile_cached(wl.source, InstrumentMode.HARDBOUND)
    p2 = compile_cached(wl.source, InstrumentMode.HARDBOUND)
    assert p1 is p2
    p3 = compile_cached(wl.source, InstrumentMode.NONE)
    assert p3 is not p1


def test_run_workload_accepts_name_or_object():
    by_name = run_workload("treeadd",
                           MachineConfig.plain(timing=False))
    by_obj = run_workload(WORKLOADS["treeadd"],
                          MachineConfig.plain(timing=False))
    assert by_name.output == by_obj.output


def test_encodings_constant_matches_paper_order():
    assert ENCODINGS == ("extern4", "intern4", "intern11")


# -- golden output / round-trip coverage (PR 7) ------------------------------

def test_format_table_golden_output():
    text = format_table(["name", "value"],
                        [["a", "1.00x"], ["bb", "12.34x"]],
                        title="Overheads")
    assert text == ("Overheads\n"
                    "=========\n"
                    "name  value \n"
                    "----  ------\n"
                    "a     1.00x \n"
                    "bb    12.34x")


def test_format_table_without_title():
    text = format_table(["h"], [["x"]])
    assert text == "h\n-\nx"


def test_figure5_cells_round_trip_the_overheads(small_matrix):
    headers, rows = figure5_table(small_matrix)
    total_col = headers.index("total-overhead")
    for row in rows:
        name, enc = row[0], row[1]
        if name == "average":
            continue
        bench = small_matrix[name]
        expected = "%.1f%%" % (100 * (bench.overhead(enc) - 1.0))
        assert row[total_col] == expected


def test_figure6_cells_round_trip_the_page_overheads(small_matrix):
    headers, rows = figure6_table(small_matrix)
    extra_col = headers.index("extra-pages")
    for row in rows:
        name, enc = row[0], row[1]
        if name == "average":
            continue
        pages = small_matrix[name].page_overhead(enc)
        assert row[extra_col] == "%.1f%%" % (100 * pages["total"])


def test_figure7_cells_round_trip_the_measurements(small_matrix):
    headers, rows = figure7_table(small_matrix)
    sim_int11 = headers.index("int11(sim)")
    pub_int11 = headers.index("int11(pub)")
    for row in rows:
        name = row[0]
        if name == "average":
            continue
        bench = small_matrix[name]
        assert row[sim_int11] == "%.2f" % bench.overhead("intern11")
        assert row[pub_int11] \
            == "%.2f" % FIGURE7_PUBLISHED[name]["intern11"]


def test_figure_tables_render_deterministically(small_matrix):
    for builder in (figure5_table, figure6_table, figure7_table):
        headers, rows = builder(small_matrix)
        again = builder(small_matrix)
        assert format_table(headers, rows) \
            == format_table(*again)
