"""The report CLI module (corpus path only; figures are benchmarked)."""

import io
import sys

from repro.harness import report


def test_report_corpus_prints_clean_summary(capsys):
    report.report_corpus()
    out = capsys.readouterr().out
    assert "288 pairs" in out
    assert "0 false positives" in out
    assert "MISSED" not in out


def test_main_rejects_unknown_topic(capsys):
    assert report.main(["report", "nonsense"]) == 2
    assert "Usage" in capsys.readouterr().out


def test_main_corpus_topic(capsys):
    assert report.main(["report", "corpus"]) == 0
    assert "288" in capsys.readouterr().out


def test_main_figures_topic_renders_all_tables(capsys, monkeypatch):
    from repro.harness.parallel import run_benchmark_matrix

    matrix = run_benchmark_matrix(workloads=["treeadd"],
                                  with_baselines=True)
    monkeypatch.setattr(report, "run_benchmark_matrix",
                        lambda: matrix)
    assert report.main(["report", "figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5: runtime overhead breakdown" in out
    assert "Figure 6: extra distinct pages touched" in out
    assert "Figure 7: comparison vs software schemes" in out
    # a measured cell from the matrix round-trips into the output
    cell = "%.2f" % matrix["treeadd"].overhead("intern11")
    assert cell in out
