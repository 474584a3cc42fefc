"""The obs report CLI over synthetic and real event streams."""

import json

import pytest

from repro.harness.runner import run_workload
from repro.machine.config import MachineConfig
from repro.obs.events import EventLog
from repro.obs import report
from repro.obs.report import (
    RunSummary,
    diff_bench,
    diff_events,
    load_artifact,
    phase_table,
    render_summary,
    runs_table,
    summarize,
)


def synthetic_run(label, cycles=1000):
    """One run's worth of events, in emission order."""
    return [
        {"ev": "run_start",
         "manifest": {"label": label, "engine": "blocks",
                      "mode": "off"}},
        {"ev": "run_end", "exit_code": 0, "instructions": 5000,
         "uops": 5100, "stall_cycles": 10, "cycles": cycles,
         "phases": {"decode": 0.01, "cfg_fusion": 0.02,
                    "execute": 0.5}},
    ]


def synthetic_bench(seconds, speedup, ratio=1.01):
    return {
        "seconds": {"functional": {"blocks": seconds},
                    "timed": {"decoded": seconds * 2,
                              "blocks": seconds}},
        "speedups": {"timed": {"blocks_vs_decoded": speedup}},
        "obs_overhead": {"ratio": ratio},
    }


class TestSummaries:
    def test_summarize_groups_and_labels(self):
        events = synthetic_run("treeadd") + synthetic_run("bisort")
        runs = summarize(events)
        assert [r.label for r in runs] == ["treeadd/blocks/off",
                                           "bisort/blocks/off"]
        assert runs[0].stats["cycles"] == 1000
        assert runs[0].phases["execute"] == 0.5
        assert not runs[0].aborted

    def test_summarize_ignores_leading_noise(self):
        events = [{"ev": "sweep_summary", "hits": 3}] \
            + synthetic_run("treeadd")
        assert len(summarize(events)) == 1

    def test_aborted_run(self):
        events = [
            {"ev": "run_start", "manifest": {"engine": "blocks"}},
            {"ev": "run_abort", "error": "TrapError", "pc": 99,
             "instructions": 12, "phases": {"execute": 0.1}},
        ]
        [run] = summarize(events)
        assert run.aborted
        text = runs_table([run])
        assert "abort" in text


class TestTables:
    def test_runs_table_shows_result_stats(self):
        runs = summarize(synthetic_run("treeadd", cycles=1234))
        text = runs_table(runs)
        assert "treeadd/blocks" in text
        assert "5000" in text     # instructions
        assert "1234" in text     # cycles

    def test_phase_table_totals_across_runs(self):
        runs = summarize(synthetic_run("a") + synthetic_run("b"))
        text = phase_table(runs)
        assert "TOTAL" in text
        assert "0.5000s" in text  # one run's execute
        assert "1.0000s" in text  # both runs' execute

    def test_render_summary_empty_stream(self):
        assert "no runs recorded" in render_summary([])

    def test_render_summary_has_all_sections(self):
        text = render_summary(synthetic_run("treeadd"))
        assert "Runs" in text
        assert "Phase times" in text


class TestDiffs:
    def test_diff_events_matches_by_label(self):
        a = synthetic_run("treeadd", cycles=1000)
        b = synthetic_run("treeadd", cycles=1100) \
            + synthetic_run("bisort")
        text = diff_events(a, b)
        assert "+10.0%" in text
        # bisort exists only in B: dashed row, not a crash
        assert "bisort/blocks" in text

    def test_diff_bench_tables(self):
        a = synthetic_bench(2.0, 2.5, ratio=1.00)
        b = synthetic_bench(1.0, 2.6, ratio=1.02)
        text = diff_bench(a, b)
        assert "timed sweep seconds" in text
        assert "-50.0%" in text
        assert "2.50x" in text
        assert "2.60x" in text
        assert "Instrumentation overhead" in text
        assert "1.02" in text


class TestLoadArtifact:
    def test_classifies_bench_record(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(synthetic_bench(1.0, 2.5)))
        kind, data = load_artifact(str(path))
        assert kind == "bench"
        assert "speedups" in data

    def test_classifies_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(e) + "\n"
                                for e in synthetic_run("t")))
        kind, data = load_artifact(str(path))
        assert kind == "events"
        assert data[0]["ev"] == "run_start"


def write_jsonl(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return str(path)


class TestCli:
    def test_summary_command(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "run.jsonl",
                           synthetic_run("treeadd"))
        assert report.main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "treeadd/blocks" in out
        assert "Phase times" in out

    def test_bare_path_shorthand(self, tmp_path, capsys):
        path = write_jsonl(tmp_path / "run.jsonl",
                           synthetic_run("treeadd"))
        assert report.main([path]) == 0
        assert "treeadd/blocks" in capsys.readouterr().out

    def test_diff_command_events(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl",
                        synthetic_run("t", cycles=1000))
        b = write_jsonl(tmp_path / "b.jsonl",
                        synthetic_run("t", cycles=1200))
        assert report.main(["diff", a, b]) == 0
        assert "+20.0%" in capsys.readouterr().out

    def test_diff_command_bench(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(synthetic_bench(2.0, 2.5)))
        b.write_text(json.dumps(synthetic_bench(1.9, 2.55)))
        assert report.main(["diff", str(a), str(b)]) == 0
        assert "timed speedups" in capsys.readouterr().out

    def test_diff_rejects_mixed_kinds(self, tmp_path, capsys):
        a = write_jsonl(tmp_path / "a.jsonl", synthetic_run("t"))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(synthetic_bench(1.0, 2.5)))
        with pytest.raises(SystemExit):
            report.main(["diff", a, str(b)])

    def test_summary_rejects_bench_record(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps(synthetic_bench(1.0, 2.5)))
        with pytest.raises(SystemExit):
            report.main(["summary", str(path)])

    def test_summary_wants_exactly_one_path(self):
        with pytest.raises(SystemExit):
            report.main(["summary"])
        with pytest.raises(SystemExit):
            report.main(["diff", "only-one"])


class TestRealRun:
    """The CLI renders a real engine's event stream end to end."""

    def test_real_run_renders(self, tmp_path, capsys):
        path = str(tmp_path / "real.jsonl")
        run_workload("treeadd",
                     MachineConfig.plain(timing=False,
                                         engine="blocks",
                                         obs_events=path))
        assert report.main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "treeadd/blocks" in out
        assert "Phase times" in out
