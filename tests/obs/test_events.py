"""The buffered JSONL event log and the CPU's event stream."""

import json
import os

import pytest

from repro.harness.runner import run_workload
from repro.machine.config import MachineConfig
from repro.obs.events import EventLog, read_events, run_label, split_runs


class TestEventLog:
    def test_pathless_log_accumulates_in_memory(self):
        log = EventLog()
        log.emit("run_start", manifest={"engine": "blocks"})
        log.emit("run_end", cycles=7)
        assert [e["ev"] for e in log.events] == ["run_start",
                                                 "run_end"]
        # flushing a pathless log is a no-op that keeps the buffer
        log.flush()
        assert len(log.events) == 2

    def test_emit_many_extends_buffer(self):
        log = EventLog()
        log.emit_many([{"ev": "a"}, {"ev": "b"}])
        assert [e["ev"] for e in log.events] == ["a", "b"]

    def test_flush_appends_jsonl_and_clears_buffer(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = EventLog(path)
        log.emit("run_start", manifest={"label": "t"})
        log.emit("run_end", cycles=1)
        log.flush()
        assert log.events == []
        log.emit("run_start", manifest={"label": "u"})
        log.flush()
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["ev"] == "run_start"
        assert json.loads(lines[2])["manifest"]["label"] == "u"

    def test_flush_with_empty_buffer_creates_no_file(self, tmp_path):
        path = str(tmp_path / "none.jsonl")
        EventLog(path).flush()
        assert not os.path.exists(path)

    def test_non_json_values_are_stringified(self, tmp_path):
        path = str(tmp_path / "odd.jsonl")
        log = EventLog(path)
        log.emit("run_abort", error=ValueError("bad"))
        log.flush()
        [event] = list(read_events(path))
        assert "bad" in event["error"]


class TestReadEvents:
    def test_skips_malformed_and_blank_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ev": "run_start"}\n'
                        "\n"
                        "not json at all\n"
                        '{"ev": "run_end", "cycles": 3}\n'
                        '{"ev": "run_ab')  # torn final line
        events = list(read_events(str(path)))
        assert [e["ev"] for e in events] == ["run_start", "run_end"]


class TestSplitRuns:
    def test_groups_at_run_start(self):
        events = [{"ev": "run_start"}, {"ev": "run_end"},
                  {"ev": "run_start"}, {"ev": "note"},
                  {"ev": "run_end"}]
        runs = split_runs(events)
        assert [len(run) for run in runs] == [2, 3]

    def test_leading_events_form_their_own_group(self):
        events = [{"ev": "sweep_summary"}, {"ev": "run_start"},
                  {"ev": "run_end"}]
        runs = split_runs(events)
        assert len(runs) == 2
        assert runs[0] == [{"ev": "sweep_summary"}]

    def test_empty_stream(self):
        assert split_runs([]) == []


class TestRunLabel:
    def test_joins_label_engine_mode(self):
        run = [{"ev": "run_start",
                "manifest": {"label": "treeadd",
                             "engine": "blocks",
                             "mode": "full"}}]
        assert run_label(run) == "treeadd/blocks/full"

    def test_omits_empty_parts(self):
        run = [{"ev": "run_start",
                "manifest": {"engine": "blocks", "mode": ""}}]
        assert run_label(run) == "blocks"

    def test_no_run_start(self):
        assert run_label([{"ev": "sweep_summary"}]) == "events"


class TestCpuEventStream:
    """End-to-end: a real run records the documented vocabulary."""

    def test_run_emits_manifest_and_stats(self):
        log = EventLog()
        result = run_workload(
            "treeadd",
            MachineConfig.plain(timing=False, engine="blocks",
                                obs_events=log))
        kinds = [e["ev"] for e in log.events]
        assert kinds == ["run_start", "run_end"]

        start = log.events[0]
        assert start["manifest"] == result.manifest
        assert start["manifest"]["label"] == "treeadd"

        end = log.events[-1]
        assert end["cycles"] == result.cycles
        assert end["instructions"] == result.instructions
        assert end["phases"] == result.phases

    def test_run_abort_event_carries_phases(self):
        log = EventLog()
        with pytest.raises(Exception):
            run_workload(
                "treeadd",
                MachineConfig.plain(timing=False,
                                    engine="blocks",
                                    obs_events=log,
                                    max_instructions=1000))
        kinds = [e["ev"] for e in log.events]
        assert "run_abort" in kinds
        assert "run_end" not in kinds
        abort = next(e for e in log.events if e["ev"] == "run_abort")
        assert abort["instructions"] >= 0
        assert "execute" in abort["phases"]

    def test_path_string_makes_cpu_own_and_flush(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_workload("treeadd",
                     MachineConfig.plain(timing=False,
                                         engine="blocks",
                                         obs_events=path))
        events = list(read_events(path))
        assert events[0]["ev"] == "run_start"
        assert any(e["ev"] == "run_end" for e in events)

    def test_events_off_runs_identically(self):
        log = EventLog()
        plain = MachineConfig.plain(timing=False, engine="blocks")
        traced = MachineConfig.plain(timing=False, engine="blocks",
                                     obs_events=log)
        a = run_workload("treeadd", plain)
        b = run_workload("treeadd", traced)
        # architectural statistics must be bit-identical
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert a.uops == b.uops
        assert a.output == b.output
