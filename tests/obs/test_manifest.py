"""Run manifests and phase timers on live runs of every engine."""

import json

import pytest

from repro.harness.runner import run_workload
from repro.machine.config import ENGINES, MachineConfig


@pytest.fixture(scope="module")
def live_runs():
    """One functional treeadd run per engine."""
    return {engine: run_workload(
                "treeadd",
                MachineConfig.plain(timing=False, engine=engine))
            for engine in ENGINES}


class TestPhases:
    def test_every_engine_times_execute(self, live_runs):
        for engine, result in live_runs.items():
            assert result.phases["execute"] > 0.0, engine

    def test_decoding_engines_time_decode(self, live_runs):
        # legacy interprets Instruction records directly — no
        # decode phase to charge
        for engine in ("decoded", "blocks"):
            assert "decode" in live_runs[engine].phases, engine
        assert "decode" not in live_runs["legacy"].phases

    def test_block_tiers_time_cfg_fusion(self, live_runs):
        assert "cfg_fusion" in live_runs["blocks"].phases

    def test_timed_run_charges_probe_compile(self):
        result = run_workload(
            "treeadd", MachineConfig.plain(timing=True, engine="blocks"))
        assert result.phases["probe_compile"] > 0.0

    def test_phases_are_json_safe(self, live_runs):
        for result in live_runs.values():
            assert json.loads(json.dumps(result.phases)) \
                == result.phases


class TestManifest:
    def test_manifest_records_the_run_knobs(self, live_runs):
        for engine, result in live_runs.items():
            manifest = result.manifest
            assert manifest["engine"] == engine
            # workload labels are stamped only when tracing is on
            assert manifest["label"] == ""
            assert manifest["mode"] == "off"
            assert manifest["timing"] is False
            assert manifest["cache_geometry"] is None
            assert manifest["python"].count(".") == 2

    def test_manifest_records_cache_geometry_when_timed(self):
        result = run_workload(
            "treeadd", MachineConfig.hardbound(engine="blocks"))
        geometry = result.manifest["cache_geometry"]
        assert geometry is not None
        assert geometry["tag_cache_size"] > 0

    def test_manifest_is_json_safe(self, live_runs):
        for result in live_runs.values():
            assert json.loads(json.dumps(result.manifest)) \
                == result.manifest

    def test_git_sha_present_in_this_checkout(self, live_runs):
        sha = live_runs["blocks"].manifest["git_sha"]
        assert sha is None or len(sha) >= 7

    def test_manifest_carries_the_code_digest(self, live_runs):
        """The digest of the sources that ran, the one every harness
        cell key holds: unlike the git sha, it sees uncommitted
        edits."""
        from repro.harness import parallel
        for result in live_runs.values():
            assert result.manifest["code_digest"] == \
                parallel.code_digest()
