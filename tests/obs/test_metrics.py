"""Counters and phase timers."""

import pytest

from repro.obs.metrics import REGISTRY, MetricsRegistry, PhaseTimers


class TestMetricsRegistry:
    def test_counters_spring_into_existence(self):
        reg = MetricsRegistry()
        assert reg.get("a") == 0
        assert reg.get("a", default=7) == 7
        reg.inc("a")
        reg.inc("a", 2)
        assert reg.get("a") == 3

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("a")
        snap = reg.snapshot()
        reg.inc("a")
        assert snap == {"a": 1}
        assert reg.get("a") == 2

    def test_diff_reports_only_changed_counters(self):
        reg = MetricsRegistry()
        reg.inc("stale", 5)
        reg.inc("hot", 1)
        before = reg.snapshot()
        reg.inc("hot", 3)
        reg.inc("fresh", 2)
        assert reg.diff(before) == {"hot": 3, "fresh": 2}

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.snapshot() == {}

    def test_module_registry_is_shared(self):
        from repro.obs import metrics
        assert metrics.REGISTRY is REGISTRY


class TestPhaseTimers:
    def test_add_accumulates_seconds_and_calls(self):
        timers = PhaseTimers()
        timers.add("decode", 0.5)
        timers.add("decode", 0.25)
        timers.add("execute", 1.0)
        assert timers.seconds["decode"] == pytest.approx(0.75)
        assert timers.calls["decode"] == 2
        assert timers.total() == pytest.approx(1.75)
        assert timers.snapshot() == {"decode": pytest.approx(0.75),
                                     "execute": pytest.approx(1.0)}

    def test_snapshot_is_a_copy(self):
        timers = PhaseTimers()
        timers.add("decode", 1.0)
        snap = timers.snapshot()
        timers.add("decode", 1.0)
        assert snap["decode"] == pytest.approx(1.0)

    def test_phase_context_manager_charges_on_exit(self):
        timers = PhaseTimers()
        with timers.phase("cfg_fusion"):
            pass
        assert timers.calls["cfg_fusion"] == 1
        assert timers.seconds["cfg_fusion"] >= 0.0

    def test_phase_context_manager_charges_on_error(self):
        timers = PhaseTimers()
        with pytest.raises(RuntimeError):
            with timers.phase("execute"):
                raise RuntimeError("boom")
        assert timers.calls["execute"] == 1

