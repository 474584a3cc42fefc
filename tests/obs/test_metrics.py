"""Phase timers."""

import pytest

from repro.obs.metrics import PhaseTimers


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

