"""Service lifecycle: dispatch, dedup, crash requeue, timeouts,
drain, and the warm-cache contract."""

import os
import time

import pytest

from repro.harness.parallel import ResultCache, map_jobs, run_cell
from repro.obs.events import EventLog
from repro.service import (JobFailed, JobSpec, JobTimeout, Service,
                           ServiceClosed)


def square(x):
    return x * x


def slow_echo(job):
    """Append one execution line, sleep, echo (dedup witness)."""
    path, token, seconds = job
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("%s\n" % token)
    time.sleep(seconds)
    return token


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def crash_once(marker):
    """Die hard on the first attempt, succeed on the retry."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return "recovered"


def always_crash(_):
    os._exit(13)


def raise_value_error(message):
    raise ValueError(message)


@pytest.fixture
def service():
    svc = Service(workers=2, context="fork")
    yield svc
    svc.shutdown(drain=False)


class TestDispatch:
    def test_map_preserves_order(self, service):
        jobs = list(range(17))
        assert service.map(square, jobs) == [x * x for x in jobs]

    def test_map_jobs_service_path_matches_pool(self, service):
        jobs = list(range(8))
        assert map_jobs(square, jobs, service=service) \
            == map_jobs(square, jobs, workers=2)

    def test_worker_exception_fails_future_not_fleet(self, service):
        future = service.submit(raise_value_error, "boom")
        with pytest.raises(JobFailed, match="ValueError: boom"):
            future.result(timeout=30)
        # the fleet survives a failing job
        assert service.map(square, [3]) == [9]

    def test_status_counts_fleet_and_traffic(self, service):
        service.map(square, list(range(5)))
        status = service.status()
        assert len(status["workers"]) == 2
        assert all(worker["alive"] for worker in status["workers"])
        assert status["counters"]["completed"] == 5
        assert status["counters"]["submitted"] == 5


class TestDedup:
    def test_identical_inflight_keys_coalesce(self, tmp_path):
        witness = str(tmp_path / "executions")
        with Service(workers=1, context="fork") as service:
            # occupy the single worker so the keyed jobs stay queued
            blocker = service.submit(sleep_for, 0.3)
            f1 = service.submit(slow_echo, (witness, "A", 0.0),
                                key="same-cell")
            f2 = service.submit(slow_echo, (witness, "A", 0.0),
                                key="same-cell")
            assert f1 is f2  # the in-flight future is shared
            assert f1.result(timeout=30) == "A"
            assert blocker.result(timeout=30) == 0.3
            assert service.status()["counters"]["deduped"] == 1
        with open(witness, encoding="utf-8") as fh:
            assert fh.read() == "A\n"  # one execution, not two

    def test_store_hit_short_circuits_submission(self, tmp_path):
        store = ResultCache(str(tmp_path / "store"))
        store.put("cached-cell", {"cycles": 7})
        with Service(workers=1, context="fork",
                     store=store) as service:
            future = service.submit(square, 999, key="cached-cell")
            assert future.result(timeout=5) == {"cycles": 7}
            counters = service.status()["counters"]
            assert counters["store_hits"] == 1
            assert counters["dispatched"] == 0  # no worker touched


class TestCrashRecovery:
    def test_crash_mid_job_requeues_and_completes(self, tmp_path,
                                                  service):
        marker = str(tmp_path / "crashed-once")
        future = service.submit(crash_once, marker)
        assert future.result(timeout=60) == "recovered"
        counters = service.status()["counters"]
        assert counters["crashes"] == 1
        assert counters["requeued"] == 1
        # the dead worker was replaced: fleet is back to strength
        status = service.status()
        assert len(status["workers"]) == 2
        assert all(worker["alive"] for worker in status["workers"])

    def test_repeated_crash_fails_the_job(self, service):
        future = service.submit(always_crash, None)
        with pytest.raises(JobFailed, match="worker died"):
            future.result(timeout=60)
        # default max_attempts=2: one requeue, then give up
        assert service.status()["counters"]["requeued"] == 1
        assert service.map(square, [4]) == [16]

    def test_requeue_emits_obs_event(self, tmp_path):
        from repro.obs.events import read_events

        marker = str(tmp_path / "crashed-once")
        path = str(tmp_path / "events.jsonl")
        with Service(workers=2, context="fork",
                     obs=EventLog(path)) as service:
            service.submit(crash_once, marker).result(timeout=60)
        events = list(read_events(path))
        requeues = [e for e in events if e.get("ev") == "job_requeue"]
        assert len(requeues) == 1
        assert requeues[0]["reason"] == "crash"
        assert requeues[0]["exitcode"] == 13
        assert any(e.get("ev") == "job_dispatch" for e in events)
        assert any(e.get("ev") == "worker_warm" for e in events)
        assert any(e.get("ev") == "service_status" for e in events)


class TestTimeouts:
    def test_timeout_fails_job_and_recycles_worker(self):
        with Service(workers=1, context="fork") as service:
            future = service.submit(sleep_for, 30.0, timeout=0.2)
            with pytest.raises(JobTimeout):
                future.result(timeout=30)
            assert service.status()["counters"]["timeouts"] == 1
            # the stuck worker was terminated and replaced
            assert service.map(square, [6]) == [36]


class TestDrainAndShutdown:
    def test_graceful_shutdown_drains_the_queue(self):
        service = Service(workers=2, context="fork")
        futures = [service.submit(sleep_for, 0.05)
                   for _ in range(10)]
        service.shutdown(drain=True)
        assert all(f.result(timeout=0) == 0.05 for f in futures)

    def test_drain_is_sticky_submissions_refused(self, service):
        service.map(square, [1, 2])
        service.drain()
        with pytest.raises(ServiceClosed):
            service.submit(square, 3)

    def test_shutdown_without_drain_cancels_pending(self):
        service = Service(workers=1, context="fork")
        blocker = service.submit(sleep_for, 30.0)
        queued = service.submit(square, 5)
        service.shutdown(drain=False, timeout=10.0)
        with pytest.raises(ServiceClosed):
            queued.result(timeout=0)
        assert blocker.done()


class TestWarmContract:
    def test_second_request_runs_without_recompiling(self):
        # spawn context: workers start with cold program caches, so
        # the first request really pays compile + plan formation
        with Service(workers=1, context="spawn") as service:
            job = ("treeadd", "base", True, "blocks")
            first = service.submit(JobSpec(run_cell, job)) \
                .result(timeout=120)
            second = service.submit(JobSpec(run_cell, job)) \
                .result(timeout=120)
            status = service.status()
        assert first.cycles == second.cycles
        # cold request built the CFG/fusion plan; the warm request is
        # served from the resident program/plan caches, so its
        # compile-side phase timers collapse to ~0
        cold_fusion = first.phases.get("cfg_fusion", 0.0)
        warm_fusion = second.phases.get("cfg_fusion", 0.0)
        assert cold_fusion > 0.0
        assert warm_fusion < cold_fusion / 10
        assert second.phases.get("probe_compile", 0.0) \
            + second.phases.get("decode", 0.0) < 0.01
        worker = status["workers"][0]
        assert worker["jobs_done"] == 2
        assert worker["warm_jobs"] >= 1
