"""End-to-end daemon smoke: the CI service gate.

Starts a real background daemon through the CLI, submits a small
sweep twice over the socket, asserts the second pass is served
entirely from the shared store, drains, and stops — the lifecycle CI
runs with junit output required by ``check_bench_gate.py``.
"""

import os

import pytest

from repro.harness.parallel import (ResultCache, cell_descriptor,
                                    run_cell)
from repro.service import JobSpec, ServiceError
from repro.service.cli import main as service_cli
from repro.service.client import connect

JOBS = [("treeadd", "base", False, "blocks"),
        ("treeadd", "intern11", False, "blocks"),
        ("power", "base", False, "blocks"),
        ("power", "intern11", False, "blocks")]


def keyed_specs():
    return [JobSpec(run_cell, job,
                    key=ResultCache.key_of(cell_descriptor(*job)))
            for job in JOBS]


class TestDaemonSmoke:
    def test_full_lifecycle(self, tmp_path):
        state = str(tmp_path / "state")
        store = str(tmp_path / "store")
        assert service_cli(["--state-dir", state, "start",
                            "--workers", "2", "--store", store]) == 0
        try:
            with connect(state) as client:
                assert client.ping()
                first = [f.result(timeout=120)
                         for f in client.submit_many(keyed_specs())]
                second = [f.result(timeout=120)
                          for f in client.submit_many(keyed_specs())]
                status = client.status()
                client.drain()
            # identical cells, the second pass entirely from the
            # shared store — no worker ran anything twice
            assert [r.cycles for r in first] \
                == [r.cycles for r in second]
            counters = status["counters"]
            assert counters["completed"] == len(JOBS)
            assert counters["store_hits"] == len(JOBS)
            assert counters["failed"] == 0
            assert status["store"]["entries"] == len(JOBS)
            # status/stop still answer from a fresh connection
            assert service_cli(["--state-dir", state,
                                "status"]) == 0
        finally:
            assert service_cli(["--state-dir", state, "stop"]) == 0
        # stop cleaned the rendezvous: socket, authkey, pidfile gone
        for name in ("socket", "authkey", "daemon.pid"):
            assert not os.path.exists(os.path.join(state, name))
        with pytest.raises(ServiceError):
            connect(state)

    def test_connect_without_daemon_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no service daemon"):
            connect(str(tmp_path / "nowhere"))
