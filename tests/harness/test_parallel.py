"""The cell runner: equivalence with direct runs, and on-disk caching.

Every reference number here comes from :func:`run_workload` under a
``MachineConfig`` spelled out in this file, never from the runner
under test.
"""

import concurrent.futures
import pickle

import pytest

from repro.baselines.fatptr import SoftBoundEngine
from repro.baselines.objtable import ObjectTableModel
from repro.harness import parallel
from repro.harness.parallel import (
    ObjTableSummary,
    ResultCache,
    cell_descriptor,
    run_benchmark_matrix,
    run_cell,
)
from repro.harness.runner import run_workload
from repro.harness.sweep_api import _KINDS, SweepSpec, run_sweep
from repro.machine.config import MachineConfig, SafetyMode
from repro.service import Service

WORKLOADS = ("treeadd", "power")
ENCODINGS = ("intern11",)
#: cells per workload: base + intern11 + ccured + objtable
CELLS = len(WORKLOADS) * 4


@pytest.fixture(scope="module")
def direct_runs():
    """The four matrix cell kinds, run directly per workload."""
    runs = {}
    for name in WORKLOADS:
        model = ObjectTableModel()
        run_workload(name, MachineConfig.hardbound(timing=False),
                     observer=model)
        runs[name] = {
            "base": run_workload(name, MachineConfig.plain()),
            "intern11": run_workload(
                name, MachineConfig.hardbound(encoding="intern11")),
            "ccured": run_workload(name, MachineConfig(
                mode=SafetyMode.FULL, encoding="uncompressed",
                engine_factory=SoftBoundEngine)),
            "objtable": model,
        }
    return runs


def assert_matrix_matches_direct_runs(matrix, direct):
    assert set(matrix) == set(direct)
    for name, runs in direct.items():
        bench = matrix[name]
        assert bench.base.cycles == runs["base"].cycles
        assert bench.base.uops == runs["base"].uops
        hb = bench.encodings["intern11"]
        assert hb.cycles == runs["intern11"].cycles
        assert hb.hb_stats.as_dict() == runs["intern11"].hb_stats.as_dict()
        assert bench.overhead("intern11") \
            == runs["intern11"].cycles / runs["base"].cycles
        assert bench.ccured.cycles == runs["ccured"].cycles
        assert bench.ccured.setbound_uops == runs["ccured"].setbound_uops
        assert bench.objtable.extra_uops == runs["objtable"].extra_uops


class TestShardedMatrix:
    def test_matches_serial_and_warm_rerun_hits_cache(self, tmp_path,
                                                      direct_runs):
        cache = ResultCache(str(tmp_path / "cache"))
        parallel_matrix = run_benchmark_matrix(
            workloads=WORKLOADS, encodings=ENCODINGS, workers=2,
            cache=cache)
        assert cache.hits == 0
        assert cache.misses == CELLS
        assert cache.writes == CELLS
        assert cache.stats() == {"hits": 0, "misses": CELLS,
                                 "writes": CELLS, "corrupt": 0}
        assert len(cache) == CELLS
        assert_matrix_matches_direct_runs(parallel_matrix, direct_runs)

        # warm rerun: every cell served from disk, no worker touched
        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = run_benchmark_matrix(
            workloads=WORKLOADS, encodings=ENCODINGS, workers=2,
            cache=warm_cache)
        assert warm_cache.hits == CELLS
        assert warm_cache.misses == 0
        assert warm_cache.writes == 0
        assert_matrix_matches_direct_runs(warm, direct_runs)

    def test_in_process_default_matches_direct_runs(self, direct_runs):
        matrix = run_benchmark_matrix(workloads=WORKLOADS,
                                      encodings=ENCODINGS)
        assert_matrix_matches_direct_runs(matrix, direct_runs)

    def test_corrupt_entry_counted_deleted_and_rewritten(
            self, tmp_path):
        import os

        cache = ResultCache(str(tmp_path / "cache"))
        key = ResultCache.key_of({"cell": "poisoned"})
        cache.put(key, {"value": 42})
        with open(cache._file(key), "wb") as fh:
            fh.write(b"not a pickle")  # torn write at rest
        assert cache.get(key) is None
        # distinguished from a clean miss, and the poison is gone
        assert cache.stats() == {"hits": 0, "misses": 0,
                                 "writes": 1, "corrupt": 1}
        assert not os.path.exists(cache._file(key))
        # the caller's rerun rewrites and serves the entry again
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.stats() == {"hits": 1, "misses": 0,
                                 "writes": 2, "corrupt": 1}

    def test_cli_cache_entries_are_readable_by_the_library(
            self, tmp_path):
        """Regression: ``python -m`` runs a second copy of the module
        as ``__main__``; the CLI must still pickle its results as
        ``repro.harness.parallel.*``, or the library reads the
        object-table cell as corrupt."""
        import os
        import subprocess
        import sys

        import repro

        cache_dir = str(tmp_path / "cache")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.parallel",
             "--workers", "1", "--figure", "7",
             "--workloads", "treeadd", "--cache-dir", cache_dir],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        cache = ResultCache(cache_dir)
        run_benchmark_matrix(["treeadd"], cache=cache)
        assert (cache.hits, cache.corrupt) == (6, 0)

    def test_source_change_invalidates_cell_key(self):
        a = ResultCache.key_of(
            cell_descriptor("treeadd", "intern11", True, "decoded"))
        b = ResultCache.key_of(
            cell_descriptor("treeadd", "intern11", True, "legacy"))
        c = ResultCache.key_of(
            cell_descriptor("treeadd", "intern11", False, "decoded"))
        d = ResultCache.key_of(
            cell_descriptor("power", "intern11", True, "decoded"))
        assert len({a, b, c, d}) == 4

    def test_cell_results_are_picklable_snapshots(self):
        result = run_cell(("treeadd", "intern11", False, "decoded"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.cycles == result.cycles
        assert clone.hb_stats.as_dict() == result.hb_stats.as_dict()
        summary = run_cell(("treeadd", "objtable", False, "decoded"))
        assert isinstance(summary, ObjTableSummary)
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.extra_uops == summary.extra_uops

    def test_obs_env_var_streams_worker_events(self, tmp_path,
                                               monkeypatch):
        from repro.obs.events import read_events

        path = str(tmp_path / "sweep.jsonl")
        monkeypatch.setenv("REPRO_OBS", path)
        cache = ResultCache(str(tmp_path / "cache"))
        run_benchmark_matrix(workloads=("treeadd",), encodings=ENCODINGS,
                             workers=2, cache=cache)
        events = list(read_events(path))
        starts = [e for e in events if e.get("ev") == "run_start"]
        # base + intern11 + ccured + objtable, one run each, all
        # appended atomically by the worker processes
        assert len(starts) == 4
        assert {e["manifest"]["label"] for e in starts} \
            == {"treeadd"}
        assert any(e.get("ev") == "run_end" for e in events)
        # the parent appends the sweep's cache traffic at the end
        summary = events[-1]
        assert summary["ev"] == "sweep_summary"
        assert summary["misses"] == 4
        assert summary["writes"] == 4

    def test_obs_knobs_never_reach_cache_keys(self):
        # turning tracing on must not cold-start the result cache
        descriptor = cell_descriptor("treeadd", "intern11", True,
                                     "blocks")
        assert "obs" not in repr(descriptor)

    def test_cell_results_carry_their_manifest(self):
        result = run_cell(("treeadd", "intern11", False, "blocks"))
        manifest = pickle.loads(pickle.dumps(result)).manifest
        assert manifest["engine"] == "blocks"
        assert manifest["encoding"] == "intern11"
        assert manifest["timing"] is False
        summary = run_cell(("treeadd", "objtable", False, "decoded"))
        assert summary.manifest["mode"] == "full"
        assert pickle.loads(pickle.dumps(summary)).manifest \
            == summary.manifest


class TestCodeDigest:
    @staticmethod
    def every_key():
        """One key per matrix cell kind and per sweep kind."""
        keys = [ResultCache.key_of(cell_descriptor("treeadd", kind,
                                                   True, "blocks"))
                for kind in ("base", "intern11", "ccured", "objtable")]
        for kind, grid in (("ccured", (0.5,)), ("objtable", (0.5,)),
                           ("tagcache", (512,))):
            spec = SweepSpec(kind=kind, workloads=("treeadd",),
                             grid=grid)
            sweep = _KINDS[kind]
            keys += [ResultCache.key_of(sweep.descriptor(*job))
                     for job in sweep.jobs(spec)]
        return keys

    def test_digest_is_part_of_every_key(self, monkeypatch):
        keys = self.every_key()
        monkeypatch.setattr(parallel, "code_digest", lambda: "0" * 64)
        changed = self.every_key()
        assert len(set(keys)) == len(keys)
        assert not set(keys) & set(changed)

    def test_entry_written_under_another_digest_is_a_miss(
            self, tmp_path, monkeypatch):
        spec = SweepSpec(kind="objtable", workloads=("treeadd",),
                         grid=(0.5,))
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "code_digest", lambda: "0" * 64)
            stale = ResultCache(str(tmp_path / "cache"))
            run_sweep(spec, workers=1, cache=stale)
            assert stale.writes == 2
        fresh = ResultCache(str(tmp_path / "cache"))
        run_sweep(spec, workers=1, cache=fresh)
        assert fresh.stats() == {"hits": 0, "misses": 2, "writes": 2,
                                 "corrupt": 0}


class TestShardedSweeps:
    def test_ccured_sweep_matches_serial(self):
        def factory(encoding, memsys, check_uop, check_access_extent):
            return SoftBoundEngine(encoding, memsys, check_uop,
                                   check_access_extent,
                                   safe_fraction=0.5)

        config = MachineConfig(mode=SafetyMode.FULL,
                               encoding="uncompressed",
                               engine_factory=factory)
        expected = run_workload("treeadd", config).cycles \
            / run_workload("treeadd", MachineConfig.plain()).cycles
        sweep = run_sweep(SweepSpec(kind="ccured", workloads=("treeadd",),
                                    grid=(0.5,)), workers=2)
        assert sweep == {0.5: expected}

    def test_objtable_sweep_matches_serial_and_caches(self, tmp_path):
        model = ObjectTableModel(elide_fraction=0.5)
        run_workload("treeadd", MachineConfig.hardbound(timing=False),
                     observer=model)
        base = run_workload("treeadd", MachineConfig.plain()).cycles
        expected = (base + model.extra_uops) / base

        spec = SweepSpec(kind="objtable", workloads=("treeadd",),
                         grid=(0.0, 0.5))
        cache = ResultCache(str(tmp_path / "cache"))
        sweep = run_sweep(spec, workers=2, cache=cache)
        assert set(sweep) == {0.0, 0.5}
        assert sweep[0.5] == expected
        # one baseline cell + one cell per fraction
        assert cache.misses == 1 + len(spec.grid)

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = run_sweep(spec, workers=2, cache=warm_cache)
        assert warm_cache.hits == 1 + len(spec.grid)
        assert warm_cache.misses == 0
        assert warm == sweep

    def test_objtable_sweep_workers_delegation(self, monkeypatch):
        spec = SweepSpec(kind="objtable", workloads=("treeadd",),
                         grid=(0.5,))
        pooled = run_sweep(spec, workers=2)
        # workers=1 runs every cell in process: no pool is created
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            None)
        assert run_sweep(spec, workers=1) == pooled

    def test_tag_cache_sweep_matches_direct_runs(self, tmp_path):
        from repro.caches.hierarchy import CacheParams

        spec = SweepSpec(kind="tagcache", workloads=("treeadd",),
                         grid=(512, 8192))
        cache = ResultCache(str(tmp_path / "cache"))
        sweep = run_sweep(spec, workers=2, cache=cache)
        assert set(sweep) == {("treeadd", 512), ("treeadd", 8192)}
        for size in spec.grid:
            # the legacy engine runs the classic model, whose tag
            # cache is an independent Cache
            run = run_workload(
                "treeadd",
                MachineConfig.hardbound(encoding="extern4",
                                        engine="legacy",
                                        retain_cpu=True),
                cache_params=CacheParams(tag_cache_size=size))
            cell = sweep[("treeadd", size)]
            assert cell["cycles"] == run.cycles
            assert abs(cell["tag_miss_rate"]
                       - run.cpu.memsys.tag_cache.miss_rate()) < 1e-12

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = run_sweep(spec, workers=2, cache=warm_cache)
        assert warm_cache.hits == len(spec.grid)
        assert warm == sweep

    def test_service_route_matches_in_process_and_reuses_store(
            self, tmp_path):
        spec = SweepSpec(kind="objtable", workloads=("treeadd",),
                         grid=(0.0, 0.5))
        expected = run_sweep(spec, workers=1)
        cells = 1 + len(spec.grid)
        with Service(workers=2, context="fork",
                     store=str(tmp_path / "store")) as service:
            assert run_sweep(spec, service=service) == expected
            first = service.status()["counters"]
            assert run_sweep(spec, service=service) == expected
            second = service.status()["counters"]
        assert first["dispatched"] == cells
        assert second["store_hits"] - first["store_hits"] == cells
        assert second["dispatched"] == first["dispatched"]
