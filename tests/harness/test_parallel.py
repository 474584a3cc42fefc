"""Sharded matrix harness: worker equivalence and on-disk caching."""

import pickle

from repro.harness.parallel import (
    ObjTableSummary,
    ResultCache,
    cell_descriptor,
    run_benchmark_matrix_parallel,
    run_cell,
    sweep_objtable_elision_parallel,
    sweep_tag_cache_parallel,
)
from repro.harness.runner import run_benchmark_matrix
from repro.obs.metrics import REGISTRY
from repro.harness.sweeps import (
    sweep_ccured_safe_fraction,
    sweep_objtable_elision,
)

WORKLOADS = ("treeadd", "power")
ENCODINGS = ("intern11",)
#: cells per workload: base + intern11 + ccured + objtable
CELLS = len(WORKLOADS) * 4


def assert_matrices_equal(parallel, serial):
    assert set(parallel) == set(serial)
    for name in serial:
        p, s = parallel[name], serial[name]
        assert p.base.cycles == s.base.cycles
        assert p.base.uops == s.base.uops
        for enc in ENCODINGS:
            assert p.encodings[enc].cycles == s.encodings[enc].cycles
            assert (p.encodings[enc].hb_stats.as_dict()
                    == s.encodings[enc].hb_stats.as_dict())
            assert abs(p.overhead(enc) - s.overhead(enc)) < 1e-12
        assert p.ccured.cycles == s.ccured.cycles
        assert p.objtable.extra_uops == s.objtable.extra_uops
        assert abs(p.ccured_runtime_overhead()
                   - s.ccured_runtime_overhead()) < 1e-12
        assert abs(p.objtable_runtime_overhead()
                   - s.objtable_runtime_overhead()) < 1e-12


class TestShardedMatrix:
    def test_matches_serial_and_warm_rerun_hits_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        before = REGISTRY.snapshot()
        parallel = run_benchmark_matrix_parallel(
            workloads=WORKLOADS, encodings=ENCODINGS, workers=2,
            cache=cache)
        assert cache.hits == 0
        assert cache.misses == CELLS
        assert cache.writes == CELLS
        assert cache.stats() == {"hits": 0, "misses": CELLS,
                                 "writes": CELLS, "corrupt": 0}
        # the sweep feeds the process-wide metrics registry
        delta = REGISTRY.diff(before)
        assert delta["harness.cache.misses"] == CELLS
        assert delta["harness.cache.writes"] == CELLS
        assert "harness.cache.hits" not in delta

        serial = run_benchmark_matrix(workloads=WORKLOADS,
                                      encodings=ENCODINGS)
        assert_matrices_equal(parallel, serial)

        # warm rerun: every cell served from disk, no worker touched
        warm_cache = ResultCache(str(tmp_path / "cache"))
        before = REGISTRY.snapshot()
        warm = run_benchmark_matrix_parallel(
            workloads=WORKLOADS, encodings=ENCODINGS, workers=2,
            cache=warm_cache)
        assert warm_cache.hits == CELLS
        assert warm_cache.misses == 0
        assert warm_cache.writes == 0
        assert REGISTRY.diff(before)["harness.cache.hits"] == CELLS
        assert_matrices_equal(warm, serial)

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
        run_benchmark_matrix_parallel(workloads=("treeadd",),
                                      encodings=ENCODINGS, workers=2,
                                      cache=cache)
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


class TestShardedSweeps:
    def test_ccured_sweep_matches_serial(self):
        names = ["treeadd"]
        fractions = [0.5, 0.9]
        serial = sweep_ccured_safe_fraction(names, fractions)
        parallel = sweep_ccured_safe_fraction(names, fractions,
                                              workers=2)
        assert set(serial) == set(parallel)
        for fraction in serial:
            assert abs(serial[fraction] - parallel[fraction]) < 1e-12

    def test_objtable_sweep_matches_serial_and_caches(self, tmp_path):
        names = ["treeadd"]
        fractions = [0.0, 0.5]
        serial = sweep_objtable_elision(names, fractions)
        cache = ResultCache(str(tmp_path / "cache"))
        parallel = sweep_objtable_elision_parallel(
            names, fractions, workers=2, cache=cache)
        assert set(serial) == set(parallel)
        for fraction in serial:
            assert abs(serial[fraction] - parallel[fraction]) < 1e-12
        # one baseline cell + one cell per fraction
        assert cache.misses == 1 + len(fractions)

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = sweep_objtable_elision_parallel(
            names, fractions, workers=2, cache=warm_cache)
        assert warm_cache.hits == 1 + len(fractions)
        assert warm_cache.misses == 0
        assert warm == parallel

    def test_objtable_sweep_workers_delegation(self):
        names = ["treeadd"]
        fractions = [0.5]
        serial = sweep_objtable_elision(names, fractions)
        delegated = sweep_objtable_elision(names, fractions, workers=2)
        assert abs(serial[0.5] - delegated[0.5]) < 1e-12

    def test_tag_cache_sweep_matches_direct_runs(self, tmp_path):
        from repro.caches.hierarchy import CacheParams
        from repro.harness.runner import run_workload
        from repro.machine.config import MachineConfig

        names = ["treeadd"]
        sizes = [512, 8192]
        cache = ResultCache(str(tmp_path / "cache"))
        sweep = sweep_tag_cache_parallel(names, sizes, workers=2,
                                         cache=cache)
        assert set(sweep) == {("treeadd", 512), ("treeadd", 8192)}
        for size in sizes:
            run = run_workload(
                "treeadd",
                MachineConfig.hardbound(encoding="extern4",
                                        retain_cpu=True),
                cache_params=CacheParams(tag_cache_size=size))
            cell = sweep[("treeadd", size)]
            assert cell["cycles"] == run.cycles
            assert abs(cell["tag_miss_rate"]
                       - run.cpu.memsys.tag_cache.miss_rate()) < 1e-12

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = sweep_tag_cache_parallel(names, sizes, workers=2,
                                        cache=warm_cache)
        assert warm_cache.hits == len(sizes)
        assert warm == sweep
