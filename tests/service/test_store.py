"""The shared result store (a :class:`ResultCache` directory):
concurrent publication, corruption, restart."""

import os
import pickle

from repro.harness.parallel import ResultCache, map_jobs
from repro.service import Service


def publish_one(job):
    """Pool worker: publish one keyed entry into a shared store."""
    store_dir, key, value = job
    ResultCache(store_dir).put(key, value)
    return key


def square(x):
    return x * x


class TestSharedStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultCache(str(tmp_path / "store"))
        key = ResultCache.key_of({"cell": 1})
        store.put(key, {"cycles": 99})
        assert store.get(key) == {"cycles": 99}
        assert len(store) == 1

    def test_concurrent_writers_all_entries_land(self, tmp_path):
        store_dir = str(tmp_path / "store")
        jobs = [(store_dir, ResultCache.key_of({"cell": i}),
                 {"value": i}) for i in range(24)]
        done = map_jobs(publish_one, jobs, workers=4)
        store = ResultCache(store_dir)
        assert done == [key for _dir, key, _value in jobs]
        assert len(store) == len(jobs)
        for _dir, key, value in jobs:
            assert store.get(key) == value
        # no temp file outlived its atomic rename
        assert sorted(os.listdir(store_dir)) \
            == sorted(key + ".pkl" for key in done)

    def test_racing_writers_on_one_key_last_wins_clean(self,
                                                      tmp_path):
        store_dir = str(tmp_path / "store")
        key = ResultCache.key_of({"cell": "contended"})
        jobs = [(store_dir, key, {"value": i}) for i in range(8)]
        map_jobs(publish_one, jobs, workers=4)
        store = ResultCache(store_dir)
        got = store.get(key)
        # atomic publish: some complete value, never a torn read
        assert got in [{"value": i} for i in range(8)]
        assert os.listdir(store_dir) == [key + ".pkl"]

    def test_corrupt_entry_deleted_and_dropped_from_entries(
            self, tmp_path):
        store = ResultCache(str(tmp_path / "store"))
        good = ResultCache.key_of({"cell": "good"})
        bad = ResultCache.key_of({"cell": "bad"})
        store.put(good, 1)
        store.put(bad, 2)
        with open(store._file(bad), "wb") as fh:
            fh.write(b"\x80garbage")
        assert store.get(bad) is None
        assert store.stats()["corrupt"] == 1
        assert not os.path.exists(store._file(bad))
        assert len(store) == 1
        assert store.get(good) == 1

    def test_same_format_as_result_cache(self, tmp_path):
        """A service store serves harness-cached cells and vice versa."""
        path = str(tmp_path / "shared")
        cached = ResultCache.key_of({"cell": "a"})
        ResultCache(path).put(cached, {"from": "cache"})
        published = ResultCache.key_of({"cell": "b"})
        with Service(workers=1, context="fork", store=path) as service:
            assert service.submit(square, 3, key=cached) \
                .result(timeout=30) == {"from": "cache"}
            assert service.submit(square, 3, key=published) \
                .result(timeout=30) == 9
        # the worker published into the directory the harness reads
        assert ResultCache(path).get(published) == 9

    def test_entries_survive_process_restart(self, tmp_path):
        path = str(tmp_path / "store")
        first = ResultCache(path)
        key = ResultCache.key_of({"cell": 1})
        first.put(key, list(range(10)))
        second = ResultCache(path)  # fresh instance, same dir
        assert second.get(key) == list(range(10))
        with open(second._file(key), "rb") as fh:
            assert pickle.load(fh) == list(range(10))
        assert len(second) == 1
