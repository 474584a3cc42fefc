"""Set-associative LRU cache model."""

import pytest
from hypothesis import given, strategies as st

from repro.caches import Cache


def test_parameters_validated():
    with pytest.raises(ValueError):
        Cache("bad", 1000, 4, 32)      # not a multiple of assoc*block
    with pytest.raises(ValueError):
        Cache("bad", 192, 2, 32)       # 3 sets: not a power of two
    assert Cache("ok", 96, 3, 32).num_sets == 1  # one set is fine


def test_first_access_misses_second_hits():
    cache = Cache("t", 1024, 2, 32)
    assert cache.access(0x100) is False
    assert cache.access(0x100) is True
    assert cache.access(0x11F) is True   # same 32B block
    assert cache.access(0x120) is False  # next block
    assert cache.misses == 2
    assert cache.hits == 2


def test_lru_eviction_within_set():
    cache = Cache("t", 2 * 2 * 32, 2, 32)  # 2 sets, 2 ways
    # three blocks mapping to set 0: block addresses stride num_sets*32
    a, b, c = 0x000, 0x040, 0x080
    cache.access(a)
    cache.access(b)
    cache.access(a)          # a is now MRU
    cache.access(c)          # evicts b (LRU)
    assert cache.contains(a)
    assert not cache.contains(b)
    assert cache.contains(c)
    assert cache.evictions == 1


def test_direct_mapped_conflicts():
    cache = Cache("dm", 4 * 32, 1, 32)
    cache.access(0x000)
    cache.access(0x080)      # 4 sets -> same set as 0x000? 0x80/32=4 -> set 0
    assert not cache.contains(0x000)


def test_reset_stats_keeps_contents():
    cache = Cache("t", 1024, 4, 32)
    cache.access(0x40)
    cache.reset_stats()
    assert cache.accesses == 0
    assert cache.access(0x40) is True


@given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1,
                      max_size=300))
def test_counters_are_consistent(addrs):
    cache = Cache("t", 512, 2, 32)
    for addr in addrs:
        cache.access(addr)
    assert cache.accesses == len(addrs)
    assert 0 <= cache.misses <= cache.accesses
    assert cache.hits == cache.accesses - cache.misses
    assert cache.evictions <= cache.misses
    assert 0.0 <= cache.miss_rate() <= 1.0


@given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1,
                      max_size=200))
def test_capacity_bound(addrs):
    """The cache never tracks more blocks than it has capacity for."""
    cache = Cache("t", 256, 2, 32)
    for addr in addrs:
        cache.access(addr)
    tracked = sum(len(s) for s in cache._sets.values())
    assert tracked <= cache.num_sets * cache.assoc


@given(addr=st.integers(0, 1 << 30))
def test_repeated_access_always_hits(addr):
    cache = Cache("t", 1024, 4, 32)
    cache.access(addr)
    for _ in range(3):
        assert cache.access(addr) is True
