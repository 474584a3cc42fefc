"""FastMemorySystem must be counter-identical to MemorySystem.

Random access streams (including tiny caches that force constant
aliasing and eviction, spanning accesses, and the hot-probe entry
points) are replayed against both models and every statistic is
compared — across an associativity/size sweep, since the fast
model's generated probes unroll their way scans for ``assoc <= 4``
and take a distinct bounded-scan path above that.  Whole-workload
equivalence is covered by the engine differential suite.
"""

import random

import pytest

from repro.caches.fast import (DATA_CHARGE, WORD_CHARGE,
                              FastMemorySystem)
from repro.caches.hierarchy import CacheParams, MemorySystem
from repro.layout import TAG1_BASE, shadow_base_addr

KINDS = ("data", "shadow", "tag", "soft")


def sweep_params(assoc, sets):
    """A legal geometry with every structure at the given shape."""
    return CacheParams(
        l1_size=32 * assoc * sets, l1_assoc=assoc,
        l2_size=32 * assoc * sets * 8, l2_assoc=assoc,
        tag_cache_size=32 * assoc * sets, tag_cache_assoc=assoc,
        tlb_entries=4 * assoc, tlb_assoc=assoc)


def assert_same_stats(classic, fast):
    assert fast.stats.as_dict() == classic.stats.as_dict()
    assert fast.stats.total_stall_cycles() == \
        classic.stats.total_stall_cycles()


def replay(params, stream):
    classic = MemorySystem(params)
    fast = FastMemorySystem(params)
    for addr, size, write, kind in stream:
        assert fast.access(addr, size, write, kind) == \
            classic.access(addr, size, write, kind), (addr, size, kind)
    assert_same_stats(classic, fast)
    return classic, fast


def inline_charge(lines, names):
    """Compile exported charge lines the way a caller splices them."""
    namespace = dict(names)
    exec("def charge(ea):\n" + "\n".join("    " + line for line in lines),
         namespace)
    return namespace["charge"]


def random_stream(rng, n, addr_space, kinds=KINDS):
    stream = []
    for _ in range(n):
        kind = rng.choice(kinds)
        addr = rng.randrange(addr_space)
        size = rng.choice((1, 2, 4, 8))
        stream.append((addr, size, rng.random() < 0.5, kind))
    return stream


class TestGenericAccessEquivalence:
    def test_random_stream_default_params(self):
        rng = random.Random(1)
        replay(CacheParams(), random_stream(rng, 4000, 1 << 20))

    def test_tiny_caches_force_evictions(self):
        rng = random.Random(2)
        params = CacheParams(l1_size=256, l1_assoc=2, l2_size=1024,
                             l2_assoc=2, tag_cache_size=128,
                             tag_cache_assoc=2, tlb_entries=4,
                             tlb_assoc=2)
        replay(params, random_stream(rng, 6000, 1 << 16))

    def test_hot_loop_with_aliasing(self):
        """Repeated small working set: exercises every MRU shortcut."""
        rng = random.Random(3)
        hot = [rng.randrange(1 << 14) for _ in range(16)]
        stream = []
        for _ in range(5000):
            if rng.random() < 0.8:
                addr = rng.choice(hot)
            else:
                addr = rng.randrange(1 << 16)
            stream.append((addr, 4, False, rng.choice(KINDS)))
        replay(CacheParams(l1_size=512, l1_assoc=2, tlb_entries=4,
                           tlb_assoc=2, tag_cache_size=128,
                           tag_cache_assoc=2), stream)

    def test_spanning_accesses_charge_two_blocks(self):
        params = CacheParams()
        classic, fast = replay(params, [(30, 4, False, "data"),
                                        (30, 4, False, "data"),
                                        (62, 8, True, "shadow")])
        assert fast.stats["data"].l1_misses == 2


class TestProbeEquivalence:
    def test_word_probe_matches_access_pair(self):
        rng = random.Random(4)
        params = CacheParams(l1_size=512, l1_assoc=2, tlb_entries=4,
                             tlb_assoc=2, tag_cache_size=128,
                             tag_cache_assoc=2)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        probe = fast.make_word_probe(TAG1_BASE, 5)
        hot = [rng.randrange(1 << 14) & ~3 for _ in range(8)]
        for _ in range(5000):
            addr = (rng.choice(hot) if rng.random() < 0.7
                    else rng.randrange(1 << 16))
            classic.access(addr, 4, False, "data")
            classic.access(TAG1_BASE + (addr >> 5), 1, False, "tag")
            probe(addr)
        assert_same_stats(classic, fast)

    def test_mixed_probes_and_generic_accesses(self):
        """Interleaving must not confuse the composite shortcuts."""
        rng = random.Random(5)
        params = CacheParams(l1_size=512, l1_assoc=2, tlb_entries=4,
                             tlb_assoc=2, tag_cache_size=128,
                             tag_cache_assoc=2)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        wprobe = fast.make_word_probe(TAG1_BASE, 5)
        dprobe = fast.make_data_probe()
        sprobe = fast.make_shadow_probe()
        hot = [rng.randrange(1 << 13) & ~3 for _ in range(6)]
        for _ in range(8000):
            addr = (rng.choice(hot) if rng.random() < 0.7
                    else rng.randrange(1 << 15) & ~3)
            op = rng.randrange(4)
            if op == 0:
                classic.access(addr, 4, False, "data")
                classic.access(TAG1_BASE + (addr >> 5), 1, False,
                               "tag")
                wprobe(addr)
            elif op == 1:
                classic.access(addr, 4, True, "data")
                dprobe(addr)
            elif op == 2:
                classic.access(shadow_base_addr(addr), 8, False,
                               "shadow")
                sprobe(addr & ~3)
            else:
                size = rng.choice((1, 2, 4))
                classic.access(addr, size, False, "data")
                fast.access(addr, size, False, "data")
        assert_same_stats(classic, fast)

    def test_misaligned_word_after_same_block_hit(self):
        """A spanning word repeating the MRU key must not be skipped.

        Regression: the composite shortcut's key granule pins only
        the access's *first* block, so a misaligned word at the tail
        of the same block still has to charge the second block.
        """
        params = CacheParams()
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        probe = fast.make_word_probe(TAG1_BASE, 5)
        for addr in (0x07FFFFC0, 0x07FFFFDE, 0x07FFFFDE):
            classic.access(addr, 4, False, "data")
            classic.access(TAG1_BASE + (addr >> 5), 1, False, "tag")
            probe(addr)
        assert_same_stats(classic, fast)
        assert fast.stats["data"].l1_misses == 2

    def test_probe_parts_inline_fast_path(self):
        """The exported inline charges, run as the block templates
        splice them, match the classic model: composite hits, and a
        misaligned word at the tail of the block its granule pins."""
        params = CacheParams()
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        word = inline_charge(WORD_CHARGE, fast.word_charge(TAG1_BASE, 5))
        data = inline_charge(DATA_CHARGE, fast.data_charge())
        addrs = [4096, 4100, 4104, 8192, 4096, 4096,
                 0x07FFFFC0, 0x07FFFFDE, 0x07FFFFDE]
        for addr in addrs:
            classic.access(addr, 4, False, "data")
            classic.access(TAG1_BASE + (addr >> 5), 1, False, "tag")
            word(addr)
        for addr in addrs:
            classic.access(addr, 4, True, "data")
            data(addr)
        assert_same_stats(classic, fast)
        assert fast.stats["data"].l1_misses == 4


class TestAssociativitySweep:
    """Counter-identity across assoc ∈ {1, 2, 4, 8} × size.

    ``assoc <= 4`` runs the unrolled way scans of the generated
    probes; ``assoc == 8`` runs the non-unrolled bounded-``for``
    scan, so both generated shapes are exercised against the classic
    model.
    """

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("sets", [4, 16])
    def test_generic_stream_identity(self, assoc, sets):
        rng = random.Random(100 * assoc + sets)
        replay(sweep_params(assoc, sets),
               random_stream(rng, 4000, 1 << 16))

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_probe_identity(self, assoc):
        """Word/data/shadow probes and generic accesses interleaved,
        per associativity (tiny sets force eviction traffic)."""
        rng = random.Random(7 + assoc)
        params = sweep_params(assoc, 4)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        wprobe = fast.make_word_probe(TAG1_BASE, 5)
        dprobe = fast.make_data_probe()
        sprobe = fast.make_shadow_probe()
        hot = [rng.randrange(1 << 13) & ~3 for _ in range(6)]
        for _ in range(6000):
            addr = (rng.choice(hot) if rng.random() < 0.6
                    else rng.randrange(1 << 15) & ~3)
            op = rng.randrange(4)
            if op == 0:
                classic.access(addr, 4, False, "data")
                classic.access(TAG1_BASE + (addr >> 5), 1, False,
                               "tag")
                wprobe(addr)
            elif op == 1:
                classic.access(addr, 4, True, "data")
                dprobe(addr)
            elif op == 2:
                classic.access(shadow_base_addr(addr), 8, False,
                               "shadow")
                sprobe(addr & ~3)
            else:
                size = rng.choice((1, 2, 4))
                classic.access(addr, size, False, "data")
                fast.access(addr, size, False, "data")
        assert_same_stats(classic, fast)

    def test_mixed_associativities(self):
        """Every structure with its own associativity (2-way TLBs,
        4-way L1, 8-way tag cache, direct-mapped L2), so a leg that
        walks one structure with another's associativity diverges:
        the probes interleaved with ``access`` of every kind and
        size."""
        rng = random.Random(21)
        params = CacheParams(l1_size=512, l1_assoc=4, l2_size=2048,
                             l2_assoc=1, tag_cache_size=512,
                             tag_cache_assoc=8, tlb_entries=8,
                             tlb_assoc=2)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        wprobe = fast.make_word_probe(TAG1_BASE, 5)
        dprobe = fast.make_data_probe()
        sprobe = fast.make_shadow_probe()
        hot = [rng.randrange(1 << 13) & ~3 for _ in range(6)]
        for _ in range(8000):
            addr = (rng.choice(hot) if rng.random() < 0.6
                    else rng.randrange(1 << 15) & ~3)
            op = rng.randrange(4)
            if op == 0:
                classic.access(addr, 4, False, "data")
                classic.access(TAG1_BASE + (addr >> 5), 1, False,
                               "tag")
                wprobe(addr)
            elif op == 1:
                classic.access(addr, 4, True, "data")
                dprobe(addr)
            elif op == 2:
                classic.access(shadow_base_addr(addr), 8, False,
                               "shadow")
                sprobe(addr)
            else:
                kind = rng.choice(KINDS)
                size = rng.choice((1, 2, 4, 8))
                addr += rng.randrange(4)
                if kind == "tag":
                    addr = TAG1_BASE + (addr >> 3)
                assert (fast.access(addr, size, False, kind)
                        == classic.access(addr, size, False, kind))
        assert_same_stats(classic, fast)


class TestEvictionOrder:
    """The flat way tables must evict exactly the classic LRU victim.

    Recency is encoded positionally (most recent at way 0, evict the
    last way) — the ``OrderedDict`` order of the classic model in
    array clothes.  These tests force conflict sets where the victim
    choice is observable through the miss counters.
    """

    def conflicting(self, params, n):
        """Addresses that all map to L1 set 0."""
        num_sets = params.l1_size // (params.l1_assoc * params.block)
        return [params.block * num_sets * k for k in range(n)]

    def test_lru_victim_after_reordering_hits(self):
        params = sweep_params(4, 4)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        a = self.conflicting(params, 6)
        # fill the set, promote a0 back to the front, then overflow:
        # the victim must be a1 (now the least recent), not a0
        pattern = [a[0], a[1], a[2], a[3], a[0], a[4]]
        # a0 must still hit; a1 must have been evicted
        pattern += [a[0], a[1]]
        for addr in pattern:
            assert (fast.access(addr, 4, False, "data")
                    == classic.access(addr, 4, False, "data")), addr
        assert_same_stats(classic, fast)
        # fill(4 misses) + promote(hit) + overflow(miss)
        # + a0 hit + evicted-a1 miss
        assert fast.stats["data"].l1_misses == 6

    def test_eviction_order_survives_reset_stats(self):
        """reset_stats clears counters but keeps warm contents AND
        their recency order, like the classic model."""
        params = sweep_params(2, 4)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        a = self.conflicting(params, 3)
        for addr in (a[0], a[1], a[0]):  # a1 is now the LRU way
            classic.access(addr, 4, False, "data")
            fast.access(addr, 4, False, "data")
        classic.reset_stats()
        fast.reset_stats()
        # overflow: the pre-reset order must pick a1 as the victim
        for addr in (a[2], a[0], a[1]):
            assert (fast.access(addr, 4, False, "data")
                    == classic.access(addr, 4, False, "data")), addr
        assert_same_stats(classic, fast)
        # a2 misses (evicts a1), a0 still hits, a1 misses again
        assert fast.stats["data"].l1_misses == 2

    def test_long_stream_has_no_recency_overflow(self):
        """Positional recency cannot wrap or overflow.

        The recency-stamp design this layout replaced drew stamps
        from a monotone counter; way order has no counter at all, so
        eviction order stays exact over arbitrarily long streams.
        A long conflict-heavy stream (far more touches than any
        fixed-width stamp would hold at these set counts) must stay
        counter-identical, including across a mid-stream stats
        reset."""
        params = sweep_params(2, 4)
        classic = MemorySystem(params)
        fast = FastMemorySystem(params)
        a = self.conflicting(params, 5)
        rng = random.Random(11)
        for i in range(100_000):
            addr = rng.choice(a)
            assert (fast.access(addr, 4, False, "data")
                    == classic.access(addr, 4, False, "data")), (i, addr)
            if i == 50_000:
                classic.reset_stats()
                fast.reset_stats()
        assert_same_stats(classic, fast)
        assert fast.stats["data"].l1_misses > 0


class TestInterface:
    def test_reset_stats_keeps_contents(self):
        fast = FastMemorySystem(CacheParams())
        fast.access(4096, 4, False, "data")
        fast.access(4096, 4, False, "data")
        fast.reset_stats()
        assert fast.stats["data"].accesses == 0
        # the block is still cached: the next access hits
        stall = fast.access(4096, 4, False, "data")
        assert stall == 0
        assert fast.stats["data"].l1_misses == 0

    def test_reset_stats_repopulates_page_sets_through_probes(self):
        """Regression: the fig-page/composite shortcuts must not
        survive a stats reset, or cleared page sets stay empty."""
        classic = MemorySystem(CacheParams())
        fast = FastMemorySystem(CacheParams())
        dprobe = fast.make_data_probe()
        wprobe = fast.make_word_probe(TAG1_BASE, 5)
        classic.access(4096, 4, False, "data")
        dprobe(4096)
        classic.access(8192, 4, False, "data")
        classic.access(TAG1_BASE + (8192 >> 5), 1, False, "tag")
        wprobe(8192)
        classic.reset_stats()
        fast.reset_stats()
        classic.access(4096, 4, False, "data")
        dprobe(4096)
        classic.access(8192, 4, False, "data")
        classic.access(TAG1_BASE + (8192 >> 5), 1, False, "tag")
        wprobe(8192)
        assert_same_stats(classic, fast)
        assert fast.stats["data"].as_dict()["distinct_pages"] == 2
        assert fast.stats["tag"].as_dict()["distinct_pages"] == 1

    def test_stats_snapshot_is_independent(self):
        fast = FastMemorySystem(CacheParams())
        fast.access(4096, 4, False, "data")
        snap = fast.stats
        fast.access(1 << 20, 4, False, "data")
        assert snap["data"].accesses == 1
        assert fast.stats["data"].accesses == 2

    def test_rejects_bad_geometry(self):
        import pytest
        with pytest.raises(ValueError):
            FastMemorySystem(CacheParams(l1_size=1000))
