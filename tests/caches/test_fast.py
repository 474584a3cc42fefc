"""FastMemorySystem must be counter-identical to MemorySystem.

Random access streams (including tiny caches that force constant
aliasing and eviction, spanning accesses, and the log entries the
block templates append, fed through each model's ``logger``) are
replayed against both models and every statistic is compared, also
against the classic model charged access by access — across an
associativity/size sweep, since the
fast model's generated drain unrolls its way scans for ``assoc <= 4``
and takes a distinct bounded-scan path above that.  The drain's
known-front facts (TLB front sets, hot granules, the composite cell)
get targeted streams where a demotion must drop them.  Whole-workload
equivalence is covered by the engine differential suite.
"""

import random

import pytest

from repro.caches.fast import LOG_SHADOW, LOG_WORD, FastMemorySystem
from repro.caches.hierarchy import CacheParams, MemorySystem
from repro.layout import (TAG1_BASE, TAG1_SHIFT, TAG4_BASE, TAG4_SHIFT,
                          shadow_base_addr)

KINDS = ("data", "shadow", "tag", "soft")
TAG1 = (TAG1_BASE, TAG1_SHIFT)
TAG4 = (TAG4_BASE, TAG4_SHIFT)


def sweep_params(assoc, sets):
    """A legal geometry with every structure at the given shape."""
    return CacheParams(
        l1_size=32 * assoc * sets, l1_assoc=assoc,
        l2_size=32 * assoc * sets * 8, l2_assoc=assoc,
        tag_cache_size=32 * assoc * sets, tag_cache_assoc=assoc,
        tlb_entries=4 * assoc, tlb_assoc=assoc)


def assert_same_stats(classic, fast):
    stats = fast.stats
    assert stats.as_dict() == classic.stats.as_dict()
    assert stats.total_stall_cycles() == \
        classic.stats.total_stall_cycles()


def replay(params, stream):
    """Both models over a generic stream, compared after every
    access (each ``stats`` read drains the fast model's log)."""
    classic = MemorySystem(params)
    fast = FastMemorySystem(params)
    for addr, size, write, kind in stream:
        classic.access(addr, size, write, kind)
        fast.access(addr, size, write, kind)
        assert_same_stats(classic, fast)
    return classic, fast


def log_lines(model, tag):
    """The exported log lines compiled over ``model.logger(tag)``:
    ``(word(ea), shadow(key))``."""
    namespace = {"_lg": model.logger(tag)}
    exec("def word(ea):\n    %s\ndef shadow(key):\n    %s"
         % (LOG_WORD, LOG_SHADOW), namespace)
    return namespace["word"], namespace["shadow"]


class Logged:
    """The fast model and the classic one fed the way the block
    templates feed them, the exported log lines compiled over each
    model's ``logger``, next to a classic model charged access by
    access."""

    def __init__(self, params, tag=TAG1):
        self.classic = MemorySystem(params)
        self.fast = FastMemorySystem(params)
        self.logged = MemorySystem(params)
        self.remap(tag)

    def remap(self, tag):
        """Feed the logged models under another tag mapping."""
        self.tag = tag
        self._lines = [log_lines(model, tag)
                       for model in (self.fast, self.logged)]

    def word(self, addr):
        self.classic.access(addr, 4, False, "data")
        if self.tag is not None:
            base, shift = self.tag
            self.classic.access(base + (addr >> shift), 1, False, "tag")
        for word, _ in self._lines:
            word(addr)

    def shadow(self, addr):
        self.classic.access(shadow_base_addr(addr), 8, False, "shadow")
        for _, shadow in self._lines:
            shadow(addr & ~3)

    def access(self, addr, size, kind):
        for model in (self.classic, self.fast, self.logged):
            model.access(addr, size, False, kind)

    def reset_stats(self):
        for model in (self.classic, self.fast, self.logged):
            model.reset_stats()

    def check(self):
        assert_same_stats(self.classic, self.fast)
        assert self.logged.stats.as_dict() == self.classic.stats.as_dict()


def random_stream(rng, n, addr_space, kinds=KINDS):
    stream = []
    for _ in range(n):
        kind = rng.choice(kinds)
        addr = rng.randrange(addr_space)
        size = rng.choice((1, 2, 4, 8))
        stream.append((addr, size, rng.random() < 0.5, kind))
    return stream


def mixed_ops(model, rng, n, hot_share, checkpoints=False):
    """Words, shadow entries and generic data accesses of every size
    around a small hot set, the mix the block templates produce."""
    hot = [rng.randrange(1 << 13) & ~3 for _ in range(6)]
    for _ in range(n):
        addr = (rng.choice(hot) if rng.random() < hot_share
                else rng.randrange(1 << 15) & ~3)
        op = rng.randrange(4)
        if op == 0:
            model.word(addr)
        elif op == 1:
            model.access(addr, 4, "data")
        elif op == 2:
            model.shadow(addr)
        else:
            model.access(addr, rng.choice((1, 2, 4)), "data")
        if checkpoints and rng.random() < 0.05:
            model.check()
    model.check()


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
        model = Logged(params)
        hot = [rng.randrange(1 << 14) & ~3 for _ in range(8)]
        for _ in range(5000):
            model.word(rng.choice(hot) if rng.random() < 0.7
                       else rng.randrange(1 << 16))
        model.check()

    def test_mixed_probes_and_generic_accesses(self):
        """Interleaving must not confuse the known-front facts."""
        params = CacheParams(l1_size=512, l1_assoc=2, tlb_entries=4,
                             tlb_assoc=2, tag_cache_size=128,
                             tag_cache_assoc=2)
        mixed_ops(Logged(params), random.Random(5), 8000, 0.7,
                  checkpoints=True)

    def test_misaligned_word_after_same_block_hit(self):
        """A spanning word repeating the composite key must not be
        skipped: the key granule pins only the access's *first*
        block, so a misaligned word at the tail of the same block
        still has to charge the second block."""
        model = Logged(CacheParams())
        for addr in (0x07FFFFC0, 0x07FFFFDE, 0x07FFFFDE):
            model.word(addr)
            model.check()
        assert model.fast.stats["data"].l1_misses == 2

    def test_probe_parts_inline_fast_path(self):
        """The exported log lines, run as the block templates splice
        them, match the classic model: repeats, hot granules, and a
        misaligned word at the tail of the block its granule pins;
        a plain run's words charge no tag byte."""
        addrs = [4096, 4100, 4104, 8192, 4096, 4096,
                 0x07FFFFC0, 0x07FFFFDE, 0x07FFFFDE]
        for tag in (TAG1, None):
            model = Logged(CacheParams(), tag)
            for addr in addrs:
                model.word(addr)
            model.shadow(4096)
            model.check()
            assert model.fast.stats["data"].l1_misses == 4
            assert model.fast.stats["tag"].accesses == \
                (0 if tag is None else len(addrs))


class TestAssociativitySweep:
    """Counter-identity across assoc ∈ {1, 2, 4, 8} × size.

    ``assoc <= 4`` runs the unrolled way scans of the generated
    drain; ``assoc == 8`` runs the non-unrolled bounded-``for`` scan,
    so both generated shapes are exercised against the classic model.
    """

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    @pytest.mark.parametrize("sets", [4, 16])
    def test_generic_stream_identity(self, assoc, sets):
        rng = random.Random(100 * assoc + sets)
        replay(sweep_params(assoc, sets),
               random_stream(rng, 4000, 1 << 16))

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_probe_identity(self, assoc):
        """Words, shadow entries and generic accesses interleaved,
        per associativity (tiny sets force eviction traffic)."""
        mixed_ops(Logged(sweep_params(assoc, 4)),
                  random.Random(7 + assoc), 6000, 0.6, checkpoints=True)

    def test_mixed_associativities(self):
        """Every structure with its own associativity (2-way TLBs,
        4-way L1, 8-way tag cache, direct-mapped L2), so a leg that
        walks one structure with another's associativity diverges:
        log entries interleaved with ``access`` of every kind and
        size."""
        rng = random.Random(21)
        params = CacheParams(l1_size=512, l1_assoc=4, l2_size=2048,
                             l2_assoc=1, tag_cache_size=512,
                             tag_cache_assoc=8, tlb_entries=8,
                             tlb_assoc=2)
        model = Logged(params)
        hot = [rng.randrange(1 << 13) & ~3 for _ in range(6)]
        for _ in range(8000):
            addr = (rng.choice(hot) if rng.random() < 0.6
                    else rng.randrange(1 << 15) & ~3)
            op = rng.randrange(3)
            if op == 0:
                model.word(addr)
            elif op == 1:
                model.shadow(addr)
            else:
                kind = rng.choice(KINDS)
                size = rng.choice((1, 2, 4, 8))
                addr += rng.randrange(4)
                if kind == "tag":
                    addr = TAG1_BASE + (addr >> 3)
                model.access(addr, size, kind)
                model.check()
        model.check()


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
        a = self.conflicting(params, 6)
        # fill the set, promote a0 back to the front, then overflow:
        # the victim must be a1 (now the least recent), not a0
        pattern = [a[0], a[1], a[2], a[3], a[0], a[4]]
        # a0 must still hit; a1 must have been evicted
        pattern += [a[0], a[1]]
        classic, fast = replay(params, [(addr, 4, False, "data")
                                        for addr in pattern])
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
            classic.access(addr, 4, False, "data")
            fast.access(addr, 4, False, "data")
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
            classic.access(addr, 4, False, "data")
            fast.access(addr, 4, False, "data")
            assert_same_stats(classic, fast)
            if i == 50_000:
                classic.reset_stats()
                fast.reset_stats()
        assert fast.stats["data"].l1_misses > 0


#: one L1 set and one tag-cache set, direct-mapped: any other block
#: evicts a word's data or tag block
ONE_SET = CacheParams(l1_size=32, l1_assoc=1, tag_cache_size=32,
                      tag_cache_assoc=1)


class TestKnownFront:
    """Every demotion drops the facts that name the demoted key.

    Each stream makes a word's granule hot, demotes its data or tag
    block through another kind, and repeats the word: the repeat
    must take the full walk and miss, as the classic model does."""

    @pytest.mark.parametrize("tag", [TAG1, TAG4], ids=["tag1", "tag4"])
    def test_shadow_demotes_hot_granule(self, tag):
        model = Logged(ONE_SET, tag)
        model.word(0x10000)
        model.word(0x10004)      # hot, or the composite repeat
        model.shadow(0x20000)    # evicts the word's L1 block
        model.word(0x10000)
        model.check()
        assert model.fast.stats["data"].l1_misses == 2
        assert model.fast.exits["full_walks"] == 2

    @pytest.mark.parametrize("tag", [TAG1, TAG4], ids=["tag1", "tag4"])
    def test_generic_data_demotes_hot_granule(self, tag):
        model = Logged(ONE_SET, tag)
        model.word(0x10000)
        model.word(0x10008)
        model.access(0x30000, 2, "data")
        model.word(0x10008)
        model.check()
        assert model.fast.stats["data"].l1_misses == 3

    @pytest.mark.parametrize("tag", [TAG1, TAG4], ids=["tag1", "tag4"])
    def test_generic_tag_demotes_tag_block(self, tag):
        """A demoted tag block takes out every hot granule whose tag
        byte lies in it, including granules of other data blocks."""
        base, shift = tag
        span = 32 << shift        # data bytes one tag block covers
        model = Logged(ONE_SET, tag)
        model.word(0x10000)
        model.word(0x10000 + span - 4)   # same tag block, other block
        model.word(0x10000)              # L1 miss, hot tag block
        model.access(base + (0x90000 >> shift), 1, "tag")
        model.word(0x10000)
        model.check()
        assert model.fast.stats["tag"].l1_misses == 3
        model.word(0x10000 + span - 4)
        model.check()

    def test_l1_demotion_drops_every_granule_of_the_block(self):
        """With the 4-bit mapping a block holds four granules; all of
        them must leave the hot set together."""
        model = Logged(ONE_SET, TAG4)
        for addr in (0x10000, 0x10008, 0x10010, 0x10018):
            model.word(addr)
        model.shadow(0x20000)
        for addr in (0x10018, 0x10010):
            model.word(addr)
        model.check()
        assert model.fast.stats["data"].l1_misses == 2

    def test_tlb_demotion_leaves_the_front_set(self):
        """A direct-mapped one-entry TLB: the shadow page evicts the
        word's page, so the hot word's TLB check must miss."""
        params = CacheParams(tlb_entries=1, tlb_assoc=1)
        model = Logged(params)
        model.word(0x10000)
        model.word(0x10004)
        model.shadow(0x10000)
        model.word(0x10004)
        model.check()
        assert model.fast.stats["data"].tlb_misses == 2

    def test_new_tag_mapping_forgets_hot_granules(self):
        """A granule's tag facts belong to the mapping that made it
        hot: under another mapping the same word has another tag
        byte."""
        model = Logged(ONE_SET, TAG1)
        model.word(0x10000)
        model.word(0x10000)
        model.remap(TAG4)
        model.word(0x10000)
        model.check()

    def test_spanning_and_misaligned_words(self):
        """Misaligned words take the full walk and never become hot
        or repeatable: the same granule and low bits at another
        offset may span into the next block."""
        model = Logged(sweep_params(1, 4))
        for addr in (0x10001, 0x1001D, 0x10001, 0x1001D, 0x1001E,
                     0x10020, 0x1003F, 0x10000, 0x10002, 0x10004):
            model.word(addr)
            model.check()
        # only the last word, aligned in a granule an aligned word
        # walked, skips the walk
        exits = model.fast.exits
        assert exits["full_walks"] == 9
        assert exits["word_charges"] == 10

    @pytest.mark.parametrize("tag", [TAG1, TAG4, None],
                             ids=["tag1", "tag4", "plain"])
    @pytest.mark.parametrize("assoc", [1, 2, 8])
    def test_state_carries_across_drains(self, tag, assoc):
        """Drains at arbitrary points see one stream: the facts, MRU
        cells and counters a drain leaves behind are the next one's
        start."""
        rng = random.Random(assoc * 31 + (tag or (0, 0))[1])
        model = Logged(sweep_params(assoc, 4), tag)
        hot = [rng.randrange(1 << 13) for _ in range(8)]
        for _ in range(3000):
            addr = (rng.choice(hot) if rng.random() < 0.7
                    else rng.randrange(1 << 15))
            op = rng.randrange(4)
            if op < 2:
                model.word(addr & ~3 if op else addr)
            elif op == 2 and tag is not None:
                model.shadow(addr)
            else:
                model.access(addr, rng.choice((1, 4, 8)),
                             rng.choice(KINDS))
            if rng.random() < 0.02:
                model.fast.drain()
        model.check()

    def test_reset_stats_with_warm_caches_repopulates_page_sets(self):
        """Hot granules claim their figure pages are recorded; after
        a reset clears the page sets, the same words must record them
        again."""
        model = Logged(CacheParams())
        # two hot granules in other L1 and tag-cache sets, on other
        # figure pages
        for addr in (0x10000, 0x10400, 0x10000):
            model.word(addr)
        model.check()
        model.reset_stats()
        for addr in (0x10400, 0x10000):
            model.word(addr)
        model.check()
        # the reset forgot both granules, so both walk again
        assert model.fast.exits["full_walks"] == 2
        assert model.fast.stats["data"].as_dict()["distinct_pages"] == 2
        assert model.fast.stats["tag"].as_dict()["distinct_pages"] == 1

    def test_exit_ledger(self):
        """Word entries come from entry counts; only the slow paths
        count, and demotions are the deeper hits plus the misses."""
        model = Logged(CacheParams())
        # 0x10400 shares both pages with 0x10000, in other sets of the
        # L1 and the tag cache
        for addr in (0x10000, 0x10000, 0x10004, 0x10400, 0x10008):
            model.word(addr)
        model.shadow(0x10000)
        exits = model.fast.exits
        stats = model.fast.stats
        misses = sum(k.tlb_misses + k.l1_misses + k.l2_misses
                     for k in stats.kinds.values())
        assert exits["word_charges"] == 5
        assert exits["full_walks"] == 2      # 0x10000 and 0x10400
        assert exits["demotions"] == misses  # every set was empty
        assert exits["tlb_walks"] == 3       # data, tag, shadow page
        model.fast.reset_stats()
        assert model.fast.exits == dict.fromkeys(exits, 0)


class TestInterface:
    def test_reset_stats_keeps_contents(self):
        fast = FastMemorySystem(CacheParams())
        fast.access(4096, 4, False, "data")
        fast.access(4096, 4, False, "data")
        fast.reset_stats()
        assert fast.stats["data"].accesses == 0
        # the block is still cached: the next access hits
        fast.access(4096, 4, False, "data")
        assert fast.stats["data"].stall_cycles == 0
        assert fast.stats["data"].l1_misses == 0

    def test_reset_stats_repopulates_page_sets_through_probes(self):
        """Regression: the fig-page and known-front shortcuts must not
        survive a stats reset, or cleared page sets stay empty."""
        model = Logged(CacheParams())
        for _ in range(2):
            model.access(4096, 4, "data")
            model.word(8192)
            model.reset_stats()
        model.access(4096, 4, "data")
        model.word(8192)
        model.check()
        assert model.fast.stats["data"].as_dict()["distinct_pages"] == 2
        assert model.fast.stats["tag"].as_dict()["distinct_pages"] == 1

    def test_stats_snapshot_is_independent(self):
        fast = FastMemorySystem(CacheParams())
        fast.access(4096, 4, False, "data")
        snap = fast.stats
        fast.access(1 << 20, 4, False, "data")
        assert snap["data"].accesses == 1
        assert fast.stats["data"].accesses == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            FastMemorySystem(CacheParams(l1_size=1000))

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            FastMemorySystem(CacheParams()).access(0, 4, False, "bogus")
