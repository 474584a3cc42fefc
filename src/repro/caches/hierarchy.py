"""Memory-system timing: L1D + tag cache + unified L2 + TLBs.

Parameters follow Section 5.1 exactly:

* 32KB 4-way set-associative L1 data cache, 12-cycle miss penalty;
* 4MB 4-way L2, 200-cycle miss penalty;
* 4-way 256-entry TLBs with 4KB pages, 12-cycle miss penalty;
* tag metadata cache: 2KB 4-way for 1-bit tag encodings, 8KB 4-way for
  the 4-bit external encoding, with its own TLB, missing into the L2;
* 32-byte blocks everywhere.

The model is a hit/miss predictor: each access returns the stall
cycles it contributes beyond the core's one-µop-per-cycle baseline.
Base/bound (shadow) metadata shares the L1 data cache and data TLB,
as in Section 4.4 ("the base/bound metadata and program data share
the primary data cache"); tag metadata has a dedicated cache and TLB
that are peers of the L1 (Figure 4).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.caches.cache import Cache
from repro.caches.stats import AccessStats
from repro.layout import PAGE_SIZE


@dataclasses.dataclass
class CacheParams:
    """Sizing and latency knobs of the memory system."""

    l1_size: int = 32 * 1024
    l1_assoc: int = 4
    l2_size: int = 4 * 1024 * 1024
    l2_assoc: int = 4
    block: int = 32
    tag_cache_size: int = 2 * 1024       # 8KB for the extern4 encoding
    tag_cache_assoc: int = 4
    tlb_entries: int = 256
    tlb_assoc: int = 4
    l1_miss_penalty: int = 12
    l2_miss_penalty: int = 200
    tlb_miss_penalty: int = 12


class MemorySystem:
    """Charges stall cycles for each memory access by kind."""

    def __init__(self, params: CacheParams = None):
        self.params = params or CacheParams()
        p = self.params
        self.l1 = Cache("L1D", p.l1_size, p.l1_assoc, p.block)
        self.l2 = Cache("L2", p.l2_size, p.l2_assoc, p.block)
        self.tag_cache = Cache("TagCache", p.tag_cache_size,
                               p.tag_cache_assoc, p.block)
        self.dtlb = Cache("DTLB", p.tlb_entries * PAGE_SIZE,
                          p.tlb_assoc, PAGE_SIZE)
        self.tag_tlb = Cache("TagTLB", p.tlb_entries * PAGE_SIZE,
                             p.tlb_assoc, PAGE_SIZE)
        self.stats = AccessStats()

    def access(self, addr: int, size: int, write: bool, kind: str) -> int:
        """Charge one access of ``size`` bytes at ``addr``.

        Returns the stall cycles incurred and records them (and the
        page touched) under ``kind``.  An access that spans two blocks
        is charged as two block touches (rare: only misaligned data).
        """
        ks = self.stats.kinds[kind]
        ks.accesses += 1
        ks.touch_page(addr)
        stall = 0
        if kind == "tag":
            tlb, l1 = self.tag_tlb, self.tag_cache
        else:
            tlb, l1 = self.dtlb, self.l1
        if not tlb.access(addr):
            ks.tlb_misses += 1
            stall += self.params.tlb_miss_penalty
        last = addr + size - 1
        if last // self.params.block == addr // self.params.block:
            block_addrs = (addr,)
        else:
            block_addrs = (addr, last)
        for baddr in block_addrs:
            if not l1.access(baddr):
                ks.l1_misses += 1
                stall += self.params.l1_miss_penalty
                if not self.l2.access(baddr):
                    ks.l2_misses += 1
                    stall += self.params.l2_miss_penalty
        ks.stall_cycles += stall
        return stall

    def logger(self, tag: Optional[Tuple[int, int]] = None):
        """The block templates' log lines, charged through
        :meth:`access` as they come (:func:`repro.caches.fast.charger`),
        not at a drain: the legacy handlers call :meth:`access`
        directly, and LRU state depends on the order of charges."""
        from repro.caches.fast import charger  # fast imports this module
        return charger(self.access, tag)

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are kept warm)."""
        for cache in (self.l1, self.l2, self.tag_cache, self.dtlb,
                      self.tag_tlb):
            cache.reset_stats()
        self.stats = AccessStats()
