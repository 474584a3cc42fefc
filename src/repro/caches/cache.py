"""Set-associative LRU cache model.

Purely a hit/miss predictor: contents are not stored, only presence.
Used for the L1 data cache, the unified L2, the tag metadata cache and
(with the page size as the "block") the TLBs.
"""

from __future__ import annotations

from collections import OrderedDict


def _ilog2(n: int) -> int:
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError("%d is not a power of two" % n)
    return bits


class _Sets(dict):
    """Set index -> ``OrderedDict`` of resident blocks, oldest first.

    A set springs into existence on its first access, so a cache
    costs nothing to build however many sets it has (the default L2
    has 32,768); an untouched set reads as empty.
    """

    __slots__ = ()

    def __missing__(self, index: int) -> OrderedDict:
        line = self[index] = OrderedDict()
        return line


class Cache:
    """LRU set-associative cache keyed by block address.

    ``size`` is total capacity in bytes, ``assoc`` the number of ways,
    ``block`` the line size in bytes.  All three must be powers of two.
    """

    __slots__ = ("name", "size", "assoc", "block", "num_sets",
                 "_block_shift", "_set_mask", "_sets",
                 "accesses", "misses", "evictions")

    def __init__(self, name: str, size: int, assoc: int, block: int):
        if size % (assoc * block):
            raise ValueError("size must be a multiple of assoc*block")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.block = block
        self.num_sets = size // (assoc * block)
        self._block_shift = _ilog2(block)
        self._set_mask = self.num_sets - 1
        _ilog2(self.num_sets)  # validate power of two
        self._sets = _Sets()
        self.accesses = 0
        self.misses = 0
        self.evictions = 0

    def access(self, addr: int) -> bool:
        """Touch the block containing ``addr``; return True on hit."""
        block_no = addr >> self._block_shift
        line = self._sets[block_no & self._set_mask]
        self.accesses += 1
        if block_no in line:
            line.move_to_end(block_no)
            return True
        self.misses += 1
        if len(line) >= self.assoc:
            line.popitem(last=False)
            self.evictions += 1
        line[block_no] = None
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating presence probe (no stats, no LRU update)."""
        block_no = addr >> self._block_shift
        line = self._sets.get(block_no & self._set_mask)
        return line is not None and block_no in line

    def reset_stats(self) -> None:
        """Zero the counters, keeping contents."""
        self.accesses = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    def miss_rate(self) -> float:
        """Miss ratio over the lifetime of the cache (0 if untouched)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self):
        return ("Cache(%s %dB %d-way %dB/block: %d acc, %.1f%% miss)"
                % (self.name, self.size, self.assoc, self.block,
                   self.accesses, 100.0 * self.miss_rate()))
