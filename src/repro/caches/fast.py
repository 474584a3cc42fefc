"""Fast memory-system timing model for the block-fusion engine.

:class:`~repro.caches.hierarchy.MemorySystem` spends most of every
access in Python plumbing: a dict lookup into the per-kind stats, a
``touch_page`` method call, and two or three nested
:meth:`~repro.caches.cache.Cache.access` calls, each with its own
attribute loads and ``OrderedDict`` bookkeeping.  With timing enabled
that call chain would dominate the whole simulation.

:class:`FastMemorySystem` charges the *same* model in two steps:

* **The log.**  A charge is one list append of one int.  The word
  templates end with :data:`LOG_WORD` and the HardBound metadata path
  logs its shadow access with :data:`LOG_SHADOW`; every other caller
  goes through ``access(addr, size, write, kind)``.  The three kinds
  of entry are told apart by value: a *word* entry is the address of
  a word the segment check passed (below ``STACK_TOP``, so below
  ``SHADOW_SPACE_BASE``) and charges a 4-byte data access plus, in a
  HardBound run, its tag byte; a *shadow* entry is the 8-byte shadow
  address itself (between ``SHADOW_SPACE_BASE`` and 2**32); a
  *generic* entry, at or above 2**32, encodes address, size and kind.
  :func:`charger` charges word and shadow entries at once through an
  ``access`` instead (the classic model's ``logger``).
* **The drain.**  :attr:`FastMemorySystem.drain` replays the log in
  one generated loop, compiled once per process for each cache
  geometry and tag mapping, with every counter and MRU cell in a
  local; access counts come from entry counts.  ``stats``,
  ``reset_stats`` and ``exits`` drain first, and the block run loop
  drains every ``DRAIN_EVERY`` instructions and on every exit.

Each LRU structure is one flat ``keys`` way table indexed by
``set_index * assoc + way``, with the ways of every set kept in
**recency order** (most recently used at way 0) — the exact order the
``OrderedDict`` sets of :class:`~repro.caches.cache.Cache` maintain
via ``move_to_end``, so the hit/miss streams and eviction victims are
identical *by construction*.  A front-way hit changes nothing; a
deeper hit shifts the younger ways back one slot and reinstalls the
key at the front, and a miss victimizes the last way (the least
recently used) with the same shift.  Empty ways hold ``-1`` (no real
key is negative) and drift to the back, so they fill before any
resident block is evicted.  Way scans are unrolled for
``assoc <= 4``; larger associativities take a bounded ``for`` scan.
The TLB, L1 and tag-cache tables are lists; the L2 table, touched
only on L1 misses and 131,072 slots at the default 4 MB, is an
``array("q")``, which the cyclic garbage collector does not walk.

**Known-front facts.**  Since a front-way hit changes no state, the
drain skips every access the cache state already proves is one.  It
keeps these facts, each exact:

* each TLB's *front set*: the keys at way 0 of their sets, so a
  front-way TLB hit is one membership test;
* the *hot set* of word granules (``ea >> min(tag_shift,
  block_shift)``, held as the granule's base address): a granule is
  hot only while its data block is at the front of its L1 set, its
  tag block at the front of its tag-cache set and both its figure
  pages are recorded.  An aligned word in a hot granule costs only
  its two TLB front checks; misaligned words take the full walk and
  never enter the set;
* the composite cell: the previous entry's granule when that entry
  was an aligned word, so a repeat costs nothing at all;
* per structure, the block the last walk of it moved to the front
  (the MRU cell), and per kind the last figure page added.

Only a move to the front changes state, and every move (a deeper hit
or a miss) *demotes* the old front key, which drops every fact that
names it: the key leaves its TLB's front set; a demoted L1 block's
granules leave the hot set; a demoted tag block takes out the
granules whose tag byte lies in it; and the composite cell clears.
An MRU cell always names the block its structure's last walk moved
to the front, so a demotion, being such a walk, replaces it.
``reset_stats`` clears the page sets, so it also clears the hot set,
the composite cell and the figure-page cells.

The drain counts its slow paths in :attr:`FastMemorySystem.exits`:
word entries (from entry counts), full walks, TLB walks and
demotions; a word's fast exits are word entries minus full walks.

Counters are **bit-identical** to :class:`MemorySystem`: the same
accesses, TLB/L1/L2 misses, stall cycles and distinct pages per kind
for any access stream (``tests/caches/test_fast.py`` replays both
models on random streams across an associativity/size sweep, drained
at arbitrary points; the engine differential suite runs them on
whole workloads).
"""

from __future__ import annotations

import dataclasses
from array import array
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.caches.cache import _ilog2
from repro.caches.hierarchy import CacheParams
from repro.caches.stats import AccessStats, FIG_PAGE_SHIFT, KINDS
from repro.layout import PAGE_SIZE, SHADOW_SPACE_BASE

#: the line a word template ends with: log the word at ``ea``
LOG_WORD = "_lg(ea)"
#: the line the metadata path logs its shadow access with (``key`` is
#: the word-aligned data address; see
#: :func:`~repro.layout.shadow_base_addr`)
LOG_SHADOW = "_lg(%d + key * 2)" % SHADOW_SPACE_BASE

#: generic entries start here: ``_GEN + ((addr << 32 | size - 1) << 2
#: | kind code)``
_GEN = 1 << 32
#: generic kind codes, most traffic first
_CODES = {"data": 0, "tag": 1, "shadow": 2, "soft": 3}

#: the counters of one kind, in list order
_COUNTERS = ("ac", "tm", "1m", "2m", "st")
#: the drain's per-run cells, in list order: the composite cell, the
#: L1 and tag-cache MRU cells, and each kind's figure-page cell
_CELLS = ("wm", "dcr", "tcr", "dfg", "tfg", "sfg", "ffg")


def _prefix(kind: str) -> str:
    """A kind's local-name prefix ("soft" is the fat-pointer
    baseline's table)."""
    return "f" if kind == "soft" else kind[0]


# -- generated source --------------------------------------------------------

def _shift_lines(keys: str, wb: str, upto, old: str,
                 pad: str = "") -> List[str]:
    """Shift ways ``[wb, upto)`` back one slot (recency demotion).

    ``upto`` is an int offset for the unrolled emitters or a variable
    name for the scan path; single-slot shifts skip the slice and
    store ``old``, the front key already read.
    """
    if upto == 1:
        return [pad + "%s[%s + 1] = %s" % (keys, wb, old)]
    if isinstance(upto, int):
        return [pad + "%s[%s + 1:%s + %d] = %s[%s:%s + %d]"
                % (keys, wb, wb, upto + 1, keys, wb, wb, upto)]
    return [pad + "%s[%s + 1:%s + 1] = %s[%s:%s]"
            % (keys, wb, upto, keys, wb, upto)]


def _touch_lines(keys: str, key: str, mask: int, assoc: int,
                 miss: List[str], moved: List[str],
                 tmp: str = "") -> List[str]:
    """One set-associative structure touch over the flat way table.

    A front-way hit changes nothing.  A deeper hit shifts the younger
    ways back one slot and reinstalls the key at the front
    (``OrderedDict.move_to_end`` in array clothes); a miss runs
    ``miss`` (the caller's counter/penalty lines) and installs the
    key the same way, evicting the last way.  Both then run ``moved``
    with the demoted front key in ``o`` (``-1`` when the way was
    empty).  Way scans are unrolled for ``assoc <= 4``, a bounded
    ``for`` scan otherwise.  ``tmp`` suffixes the scratch names so
    touches can nest (the L2 touch runs inside the L1/tag miss path).
    """
    wb, ww, old = "wb" + tmp, "ww" + tmp, "o" + tmp
    if assoc == 1:
        lines = ["%s = %s & %d" % (wb, key, mask)]
        body = list(miss)
    elif assoc <= 4:
        lines = ["%s = (%s & %d) * %d" % (wb, key, mask, assoc)]
        body = []
        for w in range(1, assoc):
            body.append("%s %s[%s + %d] == %s:"
                        % ("if" if w == 1 else "elif", keys, wb, w, key))
            body += _shift_lines(keys, wb, w, old, "    ")
        body.append("else:")
        body += _pad("    ", miss)
        body += _shift_lines(keys, wb, assoc - 1, old, "    ")
    else:
        lines = ["%s = (%s & %d) * %d" % (wb, key, mask, assoc)]
        body = ["for %s in range(%s + 1, %s + %d):" % (ww, wb, wb, assoc),
                "    if %s[%s] == %s:" % (keys, ww, key),
                "        break",
                "else:"]
        body += _pad("    ", miss)
        body.append("    %s = %s + %d" % (ww, wb, assoc - 1))
        body += _shift_lines(keys, wb, ww, old)
    body.append("%s[%s] = %s" % (keys, wb, key))
    lines += ["%s = %s[%s]" % (old, keys, wb), "if %s != %s:" % (old, key)]
    return lines + _pad("    ", body + moved)


def _pad(pad: str, lines) -> List[str]:
    return [pad + line for line in lines]


class _Geometry:
    """The numbers one drain is generated for: cache shapes,
    penalties, shifts and the word entries' tag mapping."""

    def __init__(self, p: CacheParams, tag: Optional[Tuple[int, int]]):
        self.p = p
        self.tag = tag
        self.bs = _ilog2(p.block)
        self.ps = _ilog2(PAGE_SIZE)
        self.tlb_mask = p.tlb_entries // p.tlb_assoc - 1
        self.l1_mask = p.l1_size // (p.l1_assoc * p.block) - 1
        self.tc_mask = p.tag_cache_size // (p.tag_cache_assoc
                                            * p.block) - 1
        self.l2_mask = p.l2_size // (p.l2_assoc * p.block) - 1
        # a word's granule pins its data block and, with a tag
        # mapping, its tag byte; the hot set and the composite cell
        # also need the granule to hold an aligned word and to pin
        # the figure and TLB pages
        self.gs = self.bs if tag is None else min(tag[1], self.bs)
        self.hot = 2 <= self.gs <= min(FIG_PAGE_SHIFT, self.ps)

    def side(self, kind: str):
        """``(TLB keys, front set, cache keys, cache mask, cache
        assoc, MRU cell)`` names and numbers of a kind's structures:
        data, shadow and soft share the data TLB and L1 (Section
        4.4); tag has its own TLB and cache."""
        if kind == "tag":
            return ("_ttk", "_ttf", "_tck", self.tc_mask,
                    self.p.tag_cache_assoc, "tcr")
        return ("_dtk", "_dtf", "_l1k", self.l1_mask, self.p.l1_assoc,
                "dcr")

    def tlb_lines(self, kind: str, page: str) -> List[str]:
        """The TLB touch of ``page`` for a kind, skipped when the
        front set holds it."""
        keys, front = self.side(kind)[:2]
        pre = _prefix(kind)
        return ["if %s not in %s:" % (page, front), "    tw += 1"] + _pad(
            "    ", _touch_lines(
                keys, page, self.tlb_mask, self.p.tlb_assoc,
                ["%s_tm += 1" % pre,
                 "%s_st += %d" % (pre, self.p.tlb_miss_penalty)],
                ["dem += 1", "wm = -1", "%s.discard(o)" % front,
                 "%s.add(%s)" % (front, page)]))

    def hot_drop(self, kind: str) -> List[str]:
        """Drop the hot granules a demoted cache block ``o`` names."""
        if not self.hot:
            return []
        step = 1 << self.gs
        if kind != "tag":
            if self.gs == self.bs:
                return ["_hot.discard(o << %d)" % self.bs]
            return ["_hot.difference_update(range(o << %d, (o + 1) << %d,"
                    " %d))" % (self.bs, self.bs, step)]
        if self.tag is None:
            return []
        base, shift = self.tag
        # the data granules whose tag byte lies in tag block o
        return ["lo = (o << %d) - %d" % (self.bs + shift, base << shift),
                "_hot.difference_update(range(lo, lo + %d, %d))"
                % (1 << (self.bs + shift), step)]

    def leg_lines(self, kind: str, addr: str, span) -> List[str]:
        """One leg: charge ``span + 1`` bytes at ``addr`` to a kind —
        its figure page, the TLB, the L1 (or the tag cache) with the
        L2 on a miss, and the last block too when the access spans
        two.  ``span`` is an int or a variable; the caller counts the
        access."""
        p = self.p
        pre = _prefix(kind)
        _, _, keys, mask, assoc, mru = self.side(kind)
        fg = pre + "fg"
        l2 = _touch_lines("_l2k", "bn", self.l2_mask, p.l2_assoc,
                          ["%s_2m += 1" % pre,
                           "%s_st += %d" % (pre, p.l2_miss_penalty)],
                          ["dem += 1"], tmp="2")
        touch = _touch_lines(
            keys, "bn", mask, assoc,
            ["%s_1m += 1" % pre,
             "%s_st += %d" % (pre, p.l1_miss_penalty)] + l2,
            ["dem += 1", "wm = -1"] + self.hot_drop(kind))
        lines = ["fp = %s >> %d" % (addr, FIG_PAGE_SHIFT),
                 "if fp != %s:" % fg,
                 "    _%spg(fp)" % pre,
                 "    %s = fp" % fg,
                 "pn = %s >> %d" % (addr, self.ps)]
        lines += self.tlb_lines(kind, "pn")
        lines.append("bn = %s >> %d" % (addr, self.bs))
        if span == 0:
            return lines + ["if bn != %s:" % mru] + _pad(
                "    ", touch + ["%s = bn" % mru])
        # at most two iterations: a spanning access touches its first
        # and last block
        return lines + [
            "lb = (%s + %s) >> %d" % (addr, span, self.bs),
            "if bn != lb or bn != %s:" % mru,
            "    while True:",
        ] + _pad("        ", touch) + [
            "        %s = bn" % mru,
            "        if bn == lb:",
            "            break",
            "        bn = lb",
        ]

    def word_lines(self) -> List[str]:
        """A word entry ``e``: the composite repeat, else the hot
        granule's TLB checks, else the full walk (a 4-byte data leg,
        then the tag byte, which never spans)."""
        fast: List[str] = []
        if self.hot:
            fast = ["k = e & %d" % (-(1 << self.gs) | 3),
                    "if k == wm:",
                    "    continue",
                    "if k in _hot:",
                    "    pn = e >> %d" % self.ps]
            fast += _pad("    ", self.tlb_lines("data", "pn"))
            if self.tag is not None:
                base, shift = self.tag
                fast.append("    pn = (%d + (e >> %d)) >> %d"
                            % (base, shift, self.ps))
                fast += _pad("    ", self.tlb_lines("tag", "pn"))
            fast += ["    wm = k", "    continue"]
        walk = ["fw += 1"] + self.leg_lines("data", "e", 3)
        if self.tag is not None:
            base, shift = self.tag
            walk += ["ta = %d + (e >> %d)" % (base, shift)]
            walk += self.leg_lines("tag", "ta", 0)
        if self.hot:
            walk += ["if e & 3:",
                     "    wm = -1",
                     "else:",
                     "    wm = k",
                     "    _hot.add(k)"]
        return fast + walk

    def generic_lines(self) -> List[str]:
        """A generic entry ``e``: decode it, then one leg per kind."""
        lines = ["ng += 1",
                 "x = e - %d" % _GEN,
                 "a = x >> 34",
                 "sp = (x >> 2) & %d" % 0xFFFFFFFF,
                 "c = x & 3"]
        # _CODES lists the kinds in code order
        heads = ("if c == 0:", "elif c == 1:", "elif c == 2:", "else:")
        for kind, head in zip(_CODES, heads):
            lines.append(head)
            lines += _pad("    ", ["%s_ac += 1" % _prefix(kind)]
                          + self.leg_lines(kind, "a", "sp"))
        return lines

    def drain_lines(self) -> List[str]:
        """The drain's body: load the counters and cells, replay the
        log, store them back and clear the log."""
        counters = {kind: ["%s_%s" % (_prefix(kind), c) for c in _COUNTERS]
                    for kind in KINDS}
        lines = ["if not _log:", "    return"]
        for kind in KINDS:
            lines.append("%s = _%sct" % (", ".join(counters[kind]),
                                         _prefix(kind)))
        lines += ["%s = _cells" % ", ".join(_CELLS),
                  "fw = tw = dem = ns = ng = 0",
                  "for e in _log:",
                  "    if e < %d:" % SHADOW_SPACE_BASE]
        lines += _pad("        ", self.word_lines())
        lines.append("    elif e < %d:" % _GEN)
        lines += _pad("        ", ["ns += 1"]
                      + self.leg_lines("shadow", "e", 7))
        lines.append("    else:")
        lines += _pad("        ", self.generic_lines())
        # every entry that is neither shadow nor generic is a word
        lines += ["nw = len(_log) - ns - ng",
                  "d_ac += nw",
                  "s_ac += ns"]
        if self.tag is not None:
            lines.append("t_ac += nw")
        for kind in KINDS:
            lines.append("_%sct[:] = %s" % (_prefix(kind),
                                           ", ".join(counters[kind])))
        return lines + [
            "_cells[:] = %s" % ", ".join(_CELLS),
            "_ex[0] += nw",
            "_ex[1] += fw",
            "_ex[2] += tw",
            "_ex[3] += dem",
            "_log.clear()",
        ]


#: pseudo-filename of the generated source (shows in tracebacks)
_FAST_FILENAME = "<repro-fast-drain>"

#: the objects a drain reads, bound by name
_BOUND = ("_log", "_cells", "_ex", "_hot", "_dtk", "_dtf", "_ttk",
          "_ttf", "_l1k", "_tck", "_l2k") + tuple(
    "_%s%s" % (_prefix(kind), suffix) for kind in KINDS
    for suffix in ("ct", "pg"))


@lru_cache(maxsize=None)
def _drain_factory(params: tuple, tag: Optional[Tuple[int, int]]):
    """Compile the drain for one geometry (``params``, the
    :class:`CacheParams` fields) and tag mapping, once per process.

    Returns ``make(*objects)``, which builds a drain over the
    ``_BOUND`` objects of one model as closure cells.
    """
    body = _Geometry(CacheParams(*params), tag).drain_lines()
    src = (["def _make(%s):" % ", ".join(_BOUND),
            "    def drain():"]
           + _pad("        ", body) + ["    return drain"])
    namespace: dict = {}
    exec(compile("\n".join(src), _FAST_FILENAME, "exec"), namespace)
    return namespace["_make"]


def _make_ways(size: int, assoc: int, block: int, empty=None):
    """Flat way table for one structure (``num_sets * assoc`` slots,
    every way empty): ``empty``, one empty way, repeated; a list by
    default, an ``array`` for a table the collector need not walk."""
    if size % (assoc * block):
        raise ValueError("size must be a multiple of assoc*block")
    num_sets = size // (assoc * block)
    _ilog2(num_sets)  # validate power of two
    return (empty or [-1]) * (num_sets * assoc)


def charger(access, tag: Optional[Tuple[int, int]] = None):
    """``charge(entry)``: a word or shadow log entry charged at once
    through ``access``, as the drain charges it under ``tag`` (the
    4-byte word, then its tag byte; the 8-byte shadow access)."""
    def charge(entry: int) -> None:
        if entry < SHADOW_SPACE_BASE:
            access(entry, 4, False, "data")
            if tag is not None:
                access(tag[0] + (entry >> tag[1]), 1, False, "tag")
        else:
            access(entry, 8, False, "shadow")
    return charge


def _make_access(append):
    """``access(addr, size, write, kind)``: log a generic entry (an
    unknown kind raises ``KeyError``)."""
    def access(addr: int, size: int, write: bool, kind: str) -> None:
        append(_GEN + ((addr << 32 | size - 1) << 2 | _CODES[kind]))
    return access


class FastMemorySystem:
    """Drop-in fast replacement for :class:`MemorySystem`.

    Same constructor and statistics; ``access(addr, size, write,
    kind)`` logs the access and returns nothing (an unknown kind
    raises ``KeyError``).  The model — like :class:`MemorySystem` —
    is write-agnostic: the ``write`` flag is accepted for interface
    parity and ignored.  Used by the ``blocks`` execution engine,
    whose word templates append to the log that :meth:`logger`
    returns.
    """

    def __init__(self, params: CacheParams = None):
        self.params = params or CacheParams()
        p = self.params
        tlb_size = p.tlb_entries * PAGE_SIZE
        self._log: List[int] = []
        #: kind -> (counters, distinct figure pages)
        self._kinds: Dict[str, tuple] = {
            kind: ([0] * len(_COUNTERS), set()) for kind in KINDS}
        self._objects = {
            "_log": self._log, "_cells": [-1] * len(_CELLS),
            "_ex": [0, 0, 0, 0], "_hot": set(),
            "_dtk": _make_ways(tlb_size, p.tlb_assoc, PAGE_SIZE),
            "_ttk": _make_ways(tlb_size, p.tlb_assoc, PAGE_SIZE),
            "_dtf": set(), "_ttf": set(),
            "_l1k": _make_ways(p.l1_size, p.l1_assoc, p.block),
            "_tck": _make_ways(p.tag_cache_size, p.tag_cache_assoc,
                               p.block),
            "_l2k": _make_ways(p.l2_size, p.l2_assoc, p.block,
                               array("q", [-1])),
        }
        for kind, (ctr, pages) in self._kinds.items():
            self._objects["_%sct" % _prefix(kind)] = ctr
            self._objects["_%spg" % _prefix(kind)] = pages.add
        self.access = _make_access(self._log.append)
        self._tag: Optional[Tuple[int, int]] = None
        #: replay and empty the log
        self.drain = self._make_drain(None)

    def _make_drain(self, tag):
        make = _drain_factory(dataclasses.astuple(self.params), tag)
        return make(*[self._objects[name] for name in _BOUND])

    def logger(self, tag: Optional[Tuple[int, int]] = None):
        """The log's ``append``, with word entries charging a 4-byte
        data access plus, given ``tag = (tag_base, tag_shift)``, the
        tag byte at ``tag_base + (ea >> tag_shift)`` — the exact
        sequence every HardBound word load/store performs.

        A new mapping drains the log first and forgets the hot set,
        whose granules and tag facts belong to the old one.
        """
        if tag != self._tag:
            self.drain()
            self._objects["_hot"].clear()
            self._objects["_cells"][0] = -1
            self._tag = tag
            self.drain = self._make_drain(tag)
        return self._log.append

    # -- statistics --------------------------------------------------------

    @property
    def stats(self) -> AccessStats:
        """Drain, then materialize the counters as an ``AccessStats``."""
        self.drain()
        out = AccessStats()
        for kind, (ctr, pages) in self._kinds.items():
            ks = out.kinds[kind]
            (ks.accesses, ks.tlb_misses, ks.l1_misses, ks.l2_misses,
             ks.stall_cycles) = ctr
            ks.pages = set(pages)
        return out

    @property
    def exits(self) -> Dict[str, int]:
        """The drain's exit ledger: word entries, full walks, TLB
        walks and demotions (deeper hits plus misses, over every
        structure)."""
        self.drain()
        return dict(zip(("word_charges", "full_walks", "tlb_walks",
                         "demotions"), self._objects["_ex"]))

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are kept warm).

        The way tables and TLB front sets are untouched — recency is
        encoded in the way *order*, so eviction order survives a reset
        exactly like the classic model's warm ``OrderedDict`` sets.
        The page sets are cleared, and with them every fact that
        claims a page is recorded: the hot set, the composite cell and
        the figure-page cells (the MRU cells reset with them).
        """
        self.drain()
        for ctr, pages in self._kinds.values():
            ctr[:] = [0] * len(ctr)
            pages.clear()
        objects = self._objects
        objects["_ex"][:] = [0, 0, 0, 0]
        objects["_hot"].clear()
        objects["_cells"][:] = [-1] * len(_CELLS)
