"""Fast memory-system timing model for the block-fusion engine.

:class:`~repro.caches.hierarchy.MemorySystem` spends most of every
access in Python plumbing: a dict lookup into the per-kind stats, a
``touch_page`` method call, and two or three nested
:meth:`~repro.caches.cache.Cache.access` calls, each with its own
attribute loads and ``OrderedDict`` bookkeeping.  With timing enabled
that call chain dominates the whole simulation (ROADMAP "Interpreter
follow-ons").

:class:`FastMemorySystem` charges the *same* model — TLB probe, L1 (or
tag-cache) probe, L2 on miss, two block touches on a spanning access —
from generated probes with every shift, mask, penalty and way table
bound as a local:

* set-index masks and block shifts are precomputed per structure;
* each LRU structure is one flat ``keys`` list indexed by
  ``set_index * assoc + way``, with the ways of every set kept in
  **recency order** (most recently used at way 0) — the exact order
  the ``OrderedDict`` sets of :class:`~repro.caches.cache.Cache`
  maintain via ``move_to_end``, so the hit/miss streams and eviction
  victims are identical *by construction*.  A probe is a bounded
  linear scan over at most ``assoc`` slots with **no dict, hash or
  recency-stamp traffic at all**: a front-way hit (the overwhelmingly
  common case — way order *is* recency order) is a single compare
  with nothing to update, a deeper hit shifts the younger ways back
  one slot and reinstalls the key at the front, and a miss victimizes
  the last way — the least recently used — with the same shift.
  Empty ways hold the sentinel ``-1`` (no real key is negative) and
  drift to the back, so they are consumed before any resident block
  is evicted, exactly like the classic model's fill-before-evict;
* probe bodies are **generated source**, compiled per cache geometry:
  for the small associativities the paper uses (``assoc <= 4``) the
  way scan and the recency shift are fully unrolled into
  straight-line compares and slot moves; larger associativities take
  a bounded ``for`` scan plus one slice shift over the same layout;
* a most-recently-used short circuit skips the way scan entirely
  when an access touches the same block (or page) as the previous
  probe of that structure — then the block is guaranteed present
  *and* already at the front, so hit/miss/LRU state cannot change
  and only the access counters advance;
* per-kind statistics accumulate into flat counter lists and are
  materialized into an :class:`~repro.caches.stats.AccessStats` only
  when :attr:`stats` is read — **counter-batching invariant**: every
  code path that charges an access must bump the same shared counter
  lists, page sets and MRU cells;
* :meth:`make_word_probe` / :meth:`make_shadow_probe` /
  :meth:`make_data_probe` hand the execution engines single-call
  probes for their hottest access shapes (a word access fused with
  its tag-byte probe, the shadow double word, a plain word), and
  :meth:`word_probe_parts` / :meth:`data_probe_parts` add the cells
  of their composite-MRU short circuit, so a caller can inline that
  hit (only the access counters advance) and call the probe for
  everything else.  The block-fusion word templates do exactly
  that, over one set of probes per run; the probe source itself is
  compiled only here, never spliced into generated blocks.

Counters are **bit-identical** to :class:`MemorySystem`: the same
accesses, TLB/L1/L2 misses, stall cycles and distinct pages per kind
for any access stream (``tests/caches/test_fast.py`` runs both models
on random streams across an associativity/size sweep; the engine
differential suite runs them on whole workloads).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.caches.cache import _ilog2
from repro.caches.hierarchy import CacheParams
from repro.caches.stats import AccessStats, FIG_PAGE_SHIFT, KINDS
from repro.layout import PAGE_SIZE, SHADOW_SPACE_BASE

#: indices into the per-kind counter list
_ACC, _TLB_M, _L1_M, _L2_M, _STALL, _SPANS = range(6)

#: indices into a per-kind record
_R_CTR, _R_PAGES, _R_TLBK, _R_TLB_MRU, _R_KEYS, _R_MASK, _R_ASSOC, \
    _R_MRU = range(8)


# -- generated probe source --------------------------------------------------

# The probe bodies below are emitted as source lines over a canonical
# set of bound names and exec-compiled once per cache geometry (the
# associativities are baked into the source as unroll counts; masks,
# penalties and the way tables stay bound as closure cells so one
# code object serves every size with the same associativity).

def _shift_lines(keys: str, wb: str, upto, pad: str = "") -> List[str]:
    """Shift ways ``[wb, upto)`` back one slot (recency demotion).

    ``upto`` is an int offset for the unrolled emitters or a variable
    name for the scan path; single-slot shifts skip the slice.
    """
    if upto == 1:
        return [pad + "%s[%s + 1] = %s[%s]" % (keys, wb, keys, wb)]
    if isinstance(upto, int):
        return [pad + "%s[%s + 1:%s + %d] = %s[%s:%s + %d]"
                % (keys, wb, wb, upto + 1, keys, wb, wb, upto)]
    return [pad + "%s[%s + 1:%s + 1] = %s[%s:%s]"
            % (keys, wb, upto, keys, wb, upto)]


def _touch_lines(keys: str, key: str, mask: str, assoc: int,
                 miss: List[str], tmp: str = "") -> List[str]:
    """One set-associative structure touch over the flat way table.

    The ways of a set are kept in recency order (way 0 = most
    recent), so a front-way hit — the overwhelmingly common case — is
    one compare with nothing to update.  A deeper hit shifts the
    younger ways back one slot and reinstalls the key at the front
    (``OrderedDict.move_to_end`` in array clothes); a miss runs
    ``miss`` (the caller's counter/penalty lines) and installs the
    key the same way, evicting the last way — the least recently
    used.  Unrolled for ``assoc <= 4``; a bounded ``for`` scan plus
    one slice shift otherwise.  ``tmp`` suffixes the scratch names so
    touches can nest (the L2 touch runs inside the L1/tag miss path).
    """
    wb, ww = "wb" + tmp, "ww" + tmp
    lines: List[str] = []
    if assoc == 1:
        lines.append("%s = %s & %s" % (wb, key, mask))
        lines.append("if %s[%s] != %s:" % (keys, wb, key))
        lines.extend("    " + m for m in miss)
        lines.append("    %s[%s] = %s" % (keys, wb, key))
    elif assoc <= 4:
        lines.append("%s = (%s & %s) * %d" % (wb, key, mask, assoc))
        lines.append("if %s[%s] == %s:" % (keys, wb, key))
        lines.append("    pass")
        for w in range(1, assoc):
            lines.append("elif %s[%s + %d] == %s:" % (keys, wb, w, key))
            lines.extend(_shift_lines(keys, wb, w, "    "))
            lines.append("    %s[%s] = %s" % (keys, wb, key))
        lines.append("else:")
        lines.extend("    " + m for m in miss)
        lines.extend(_shift_lines(keys, wb, assoc - 1, "    "))
        lines.append("    %s[%s] = %s" % (keys, wb, key))
    else:
        lines.append("%s = (%s & %s) * %d" % (wb, key, mask, assoc))
        lines.append("if %s[%s] != %s:" % (keys, wb, key))
        lines.append("    for %s in range(%s + 1, %s + %d):"
                     % (ww, wb, wb, assoc))
        lines.append("        if %s[%s] == %s:" % (keys, ww, key))
        lines.append("            break")
        lines.append("    else:")
        lines.extend("        " + m for m in miss)
        lines.append("        %s = %s + %d" % (ww, wb, assoc - 1))
        lines.extend(_shift_lines(keys, wb, ww, "    "))
        lines.append("    %s[%s] = %s" % (keys, wb, key))
    return lines


def _tlb_touch_lines(ctr: str, keys: str, tlb_assoc: int) -> List[str]:
    """TLB leg touch from local ``pno``: a miss charges the penalty
    straight into the kind's stall counter."""
    return _touch_lines(keys, "pno", "_tlm", tlb_assoc,
                        ["%s[1] += 1" % ctr, "%s[4] += _tpen" % ctr])


def _walk_lines(ctr: str, keys: str, mask: str, assoc: int, mru: str,
                l2_assoc: int) -> List[str]:
    """The L1(-or-tag-cache)+L2 block walk from locals ``bno``/``lb``
    with ``stall`` accumulation (at most two iterations: a spanning
    access touches the first and last block)."""
    inner = (["%s[2] += 1" % ctr, "stall += _1pen"]
             + _touch_lines("_l2k", "bno", "_l2m", l2_assoc,
                            ["%s[3] += 1" % ctr, "stall += _2pen"],
                            tmp="2"))
    lines = ["stall = 0", "while True:"]
    lines += ["    " + line
              for line in _touch_lines(keys, "bno", mask, assoc, inner)]
    lines += [
        "    %s[0] = bno" % mru,
        "    if bno == lb:",
        "        break",
        "    %s[5] += 1" % ctr,
        "    bno = lb",
        "%s[4] += stall" % ctr,
    ]
    return lines


def _pad(pad: str, lines: List[str]) -> List[str]:
    return [pad + line for line in lines]


@lru_cache(maxsize=None)
def word_probe_lines(tlb_assoc: int, l1_assoc: int, tag_assoc: int,
                     l2_assoc: int) -> Tuple[str, ...]:
    """The whole word+tag charge as source lines over variable ``ea``.

    Charges a 4-byte ``"data"`` access at ``ea`` followed by a 1-byte
    ``"tag"`` access at ``_tb + (ea >> _ts)`` — the exact sequence
    every HardBound word load/store performs.  A tag byte never spans
    blocks, so the tag leg drops the span handling entirely.  The
    composite short circuit skips everything when the probe repeats
    the previous probe's key granule (see :meth:`make_word_probe`).
    """
    lines = [
        # the key granule pins only the access's first block, so the
        # skip must also prove the word doesn't span out of it
        # (conservative: same key granule for both ends)
        "wkey = ea >> _wps",
        "if wkey == _wpm[0] and (ea + 3) >> _wps == wkey:",
        "    _dct[0] += 1",
        "    _tct[0] += 1",
        "else:",
        # -- data leg (4 bytes) --
        "    _dct[0] += 1",
        "    fp = ea >> _fs",
        "    if fp != _dfg[0]:",
        "        _dpg(fp)",
        "        _dfg[0] = fp",
        "    pno = ea >> _ps",
        "    if pno != _dtm[0]:",
    ]
    lines += _pad("        ",
                  _tlb_touch_lines("_dct", "_dtlk", tlb_assoc))
    lines += [
        "        _dtm[0] = pno",
        "    fb = ea >> _bs",
        "    lb = (ea + 3) >> _bs",
        "    if fb == lb == _dmr[0]:",
        "        pass",
        "    else:",
        "        bno = fb",
    ]
    lines += _pad("        ",
                  _walk_lines("_dct", "_l1k", "_dma", l1_assoc,
                              "_dmr", l2_assoc))
    lines += [
        # -- tag leg (1 byte, never spans) --
        "    taddr = _tb + (ea >> _ts)",
        "    _tct[0] += 1",
        "    fp = taddr >> _fs",
        "    if fp != _tfg[0]:",
        "        _tpg(fp)",
        "        _tfg[0] = fp",
        "    pno = taddr >> _ps",
        "    if pno != _ttm[0]:",
    ]
    lines += _pad("        ",
                  _tlb_touch_lines("_tct", "_ttlk", tlb_assoc))
    lines += [
        "        _ttm[0] = pno",
        "    bno = taddr >> _bs",
        "    if bno != _tmr[0]:",
    ]
    tag_touch = _touch_lines(
        "_tck", "bno", "_tma", tag_assoc,
        ["_tct[2] += 1", "stall = _1pen"]
        + _touch_lines("_l2k", "bno", "_l2m", l2_assoc,
                       ["_tct[3] += 1", "stall += _2pen"], tmp="2")
        + ["_tct[4] += stall"])
    lines += _pad("        ", tag_touch)
    lines += [
        "        _tmr[0] = bno",
        # a spanning data access leaves the recency tail at the
        # second block, so a future same-key probe could not skip
        "    _wpm[0] = wkey if _cmpw and fb == lb else -1",
        "    _dpm[0] = -1",
    ]
    return tuple(lines)


@lru_cache(maxsize=None)
def data_probe_lines(tlb_assoc: int, l1_assoc: int,
                     l2_assoc: int) -> Tuple[str, ...]:
    """The plain 4-byte ``"data"`` charge as source lines over ``ea``."""
    lines = [
        "fb = ea >> _bs",
        "lb = (ea + 3) >> _bs",
        "if fb == lb == _dpm[0]:",
        "    _dct[0] += 1",
        "else:",
        "    _dct[0] += 1",
        "    fp = ea >> _fs",
        "    if fp != _dfg[0]:",
        "        _dpg(fp)",
        "        _dfg[0] = fp",
        "    pno = ea >> _ps",
        "    if pno != _dtm[0]:",
    ]
    lines += _pad("        ",
                  _tlb_touch_lines("_dct", "_dtlk", tlb_assoc))
    lines += [
        "        _dtm[0] = pno",
        "    if fb == lb == _dmr[0]:",
        "        pass",
        "    else:",
        "        bno = fb",
    ]
    lines += _pad("        ",
                  _walk_lines("_dct", "_l1k", "_dma", l1_assoc,
                              "_dmr", l2_assoc))
    lines += [
        "    _dpm[0] = fb if _cmpd and fb == lb else -1",
        "    _wpm[0] = -1",
    ]
    return tuple(lines)


@lru_cache(maxsize=None)
def _kind_probe_lines(span: int, cassoc: int, tlb_assoc: int,
                      l2_assoc: int, identity: bool) -> Tuple[str, ...]:
    """Fixed-size single-kind charge over neutral structure names
    (``_ct``/``_ck``/... are bound to the kind's record at compile
    time).  Used for the shadow probe."""
    if identity:
        lines = ["addr = ea"]
    else:
        lines = ["addr = _kb + ea * _ksc"]
    lines += [
        "fb = addr >> _bs",
        "lb = (addr + %d) >> _bs" % span,
        "_ct[0] += 1",
        "fp = addr >> _fs",
        "if fp != _fg[0]:",
        "    _pg(fp)",
        "    _fg[0] = fp",
        "pno = addr >> _ps",
        "if pno != _tm[0]:",
    ]
    lines += _pad("    ", _tlb_touch_lines("_ct", "_tlk", tlb_assoc))
    lines += [
        "    _tm[0] = pno",
        "if fb == lb == _mr[0]:",
        "    pass",
        "else:",
        "    bno = fb",
    ]
    lines += _pad("    ",
                  _walk_lines("_ct", "_ck", "_cm", cassoc, "_mr",
                              l2_assoc))
    lines += [
        "_wpm[0] = -1",
        "_dpm[0] = -1",
    ]
    return tuple(lines)


#: pseudo-filename of the generated probe source (shows in tracebacks)
_FAST_FILENAME = "<repro-fast-probes>"

#: (shape, geometry) -> compiled factory code object
_probe_code_cache: Dict[tuple, object] = {}

_WORD_ARGS = (
    "_bs", "_ps", "_fs", "_wps", "_tlm", "_tpen", "_1pen", "_2pen",
    "_dct", "_dpg", "_dfg", "_dtm", "_dtlk", "_l1k", "_dma", "_dmr",
    "_tct", "_tpg", "_tfg", "_ttm", "_ttlk", "_tck", "_tma", "_tmr",
    "_l2k", "_l2m", "_tb", "_ts", "_wpm", "_dpm", "_cmpw",
)

_DATA_ARGS = (
    "_bs", "_ps", "_fs", "_tlm", "_tpen", "_1pen", "_2pen",
    "_dct", "_dpg", "_dfg", "_dtm", "_dtlk", "_l1k", "_dma", "_dmr",
    "_l2k", "_l2m", "_wpm", "_dpm", "_cmpd",
)

_KIND_ARGS = (
    "_bs", "_ps", "_fs", "_tlm", "_tpen", "_1pen", "_2pen",
    "_ct", "_pg", "_fg", "_tm", "_tlk", "_ck", "_cm", "_mr",
    "_l2k", "_l2m", "_wpm", "_dpm", "_kb", "_ksc",
)


def _compile_probe(cache_key: tuple, fname: str,
                   body: Tuple[str, ...], arg_names: Tuple[str, ...]):
    """Compile ``def fname(ea)`` with ``arg_names`` as closure cells.

    The factory pattern (an outer function taking the bound state as
    parameters) turns every name the body touches into a fast closure
    cell; the compiled code object is cached by geometry so repeated
    ``FastMemorySystem`` constructions reuse it.
    """
    code = _probe_code_cache.get(cache_key)
    if code is None:
        src = ["def _make(%s):" % ", ".join(arg_names),
               "    def %s(ea):" % fname]
        src += ["        " + line for line in body]
        src.append("    return %s" % fname)
        code = compile("\n".join(src), _FAST_FILENAME, "exec")
        _probe_code_cache[cache_key] = code
    namespace: dict = {}
    exec(code, namespace)
    return namespace["_make"]


class _CacheView:
    """Read-only stand-in for a :class:`~repro.caches.cache.Cache`.

    Derives probe counts from the per-kind counters so diagnostics
    (e.g. ``memsys.tag_cache.miss_rate()``) work against the fast
    model too.  A structure's probes are the accesses of every kind
    routed to it plus one extra probe per block-spanning access; its
    misses are those kinds' per-level miss counters.
    """

    __slots__ = ("name", "accesses", "misses")

    def __init__(self, name: str, accesses: int, misses: int):
        self.name = name
        self.accesses = accesses
        self.misses = misses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self):
        return ("_CacheView(%s: %d acc, %.1f%% miss)"
                % (self.name, self.accesses, 100.0 * self.miss_rate()))


class FastMemorySystem:
    """Drop-in fast replacement for :class:`MemorySystem`.

    Same constructor, same ``access(addr, size, write, kind)``
    signature and return value (the stall cycles charged), same
    statistics; only the implementation differs.  The model — like
    :class:`MemorySystem` — is write-agnostic: the ``write`` flag is
    accepted for interface parity and ignored.  Used by the
    ``blocks`` execution engine.
    """

    def __init__(self, params: CacheParams = None):
        self.params = params or CacheParams()
        p = self.params
        # LRU sets as flat way tables indexed by set_index * assoc +
        # way, each set's ways kept in recency order (way 0 = most
        # recently used) — the OrderedDict order of
        # :class:`~repro.caches.cache.Cache`, so eviction (the last
        # way) picks the same victim.  Empty ways hold -1 and drift
        # to the back, matching the classic fill-before-evict.
        (self._l1_keys,
         self._l1_mask) = self._make_ways(p.l1_size, p.l1_assoc,
                                          p.block)
        (self._l2_keys,
         self._l2_mask) = self._make_ways(p.l2_size, p.l2_assoc,
                                          p.block)
        (self._tag_keys,
         self._tag_mask) = self._make_ways(p.tag_cache_size,
                                           p.tag_cache_assoc, p.block)
        tlb_size = p.tlb_entries * PAGE_SIZE
        (self._dtlb_keys,
         self._tlb_mask) = self._make_ways(tlb_size, p.tlb_assoc,
                                           PAGE_SIZE)
        (self._tag_tlb_keys,
         _) = self._make_ways(tlb_size, p.tlb_assoc, PAGE_SIZE)
        # one MRU cell per structure, shared by every probe of that
        # structure (the short-circuit invariant demands it)
        l1_mru, tag_mru = [-1], [-1]
        dtlb_mru, tag_tlb_mru = [-1], [-1]
        # composite MRU cells: a probe may skip its whole structure
        # walk when it repeats the previous probe's block granule AND
        # no other probe touched the shared structures since; every
        # other probe therefore invalidates these on its full path
        self._wp_mru = [-1]
        self._dp_mru = [-1]
        # every cell whose skip path can elide a distinct-page add;
        # reset_stats() must invalidate them so cleared page sets
        # repopulate (probes register their private fig cells here)
        self._reset_cells: List[list] = [self._wp_mru, self._dp_mru]
        #: kind -> record, layout per the ``_R_*`` indices above
        self._kinds: Dict[str, tuple] = {}
        for kind in KINDS:
            if kind == "tag":
                rec = ([0] * 6, set(), self._tag_tlb_keys, tag_tlb_mru,
                       self._tag_keys, self._tag_mask,
                       p.tag_cache_assoc, tag_mru)
            else:
                rec = ([0] * 6, set(), self._dtlb_keys, dtlb_mru,
                       self._l1_keys, self._l1_mask,
                       p.l1_assoc, l1_mru)
            self._kinds[kind] = rec
        self.access = self._build_access()

    @staticmethod
    def _make_ways(size: int, assoc: int, block: int):
        """Flat ``(keys, set_mask)`` way table for one structure
        (``num_sets * assoc`` slots)."""
        if size % (assoc * block):
            raise ValueError("size must be a multiple of assoc*block")
        num_sets = size // (assoc * block)
        _ilog2(num_sets)  # validate power of two
        return [-1] * (num_sets * assoc), num_sets - 1

    def _geometry(self):
        """Shared constants bound into every probe closure."""
        p = self.params
        return (_ilog2(p.block), _ilog2(PAGE_SIZE),
                self._tlb_mask, p.tlb_assoc,
                self._l2_keys, self._l2_mask, p.l2_assoc,
                p.tlb_miss_penalty, p.l1_miss_penalty,
                p.l2_miss_penalty, FIG_PAGE_SHIFT)

    # -- hot paths ---------------------------------------------------------

    def _build_access(self):
        """Generic probe with all parameters bound as locals.

        Works for any associativity (runtime-bounded way scans plus
        one slice shift per non-front touch); the generated probes
        below unroll the same walk for the hot access shapes.
        """
        kinds = self._kinds
        (block_shift, page_shift, tlb_mask, tlb_assoc, l2_keys,
         l2_mask, l2_assoc, tlb_pen, l1_pen, l2_pen,
         fig_shift) = self._geometry()
        wp_mru = self._wp_mru
        dp_mru = self._dp_mru

        def access(addr, size, write, kind):
            (ctr, pages, tlbk, tlb_mru, ckeys, cmask, cassoc,
             cmru) = kinds[kind]
            wp_mru[0] = -1
            dp_mru[0] = -1
            ctr[0] += 1
            pages.add(addr >> fig_shift)
            page_no = addr >> page_shift
            stall = 0
            if page_no != tlb_mru[0]:
                wb = (page_no & tlb_mask) * tlb_assoc
                if tlbk[wb] != page_no:
                    for ww in range(wb + 1, wb + tlb_assoc):
                        if tlbk[ww] == page_no:
                            break
                    else:
                        ctr[1] += 1
                        stall = tlb_pen
                        ww = wb + tlb_assoc - 1
                    tlbk[wb + 1:ww + 1] = tlbk[wb:ww]
                    tlbk[wb] = page_no
                tlb_mru[0] = page_no
            bno = addr >> block_shift
            last_bno = (addr + size - 1) >> block_shift
            if bno == last_bno == cmru[0]:
                ctr[4] += stall
                return stall
            while True:
                wb = (bno & cmask) * cassoc
                if ckeys[wb] != bno:
                    for ww in range(wb + 1, wb + cassoc):
                        if ckeys[ww] == bno:
                            break
                    else:
                        ctr[2] += 1
                        stall += l1_pen
                        wb2 = (bno & l2_mask) * l2_assoc
                        if l2_keys[wb2] != bno:
                            for ww2 in range(wb2 + 1, wb2 + l2_assoc):
                                if l2_keys[ww2] == bno:
                                    break
                            else:
                                ctr[3] += 1
                                stall += l2_pen
                                ww2 = wb2 + l2_assoc - 1
                            l2_keys[wb2 + 1:ww2 + 1] = l2_keys[wb2:ww2]
                            l2_keys[wb2] = bno
                        ww = wb + cassoc - 1
                    ckeys[wb + 1:ww + 1] = ckeys[wb:ww]
                    ckeys[wb] = bno
                cmru[0] = bno
                if bno == last_bno:
                    break
                ctr[5] += 1
                bno = last_bno
            ctr[4] += stall
            return stall

        return access

    def make_word_probe(self, tag_base: int, tag_shift: int):
        """Single-call probe for a word access plus its tag byte.

        Charges a 4-byte ``"data"`` access at the given address
        followed by a 1-byte ``"tag"`` access at ``tag_base + (addr
        >> tag_shift)`` — the exact sequence every HardBound word
        load/store performs.  Compiled from
        :func:`word_probe_lines` for this geometry.
        """
        p = self.params
        (block_shift, page_shift, tlb_mask, tlb_assoc, l2_keys,
         l2_mask, l2_assoc, tlb_pen, l1_pen, l2_pen,
         fig_shift) = self._geometry()
        drec = self._kinds["data"]
        trec = self._kinds["tag"]
        # distinct-page sets are idempotent, so a private
        # last-page-added cell can elide repeat adds safely
        dfig_mru = [-1]
        tfig_mru = [-1]
        self._reset_cells += [dfig_mru, tfig_mru]
        # composite short circuit: same key as the previous probe of
        # these structures means every level repeats a front-way hit
        # — only the access counters can change.  The key granule
        # must pin the data block, the tag byte and both figure
        # pages, hence the min-shift (and the off-switch for exotic
        # geometries).
        key_shift = min(tag_shift, block_shift)
        composite = key_shift <= fig_shift and block_shift < page_shift
        geometry = (tlb_assoc, p.l1_assoc, p.tag_cache_assoc, l2_assoc)
        make = _compile_probe(("word",) + geometry, "word_probe",
                              word_probe_lines(*geometry), _WORD_ARGS)
        values = {
            "_bs": block_shift, "_ps": page_shift, "_fs": fig_shift,
            "_wps": key_shift, "_tlm": tlb_mask, "_tpen": tlb_pen,
            "_1pen": l1_pen, "_2pen": l2_pen,
            "_dct": drec[_R_CTR], "_dpg": drec[_R_PAGES].add,
            "_dfg": dfig_mru, "_dtm": drec[_R_TLB_MRU],
            "_dtlk": drec[_R_TLBK], "_l1k": drec[_R_KEYS],
            "_dma": drec[_R_MASK], "_dmr": drec[_R_MRU],
            "_tct": trec[_R_CTR], "_tpg": trec[_R_PAGES].add,
            "_tfg": tfig_mru, "_ttm": trec[_R_TLB_MRU],
            "_ttlk": trec[_R_TLBK], "_tck": trec[_R_KEYS],
            "_tma": trec[_R_MASK], "_tmr": trec[_R_MRU],
            "_l2k": l2_keys, "_l2m": l2_mask,
            "_tb": tag_base, "_ts": tag_shift,
            "_wpm": self._wp_mru, "_dpm": self._dp_mru,
            "_cmpw": composite,
        }
        return make(*(values[name] for name in _WORD_ARGS))

    def make_data_probe(self):
        """Probe for a plain 4-byte ``"data"`` access at an address.

        Compiled from :func:`data_probe_lines` for this geometry.
        """
        (block_shift, page_shift, tlb_mask, tlb_assoc, l2_keys,
         l2_mask, l2_assoc, tlb_pen, l1_pen, l2_pen,
         fig_shift) = self._geometry()
        drec = self._kinds["data"]
        dfig_mru = [-1]
        self._reset_cells.append(dfig_mru)
        # only the data probe gets a composite cell; it shares the
        # dtlb/L1 with the word/shadow probes and the generic entry
        # point, so each of those invalidates it on their full paths
        composite = (block_shift <= fig_shift
                     and block_shift < page_shift)
        geometry = (tlb_assoc, self.params.l1_assoc, l2_assoc)
        make = _compile_probe(("data",) + geometry, "data_probe",
                              data_probe_lines(*geometry), _DATA_ARGS)
        values = {
            "_bs": block_shift, "_ps": page_shift, "_fs": fig_shift,
            "_tlm": tlb_mask, "_tpen": tlb_pen, "_1pen": l1_pen,
            "_2pen": l2_pen,
            "_dct": drec[_R_CTR], "_dpg": drec[_R_PAGES].add,
            "_dfg": dfig_mru, "_dtm": drec[_R_TLB_MRU],
            "_dtlk": drec[_R_TLBK], "_l1k": drec[_R_KEYS],
            "_dma": drec[_R_MASK], "_dmr": drec[_R_MRU],
            "_l2k": l2_keys, "_l2m": l2_mask,
            "_wpm": self._wp_mru, "_dpm": self._dp_mru,
            "_cmpd": composite,
        }
        return make(*(values[name] for name in _DATA_ARGS))

    def _make_kind_probe(self, kind: str, size: int, base: int,
                         addr_scale: int):
        """Fixed-size single-kind probe: charges ``base + key *
        addr_scale`` for ``size`` bytes under ``kind``."""
        (block_shift, page_shift, tlb_mask, tlb_assoc, l2_keys,
         l2_mask, l2_assoc, tlb_pen, l1_pen, l2_pen,
         fig_shift) = self._geometry()
        rec = self._kinds[kind]
        identity = base == 0 and addr_scale == 1
        fig_mru = [-1]
        self._reset_cells.append(fig_mru)
        cassoc = rec[_R_ASSOC]
        geometry = (size - 1, cassoc, tlb_assoc, l2_assoc, identity)
        make = _compile_probe(("kind",) + geometry, "kind_probe",
                              _kind_probe_lines(*geometry), _KIND_ARGS)
        values = {
            "_bs": block_shift, "_ps": page_shift, "_fs": fig_shift,
            "_tlm": tlb_mask, "_tpen": tlb_pen, "_1pen": l1_pen,
            "_2pen": l2_pen,
            "_ct": rec[_R_CTR], "_pg": rec[_R_PAGES].add,
            "_fg": fig_mru, "_tm": rec[_R_TLB_MRU],
            "_tlk": rec[_R_TLBK], "_ck": rec[_R_KEYS],
            "_cm": rec[_R_MASK], "_mr": rec[_R_MRU],
            "_l2k": l2_keys, "_l2m": l2_mask,
            "_wpm": self._wp_mru, "_dpm": self._dp_mru,
            "_kb": base, "_ksc": addr_scale,
        }
        return make(*(values[name] for name in _KIND_ARGS))

    def make_shadow_probe(self):
        """Probe for the shadow double word of a data word ``key``
        (``key`` is the word-aligned data address)."""
        return self._make_kind_probe("shadow", 8, SHADOW_SPACE_BASE, 2)

    # callers hot enough to inline the composite-hit path themselves
    # (the block-fusion word templates) get the probe plus the cells
    # the short circuit reads: on a hit only the access counters
    # advance.

    def word_probe_parts(self, tag_base: int, tag_shift: int):
        """``(probe, wp_mru, data_ctr, tag_ctr, key_shift)`` for an
        inlined ``key == wp_mru[0]`` fast path around
        :meth:`make_word_probe`."""
        probe = self.make_word_probe(tag_base, tag_shift)
        key_shift = min(tag_shift, _ilog2(self.params.block))
        return (probe, self._wp_mru, self._kinds["data"][_R_CTR],
                self._kinds["tag"][_R_CTR], key_shift)

    def data_probe_parts(self):
        """``(probe, dp_mru, data_ctr, block_shift)`` for an inlined
        non-spanning ``bkey == dp_mru[0]`` fast path around
        :meth:`make_data_probe`."""
        return (self.make_data_probe(), self._dp_mru,
                self._kinds["data"][_R_CTR],
                _ilog2(self.params.block))

    # -- statistics --------------------------------------------------------

    @property
    def stats(self) -> AccessStats:
        """Materialize the batched counters as an ``AccessStats``."""
        out = AccessStats()
        for kind, rec in self._kinds.items():
            ctr, pages = rec[_R_CTR], rec[_R_PAGES]
            ks = out.kinds[kind]
            ks.accesses = ctr[_ACC]
            ks.tlb_misses = ctr[_TLB_M]
            ks.l1_misses = ctr[_L1_M]
            ks.l2_misses = ctr[_L2_M]
            ks.stall_cycles = ctr[_STALL]
            ks.pages = set(pages)
        return out

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are kept warm).

        The way tables are untouched — recency is encoded in the way
        *order*, so eviction order survives a reset exactly like the
        classic model's warm ``OrderedDict`` sets (and there is no
        recency counter to overflow or wrap, ever).
        """
        for rec in self._kinds.values():
            ctr, pages = rec[_R_CTR], rec[_R_PAGES]
            for i in range(len(ctr)):
                ctr[i] = 0
            pages.clear()
        # composite/fig-page shortcuts may elide page-set adds; after
        # clearing the sets they must repopulate from scratch
        for cell in self._reset_cells:
            cell[0] = -1

    # -- diagnostic views --------------------------------------------------

    def _probe_counts(self, kinds_subset: Tuple[str, ...],
                      miss_idx: int,
                      spanning: bool) -> Tuple[int, int]:
        acc = misses = 0
        for kind in kinds_subset:
            ctr = self._kinds[kind][_R_CTR]
            acc += ctr[_ACC] + (ctr[_SPANS] if spanning else 0)
            misses += ctr[miss_idx]
        return acc, misses

    @property
    def l1(self) -> _CacheView:
        acc, m = self._probe_counts(("data", "shadow", "soft"),
                                    _L1_M, True)
        return _CacheView("L1D", acc, m)

    @property
    def tag_cache(self) -> _CacheView:
        acc, m = self._probe_counts(("tag",), _L1_M, True)
        return _CacheView("TagCache", acc, m)

    @property
    def l2(self) -> _CacheView:
        acc = sum(self._kinds[k][_R_CTR][_L1_M] for k in KINDS)
        m = sum(self._kinds[k][_R_CTR][_L2_M] for k in KINDS)
        return _CacheView("L2", acc, m)

    @property
    def dtlb(self) -> _CacheView:
        acc, m = self._probe_counts(("data", "shadow", "soft"),
                                    _TLB_M, False)
        return _CacheView("DTLB", acc, m)

    @property
    def tag_tlb(self) -> _CacheView:
        acc, m = self._probe_counts(("tag",), _TLB_M, False)
        return _CacheView("TagTLB", acc, m)
