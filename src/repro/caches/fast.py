"""Fast memory-system timing model for the block-fusion engine.

:class:`~repro.caches.hierarchy.MemorySystem` spends most of every
access in Python plumbing: a dict lookup into the per-kind stats, a
``touch_page`` method call, and two or three nested
:meth:`~repro.caches.cache.Cache.access` calls, each with its own
attribute loads and ``OrderedDict`` bookkeeping.  With timing enabled
that call chain would dominate the whole simulation.

:class:`FastMemorySystem` charges the *same* model from generated
source.  One *leg* charges one access of one kind: count it, add its
figure page, touch the TLB, walk the L1 (or the tag cache) with the
L2 on a miss, and touch the last block too when the access spans
two.  One generator, :func:`_leg_lines`, emits every leg, and every
entry point is composed from legs:

* the word probe (:meth:`~FastMemorySystem.make_word_probe`) is a
  data leg plus a tag leg behind a composite hit: the 4-byte access
  and its tag byte, as every HardBound word load/store performs them;
* the data and shadow probes are one leg each;
* the generic ``access(addr, size, write, kind)`` is one leg per kind
  with a runtime span.

What makes a leg cheap:

* each LRU structure is one flat ``keys`` list indexed by
  ``set_index * assoc + way``, with the ways of every set kept in
  **recency order** (most recently used at way 0) — the exact order
  the ``OrderedDict`` sets of :class:`~repro.caches.cache.Cache`
  maintain via ``move_to_end``, so the hit/miss streams and eviction
  victims are identical *by construction*.  A front-way hit (the
  overwhelmingly common case) is a single compare with nothing to
  update, a deeper hit shifts the younger ways back one slot and
  reinstalls the key at the front, and a miss victimizes the last way
  — the least recently used — with the same shift.  Empty ways hold
  the sentinel ``-1`` (no real key is negative) and drift to the
  back, so they are consumed before any resident block is evicted,
  exactly like the classic model's fill-before-evict;
* legs are compiled per cache geometry: for the small associativities
  the paper uses (``assoc <= 4``) the way scan and the recency shift
  are fully unrolled; larger associativities take a bounded ``for``
  scan plus one slice shift over the same layout;
* a most-recently-used short circuit skips a structure's way scan
  when an access touches the same block (or page) as the previous
  touch of that structure — the block is then present *and* at the
  front, so only the access counters advance;
* per-kind statistics accumulate into flat counter lists and are
  materialized into an :class:`~repro.caches.stats.AccessStats` only
  when :attr:`~FastMemorySystem.stats` is read.  **Counter-batching
  invariant**: every leg of a kind bumps the same counter list, page
  set and shared MRU cells;
* a leg reads its structures through names keyed by its kind's
  prefix (``_dct``, ``_dck``, ``_tct``, ...), all bound from one map;
  an entry point's factory takes exactly the ``_`` names its source
  reads, so each becomes a closure cell.

The block-fusion word templates splice :data:`WORD_CHARGE` /
:data:`DATA_CHARGE`: the composite hit inline (only the access
counters advance), else a call of the run's shared probe.  The word
and data probes start with the same hit lines, so the rule is
written once.

Counters are **bit-identical** to :class:`MemorySystem`: the same
accesses, TLB/L1/L2 misses, stall cycles and distinct pages per kind
for any access stream (``tests/caches/test_fast.py`` runs both models
on random streams across an associativity/size sweep; the engine
differential suite runs them on whole workloads).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.caches.cache import _ilog2
from repro.caches.hierarchy import CacheParams
from repro.caches.stats import AccessStats, FIG_PAGE_SHIFT, KINDS
from repro.layout import PAGE_SIZE, SHADOW_SPACE_BASE

#: indices into the per-kind counter list
_ACC, _TLB_M, _L1_M, _L2_M, _STALL, _SPANS = range(6)

#: the name prefix of each kind's leg ("soft" is the fat-pointer
#: baseline's table)
_PREFIX = {"data": "d", "shadow": "s", "tag": "t", "soft": "f"}

#: the bound names in generated source: every name that begins with
#: ``_`` (locals and parameters never do)
_NAME = re.compile(r"\b_\w+")


# -- generated source --------------------------------------------------------

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


def _pad(pad: str, lines) -> List[str]:
    return [pad + line for line in lines]


def _names_in(lines) -> Tuple[str, ...]:
    """The bound names ``lines`` read, sorted."""
    return tuple(sorted(set(_NAME.findall("\n".join(lines)))))


def _leg_lines(prefix: str, addr: str, span, assocs: Tuple[int, ...],
               ret: bool) -> List[str]:
    """One leg: charge ``span + 1`` bytes at ``addr`` to a kind.

    ``prefix`` names the kind's counters and structures, ``addr`` the
    variable holding the address; ``span`` (an int, or source such as
    ``"size - 1"``) is the offset of the access's last byte, and a
    span of 0 drops the two-block loop.  ``assocs`` is the (TLB, L1
    or tag cache, L2) associativity.  With ``ret`` the penalties add
    up in the local ``stall`` for the caller to return; otherwise the
    TLB penalty goes straight to the stall counter.
    """
    tlb_assoc, cache_assoc, l2_assoc = assocs
    pre = "_" + prefix
    ctr = pre + "ct"
    l2_touch = _touch_lines("_l2k", "bno", "_l2m", l2_assoc,
                            [ctr + "[3] += 1", "stall += _2pen"],
                            tmp="2")
    lines = ["stall = 0"] if ret else []
    lines += [
        ctr + "[0] += 1",
        "fp = %s >> _fs" % addr,
        "if fp != %sfg[0]:" % pre,
        "    %spg(fp)" % pre,
        "    %sfg[0] = fp" % pre,
        "pno = %s >> _ps" % addr,
        "if pno != %stm[0]:" % pre,
    ]
    lines += _pad("    ", _touch_lines(
        pre + "tlk", "pno", "_tlm", tlb_assoc,
        [ctr + "[1] += 1",
         "stall = _tpen" if ret else ctr + "[4] += _tpen"]))
    lines.append("    %stm[0] = pno" % pre)
    if span == 0:
        miss = ([ctr + "[2] += 1",
                 "stall %s _1pen" % ("+=" if ret else "=")]
                + l2_touch + ([] if ret else [ctr + "[4] += stall"]))
        lines += ["bno = %s >> _bs" % addr,
                  "if bno != %smr[0]:" % pre]
        lines += _pad("    ", _touch_lines(pre + "ck", "bno", pre + "cm",
                                           cache_assoc, miss))
        lines.append("    %smr[0] = bno" % pre)
    else:
        # at most two iterations: a spanning access touches its
        # first and last block
        walk = ["bno = fb"] + ([] if ret else ["stall = 0"])
        walk.append("while True:")
        walk += _pad("    ", _touch_lines(
            pre + "ck", "bno", pre + "cm", cache_assoc,
            [ctr + "[2] += 1", "stall += _1pen"] + l2_touch))
        walk += [
            "    %smr[0] = bno" % pre,
            "    if bno == lb:",
            "        break",
            "    %s[5] += 1" % ctr,
            "    bno = lb",
        ]
        if not ret:
            walk.append(ctr + "[4] += stall")
        lines += [
            "fb = %s >> _bs" % addr,
            "lb = (%s + %s) >> _bs" % (addr, span),
            "if fb == lb == %smr[0]:" % pre,
            "    pass",
            "else:",
        ] + _pad("    ", walk)
    if ret:
        lines.append(ctr + "[4] += stall")
    return lines


# The composite short circuits.  A probe may skip its whole walk when
# it repeats the previous probe's key granule AND no other charge
# touched the shared structures since (every other entry point
# invalidates both cells on its full path): every level then repeats
# a front-way hit, and only the access counters advance.  The key
# granule pins only the access's first block, so the skip must also
# prove the word does not span out of it.

_WORD_HIT = (
    "wkey = ea >> _wps",
    "if wkey == _wpm[0] and (ea + 3) >> _wps == wkey:",
    "    _dct[0] += 1",
    "    _tct[0] += 1",
)
_DATA_HIT = (
    "bkey = ea >> _bs",
    "if bkey == _dpm[0] and (ea + 3) >> _bs == bkey:",
    "    _dct[0] += 1",
)

#: inline charge of a word access plus its tag byte at ``ea``: the
#: composite hit, else the word probe ``_wp``
#: (:meth:`FastMemorySystem.word_charge` binds the names)
WORD_CHARGE = _WORD_HIT + ("else:", "    _wp(ea)")
#: inline charge of a plain word access at ``ea``: the composite hit,
#: else the data probe ``_dp`` (:meth:`FastMemorySystem.data_charge`)
DATA_CHARGE = _DATA_HIT + ("else:", "    _dp(ea)")


def _word_lines(data: tuple, tag: tuple) -> List[str]:
    """The word probe over ``ea``: a 4-byte data leg, then the tag
    byte at ``_tb + (ea >> _ts)``, which never spans."""
    legs = (_leg_lines("d", "ea", 3, data, False)
            + ["taddr = _tb + (ea >> _ts)"]
            + _leg_lines("t", "taddr", 0, tag, False)
            + [
                # a spanning data access leaves the recency tail at
                # the second block, so a same-key probe could not skip
                "_wpm[0] = wkey if _cmpw and fb == lb else -1",
                "_dpm[0] = -1",
            ])
    return list(_WORD_HIT) + ["else:"] + _pad("    ", legs)


def _data_lines(data: tuple) -> List[str]:
    """The data probe: a plain 4-byte data leg at ``ea``."""
    legs = _leg_lines("d", "ea", 3, data, False) + [
        "_dpm[0] = fb if _cmpd and fb == lb else -1",
        "_wpm[0] = -1",
    ]
    return list(_DATA_HIT) + ["else:"] + _pad("    ", legs)


def _shadow_lines(data: tuple) -> List[str]:
    """The shadow probe: the 8-byte shadow leg of the word-aligned
    data address ``ea`` (:func:`~repro.layout.shadow_base_addr`)."""
    return (["addr = %d + ea * 2" % SHADOW_SPACE_BASE]
            + _leg_lines("s", "addr", 7, data, False)
            + ["_wpm[0] = -1", "_dpm[0] = -1"])


def _access_lines(data: tuple, tag: tuple) -> List[str]:
    """The generic entry point: one leg per kind, most traffic first,
    returning the stall cycles charged."""
    lines: List[str] = []
    for kind in ("data", "tag", "shadow", "soft"):
        lines.append('%s kind == "%s":' % ("elif" if lines else "if",
                                           kind))
        lines += _pad("    ", _leg_lines(
            _PREFIX[kind], "addr", "size - 1",
            tag if kind == "tag" else data, True))
    return lines + ["else:", "    raise KeyError(kind)",
                    "_wpm[0] = -1", "_dpm[0] = -1", "return stall"]


#: pseudo-filename of the generated source (shows in tracebacks)
_FAST_FILENAME = "<repro-fast-probes>"


@lru_cache(maxsize=None)
def _factory(name: str, args: str, lines, assocs: tuple):
    """Compile ``def name(args)`` with the body ``lines(*assocs)``.

    Returns ``(make, params)``: ``make(*values)`` builds a new
    function whose bound names (``params``, the ``_`` names the body
    reads) are closure cells.  Compiled once per shape and geometry
    per process; one code object serves every size with the same
    associativities.
    """
    body = lines(*assocs)
    params = _names_in(body)
    src = (["def _make(%s):" % ", ".join(params),
            "    def %s(%s):" % (name, args)]
           + _pad("        ", body) + ["    return " + name])
    namespace: dict = {}
    exec(compile("\n".join(src), _FAST_FILENAME, "exec"), namespace)
    return namespace["_make"], params


def _charge_names(lines: Tuple[str, ...], name: str, probe) -> dict:
    """``{name: value}`` for every name ``lines`` read: ``name`` is
    ``probe`` and the rest are the probe's own cells, since its
    source starts with the same hit."""
    cells = dict(zip(probe.__code__.co_freevars,
                     [cell.cell_contents for cell in probe.__closure__]))
    cells[name] = probe
    return {n: cells[n] for n in _names_in(lines)}


def _make_ways(size: int, assoc: int, block: int):
    """Flat ``(keys, set_mask)`` way table for one structure
    (``num_sets * assoc`` slots, every way empty)."""
    if size % (assoc * block):
        raise ValueError("size must be a multiple of assoc*block")
    num_sets = size // (assoc * block)
    _ilog2(num_sets)  # validate power of two
    return [-1] * (num_sets * assoc), num_sets - 1


class FastMemorySystem:
    """Drop-in fast replacement for :class:`MemorySystem`.

    Same constructor, same ``access(addr, size, write, kind)``
    signature and return value (the stall cycles charged; an unknown
    kind raises ``KeyError``), same statistics; only the
    implementation differs.  The model — like :class:`MemorySystem` —
    is write-agnostic: the ``write`` flag is accepted for interface
    parity and ignored.  Used by the ``blocks`` execution engine.
    """

    def __init__(self, params: CacheParams = None):
        self.params = params or CacheParams()
        p = self.params
        l1 = _make_ways(p.l1_size, p.l1_assoc, p.block)
        l2_keys, l2_mask = _make_ways(p.l2_size, p.l2_assoc, p.block)
        tag_cache = _make_ways(p.tag_cache_size, p.tag_cache_assoc,
                               p.block)
        tlb_size = p.tlb_entries * PAGE_SIZE
        dtlb_keys, tlb_mask = _make_ways(tlb_size, p.tlb_assoc,
                                         PAGE_SIZE)
        tag_tlb_keys, _ = _make_ways(tlb_size, p.tlb_assoc, PAGE_SIZE)
        block_shift, page_shift = _ilog2(p.block), _ilog2(PAGE_SIZE)
        self._wp_mru, self._dp_mru = [-1], [-1]
        # every cell whose skip path can elide a distinct-page add;
        # reset_stats() must invalidate them so cleared page sets
        # repopulate (each compiled entry point adds its fig cells)
        self._reset_cells: List[list] = [self._wp_mru, self._dp_mru]
        self._names = {
            "_bs": block_shift, "_ps": page_shift, "_fs": FIG_PAGE_SHIFT,
            "_tlm": tlb_mask, "_tpen": p.tlb_miss_penalty,
            "_1pen": p.l1_miss_penalty, "_2pen": p.l2_miss_penalty,
            "_l2k": l2_keys, "_l2m": l2_mask,
            "_wpm": self._wp_mru, "_dpm": self._dp_mru,
            # the data probe's composite key must pin the figure
            # and TLB pages too
            "_cmpd": (block_shift <= FIG_PAGE_SHIFT
                      and block_shift < page_shift),
        }
        # data, shadow and soft share the data TLB and L1 (Section
        # 4.4); tag has its own TLB and cache.  One MRU cell per
        # structure, shared by every leg that touches it.
        data_side = (dtlb_keys, [-1]) + l1 + ([-1],)
        tag_side = (tag_tlb_keys, [-1]) + tag_cache + ([-1],)
        #: kind -> (counters, distinct figure pages)
        self._kinds: Dict[str, tuple] = {}
        for kind in KINDS:
            ctr, pages = self._kinds[kind] = ([0] * 6, set())
            tlb_keys, tlb_mru, keys, mask, mru = (
                tag_side if kind == "tag" else data_side)
            pre = "_" + _PREFIX[kind]
            self._names.update({
                pre + "ct": ctr, pre + "pg": pages.add,
                pre + "tlk": tlb_keys, pre + "tm": tlb_mru,
                pre + "ck": keys, pre + "cm": mask, pre + "mr": mru,
            })
        self._data = (p.tlb_assoc, p.l1_assoc, p.l2_assoc)
        self._tag = (p.tlb_assoc, p.tag_cache_assoc, p.l2_assoc)
        self.access = self._compile("access", "addr, size, write, kind",
                                    _access_lines,
                                    (self._data, self._tag))

    def _compile(self, name: str, args: str, lines, assocs: tuple,
                 **names):
        """A new entry point over this model's structures.

        ``names`` adds to (or overrides) the shared name map.  Each
        entry point gets its own figure-page cells (``_*fg``): page
        sets are idempotent, so a private last-page-added cell can
        elide repeat adds safely.
        """
        make, params = _factory(name, args, lines, assocs)
        env = dict(self._names, **names)
        for param in params:
            if param.endswith("fg"):
                env[param] = [-1]
                self._reset_cells.append(env[param])
        return make(*[env[param] for param in params])

    def make_word_probe(self, tag_base: int, tag_shift: int):
        """Single-call probe for a word access plus its tag byte.

        Charges a 4-byte ``"data"`` access at the given address
        followed by a 1-byte ``"tag"`` access at ``tag_base + (addr
        >> tag_shift)`` — the exact sequence every HardBound word
        load/store performs.
        """
        # the composite key granule must pin the data block, the tag
        # byte and both figure pages, hence the min-shift (and the
        # off-switch for exotic geometries)
        block_shift = self._names["_bs"]
        key_shift = min(tag_shift, block_shift)
        return self._compile(
            "word_probe", "ea", _word_lines, (self._data, self._tag),
            _tb=tag_base, _ts=tag_shift, _wps=key_shift,
            _cmpw=(key_shift <= FIG_PAGE_SHIFT
                   and block_shift < self._names["_ps"]))

    def make_data_probe(self):
        """Probe for a plain 4-byte ``"data"`` access at an address."""
        return self._compile("data_probe", "ea", _data_lines,
                             (self._data,))

    def make_shadow_probe(self):
        """Probe for the shadow double word of a data word ``key``
        (``key`` is the word-aligned data address)."""
        return self._compile("shadow_probe", "ea", _shadow_lines,
                             (self._data,))

    def word_charge(self, tag_base: int, tag_shift: int) -> dict:
        """The names :data:`WORD_CHARGE` reads, bound to a new
        :meth:`make_word_probe`."""
        return _charge_names(WORD_CHARGE, "_wp",
                             self.make_word_probe(tag_base, tag_shift))

    def data_charge(self) -> dict:
        """The names :data:`DATA_CHARGE` reads, bound to a new
        :meth:`make_data_probe`."""
        return _charge_names(DATA_CHARGE, "_dp", self.make_data_probe())

    # -- statistics --------------------------------------------------------

    @property
    def stats(self) -> AccessStats:
        """Materialize the batched counters as an ``AccessStats``."""
        out = AccessStats()
        for kind, (ctr, pages) in self._kinds.items():
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
        for ctr, pages in self._kinds.values():
            ctr[:] = [0] * len(ctr)
            pages.clear()
        # composite/fig-page shortcuts may elide page-set adds; after
        # clearing the sets they must repopulate from scratch
        for cell in self._reset_cells:
            cell[0] = -1
