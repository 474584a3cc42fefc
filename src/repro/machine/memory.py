"""Flat-bytearray data memory with mapping discipline.

Memory is byte addressable and little endian.  The three program
segments — globals, heap and stack — are each backed by one flat
``bytearray`` arena, addressed by subtracting the segment base; the
heap arena grows by capacity doubling on :meth:`sbrk`, so growth is
amortized O(1) and never moves the *object* the execution engines
bind (arenas are published through mutable cells, see
:attr:`heap_cell`).  Word accesses go through a ``memoryview`` cast
to native 32-bit words when the host is little endian, turning a
load into one index instead of a slice plus ``int.from_bytes``.

The mapping discipline models virtual-memory protection exactly as
the old paged store did: program accesses are legal only inside the
globals segment, the heap below the current program break, or the
stack reservation — everything else traps with the same
:class:`~repro.machine.errors.MemoryFault`.  The segment *checks*
double as the guard regions of the flat model: an address that
passes a check is by construction inside that segment's arena, so
no separate bounds test is needed on the arena index.

The shadow and tag metadata regions (and any other address outside
the three program segments) are written exclusively by the simulated
hardware through the ``raw_*`` entry points, which bypass the mapping
check; they stay on a sparse 4KB page fallback — they are cold,
enormous in address extent, and never on the execution fast path.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Tuple

from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    NULL_GUARD,
    PAGE_SHIFT,
    PAGE_SIZE,
    STACK_TOP,
)
from repro.machine.errors import MemoryFault

#: host can alias a bytearray as native little-endian 32-bit words
NATIVE_LE = sys.byteorder == "little"

#: initial heap arena capacity (doubles on demand)
_HEAP_SEED = 1 << 16

#: one all-zero page: ``page != _ZERO_PAGE`` tests a whole page with
#: a single memcmp instead of a byte-by-byte ``any()``
_ZERO_PAGE = bytes(PAGE_SIZE)


def _make_cell(base: int, capacity: int, reserve_end: int) -> list:
    """An arena cell: ``[bytearray, word-view, base, reserve_end]``.

    The cell is the unit the execution engines bind: growth replaces
    the cell *contents* in place, so fusers holding the cell always
    see the current buffer.  ``word-view`` is a ``memoryview`` cast
    to 32-bit native words (``None`` on big-endian hosts, where the
    cast would not be little endian).  ``reserve_end`` bounds the
    arena's *address* ownership: capacity may carry a few alignment
    padding bytes past it, but accesses are routed by the reserved
    range, never by capacity.
    """
    capacity = (capacity + 7) & ~7
    buf = bytearray(capacity)
    word_view = (memoryview(buf).cast("I")
                 if NATIVE_LE and base % 4 == 0 else None)
    return [buf, word_view, base, reserve_end]


def _grow_cell(cell: list, need: int) -> None:
    """Grow a cell's arena to at least ``need`` bytes by doubling.

    The doubling is clamped to the cell's reserved range (plus
    alignment padding) so a growth near the segment boundary cannot
    allocate address space owned by the next segment.
    """
    buf = cell[0]
    capacity = len(buf)
    if need <= capacity:
        return
    new_cap = max(capacity, _HEAP_SEED)
    while new_cap < need:
        new_cap *= 2
    new_cap = min(new_cap, (cell[3] - cell[2] + 7) & ~7)
    new_buf = bytearray(new_cap)
    new_buf[:capacity] = buf
    if cell[1] is not None:
        cell[1].release()
    cell[0] = new_buf
    cell[1] = (memoryview(new_buf).cast("I")
               if NATIVE_LE and cell[2] % 4 == 0 else None)


class Memory:
    """Flat arena store plus segment bookkeeping.

    ``globals_limit`` and ``brk`` define the mapped extents of the
    data and heap segments; ``stack_base`` the bottom of the stack
    reservation.  :meth:`check_mapped` enforces them for program
    accesses (hardware metadata accesses use the ``raw_*`` entry
    points).

    Arena routing for raw access is by *reserved range*: the globals
    arena owns ``[GLOBAL_BASE, HEAP_BASE)``, the heap arena
    ``[HEAP_BASE, stack_base)`` and the stack arena
    ``[stack_base, STACK_TOP)``; addresses outside those ranges (the
    metadata spaces, the null-guard gap) fall back to sparse pages.
    Reads beyond an arena's current capacity return zeros, exactly as
    unmaterialized pages did; writes grow the arena on demand.
    """

    def __init__(self, stack_size: int):
        self.globals_limit = GLOBAL_BASE
        self.brk = HEAP_BASE
        self.stack_base = STACK_TOP - stack_size
        #: arena cells ([buf, word-view, base, reserve_end]); the
        #: execution engines bind these once and index through them
        #: on every access
        self.globals_cell = _make_cell(GLOBAL_BASE, 0, HEAP_BASE)
        self.heap_cell = _make_cell(HEAP_BASE, _HEAP_SEED,
                                    self.stack_base)
        self.stack_cell = _make_cell(self.stack_base, stack_size,
                                     STACK_TOP)
        #: sparse fallback for everything outside the program segments
        self._pages: Dict[int, bytearray] = {}

    # -- segment management ------------------------------------------------

    def load_image(self, image: bytes, extra_bss: int = 0) -> None:
        """Copy the program's data image to ``GLOBAL_BASE``."""
        limit = GLOBAL_BASE + len(image) + extra_bss
        _grow_cell(self.globals_cell, limit - GLOBAL_BASE)
        self.globals_cell[0][:len(image)] = image
        self.globals_limit = limit

    def sbrk(self, increment: int) -> int:
        """Grow (or query, with 0) the heap; returns the old break.

        Growth is amortized O(1): the heap arena doubles its capacity
        whenever the new break outruns it, and shrinking the break
        keeps both the capacity and the bytes (so re-growing exposes
        the old contents again, like the paged store's persistent
        pages).  Unlike the paged store, the break extent is backed
        densely — a huge sparse reservation costs real memory — and
        the heap may not grow into the stack reservation: the paged
        store silently aliased the two segments onto one page store
        there, which the split arenas cannot reproduce, so crossing
        ``stack_base`` traps instead (every engine funnels through
        this method, keeping them trap-identical).
        """
        old = self.brk
        new = self.brk + increment
        if new > self.stack_base:
            raise MemoryFault(new, "sbrk")
        self.brk = new
        if new > HEAP_BASE + len(self.heap_cell[0]):
            _grow_cell(self.heap_cell, new - HEAP_BASE)
        return old

    def check_mapped(self, addr: int, size: int, access: str) -> None:
        """Trap unless [addr, addr+size) lies in a mapped segment."""
        end = addr + size
        if GLOBAL_BASE <= addr and end <= self.globals_limit:
            return
        if HEAP_BASE <= addr and end <= self.brk:
            return
        if self.stack_base <= addr and end <= STACK_TOP:
            return
        raise MemoryFault(addr, access)

    # -- raw byte access (no mapping checks) ----------------------------------

    def _route(self, addr: int):
        """Arena cell owning ``addr``'s reserved range, or ``None``."""
        if HEAP_BASE <= addr < self.stack_base:
            return self.heap_cell
        if GLOBAL_BASE <= addr < HEAP_BASE:
            return self.globals_cell
        if self.stack_base <= addr < STACK_TOP:
            return self.stack_cell
        return None

    def _page(self, page_no: int) -> bytearray:
        page = self._pages.get(page_no)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_no] = page
        return page

    def raw_read(self, addr: int, size: int) -> int:
        """Little-endian unsigned read of 1/2/4 bytes."""
        cell = self._route(addr)
        if cell is not None:
            off = addr - cell[2]
            buf = cell[0]
            # both bounds matter: capacity (alignment padding may
            # exceed the reserved range) and the reserved range
            # itself (the tail bytes may belong to the next segment)
            if off + size <= len(buf) and addr + size <= cell[3]:
                return int.from_bytes(buf[off:off + size], "little")
            return int.from_bytes(self.raw_read_bytes(addr, size),
                                  "little")
        off = addr & (PAGE_SIZE - 1)
        if off + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[off:off + size], "little")
        return int.from_bytes(self.raw_read_bytes(addr, size), "little")

    def raw_write(self, addr: int, size: int, value: int) -> None:
        """Little-endian write of the low ``size`` bytes of ``value``."""
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        self.raw_write_bytes(addr, data)

    def raw_read_bytes(self, addr: int, length: int) -> bytes:
        """Read an arbitrary byte range (may span arenas/pages)."""
        out = bytearray()
        while length:
            cell = self._route(addr)
            if cell is not None:
                buf = cell[0]
                off = addr - cell[2]
                # clamp to this arena's reserved range
                chunk = min(length, cell[3] - addr)
                have = max(0, min(chunk, len(buf) - off))
                if have:
                    out += buf[off:off + have]
                if chunk - have:
                    out += bytes(chunk - have)
            else:
                off = addr & (PAGE_SIZE - 1)
                chunk = min(length, PAGE_SIZE - off)
                page = self._pages.get(addr >> PAGE_SHIFT)
                if page is None:
                    out += bytes(chunk)
                else:
                    out += page[off:off + chunk]
            addr += chunk
            length -= chunk
        return bytes(out)

    def raw_write_bytes(self, addr: int, data: bytes) -> None:
        """Write an arbitrary byte range (may span arenas/pages)."""
        pos = 0
        total = len(data)
        while pos < total:
            cell = self._route(addr)
            if cell is not None:
                chunk = min(total - pos, cell[3] - addr)
                off = addr - cell[2]
                _grow_cell(cell, off + chunk)
                cell[0][off:off + chunk] = data[pos:pos + chunk]
            else:
                off = addr & (PAGE_SIZE - 1)
                chunk = min(total - pos, PAGE_SIZE - off)
                self._page(addr >> PAGE_SHIFT)[off:off + chunk] = \
                    data[pos:pos + chunk]
            addr += chunk
            pos += chunk

    # -- checked program access --------------------------------------------

    def read(self, addr: int, size: int) -> int:
        """Program read with null-guard and mapping checks."""
        if addr < NULL_GUARD:
            raise MemoryFault(addr, "read")
        self.check_mapped(addr, size, "read")
        return self.raw_read(addr, size)

    def write(self, addr: int, size: int, value: int) -> None:
        """Program write with null-guard and mapping checks."""
        if addr < NULL_GUARD:
            raise MemoryFault(addr, "write")
        self.check_mapped(addr, size, "write")
        self.raw_write(addr, size, value)

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """Read a NUL-terminated latin-1 string (debug helper)."""
        out = []
        for i in range(limit):
            byte = self.raw_read(addr + i, 1)
            if byte == 0:
                break
            out.append(chr(byte))
        return "".join(out)

    # -- introspection -------------------------------------------------------

    def mapped_pages(self) -> Iterable[int]:
        """Page numbers holding data so far (metadata pages included).

        With flat arenas, "mapped" means covered by an arena's current
        capacity or materialized in the sparse fallback.
        """
        pages = set(self._pages.keys())
        for cell in (self.globals_cell, self.heap_cell,
                     self.stack_cell):
            base = cell[2]
            end = min(base + len(cell[0]), cell[3])
            pages.update(range(base >> PAGE_SHIFT,
                               (end + PAGE_SIZE - 1) >> PAGE_SHIFT))
        return pages

    def nonzero_pages(self) -> Dict[int, bytes]:
        """Page-number -> bytes for every page holding non-zero data.

        Backing-store independent: the paged model and the flat model
        produce identical snapshots for identical write histories,
        which is what the engine differential suite compares.  It
        covers every page of :meth:`mapped_pages`.  A page wholly
        inside one arena's buffer and reserved range is compared in
        place, as a ``bytearray`` slice (a memcmp against
        ``_ZERO_PAGE``); the rest are read back through
        :meth:`raw_read_bytes`, so a page that straddles an arena
        boundary (or an arena and the sparse fallback — possible when
        ``stack_base`` is not page aligned) is assembled from every
        store that owns a piece of it.
        """
        out: Dict[int, bytes] = {}
        rest = set(self._pages)
        for cell in (self.globals_cell, self.heap_cell,
                     self.stack_cell):
            buf, base = cell[0], cell[2]
            size = min(len(buf), cell[3] - base)
            for no in range(base >> PAGE_SHIFT,
                            (base + size + PAGE_SIZE - 1) >> PAGE_SHIFT):
                off = (no << PAGE_SHIFT) - base
                if off < 0 or off + PAGE_SIZE > size:
                    rest.add(no)
                    continue
                page = buf[off:off + PAGE_SIZE]
                if page != _ZERO_PAGE:
                    out[no] = bytes(page)
        for no in rest:
            page = self.raw_read_bytes(no << PAGE_SHIFT, PAGE_SIZE)
            if page != _ZERO_PAGE:
                out[no] = page
        return out

    def segments(self) -> Tuple[Tuple[int, int], ...]:
        """Mapped program segments as (start, end) pairs."""
        return ((GLOBAL_BASE, self.globals_limit),
                (HEAP_BASE, self.brk),
                (self.stack_base, STACK_TOP))
