"""Flat-bytearray data memory: the three program segments, nothing else.

Memory is byte addressable and little endian.  Globals, heap and
stack are each one flat ``bytearray`` arena, addressed by subtracting
the arena's base.  The heap arena doubles its capacity on
:meth:`Memory.sbrk`, and the stack arena, seeded with the page below
``STACK_TOP``, doubles downward the first time a mapped access falls
below its backed part, so growth is amortized O(1), a run backs only
the stack it touches, and neither moves the *cell* the execution
engines bind; their word templates index a ``memoryview`` cast to
native 32-bit words on little-endian hosts.

Program accesses are legal only inside the globals segment, the heap
below the current program break, or the fixed stack reservation
``[STACK_BASE, STACK_TOP)``; everything else, the null guard
included, raises :class:`~repro.machine.errors.MemoryFault`.  One
segment test both maps an access and selects its arena.  The paper's
shadow and tag metadata spaces have no storage here: the metadata
engine keeps their content in its word table, and the timing models
charge their addresses.
"""

from __future__ import annotations

import sys
from typing import Dict

from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    PAGE_SHIFT,
    PAGE_SIZE,
    STACK_BASE,
    STACK_TOP,
)
from repro.machine.errors import MemoryFault

#: host can alias a bytearray as native little-endian 32-bit words
NATIVE_LE = sys.byteorder == "little"

#: initial heap arena capacity (doubles on demand)
_HEAP_SEED = 1 << 16

#: initial stack arena: the page below ``STACK_TOP`` (doubles
#: downward on demand)
_STACK_SEED = PAGE_SIZE

#: one all-zero page: ``page != _ZERO_PAGE`` tests a whole page with
#: a single memcmp instead of a byte-by-byte ``any()``
_ZERO_PAGE = bytes(PAGE_SIZE)


def _make_cell(base: int, capacity: int, reserve_end: int) -> list:
    """An arena cell: ``[bytearray, word-view, base, reserve_end]``.

    The cell is the unit the execution engines bind: growth replaces
    the cell *contents* in place, so fusers holding the cell always
    see the current buffer.  ``word-view`` is a ``memoryview`` cast
    to 32-bit native words (``None`` on big-endian hosts, where the
    cast would not be little endian).  ``base`` is the address of the
    buffer's first byte (the stack's moves down as it grows), and
    ``reserve_end`` bounds the arena's *address* ownership: the
    buffer never grows past it.
    """
    capacity = (capacity + 7) & ~7
    return _install([None, None, base, reserve_end], bytearray(capacity))


def _install(cell: list, buf: bytearray) -> list:
    """Make ``buf`` the cell's buffer, with a fresh word view."""
    if cell[1] is not None:
        cell[1].release()
    cell[0] = buf
    cell[1] = memoryview(buf).cast("I") if NATIVE_LE else None
    return cell


def _grow_cell(cell: list, need: int) -> None:
    """Grow a cell's arena upward to at least ``need`` bytes by
    doubling.

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
    _install(cell, new_buf)


def _grow_stack(cell: list, addr: int) -> None:
    """Back the stack arena down to ``addr`` by doubling, clamped to
    the reservation ``[STACK_BASE, STACK_TOP)``.

    The heap's rule mirrored: the backed bytes move to the top of the
    new buffer, and the cell's base moves down by the growth.
    """
    buf = cell[0]
    size = len(buf)
    new_size = size
    while STACK_TOP - new_size > addr:
        new_size *= 2
    new_size = min(new_size, STACK_TOP - STACK_BASE)
    _install(cell, bytearray(new_size - size) + buf)
    cell[2] = STACK_TOP - new_size


class Memory:
    """The three segment arenas plus the two moving segment ends:
    ``globals_limit`` (set by :meth:`load_image`) and ``brk`` (moved
    by :meth:`sbrk`).  Each arena reserves the addresses up to the
    next segment's base: globals ``[GLOBAL_BASE, HEAP_BASE)``, heap
    ``[HEAP_BASE, STACK_BASE)``, stack ``[STACK_BASE, STACK_TOP)``.
    The stack arena backs ``[stack_cell[2], STACK_TOP)``, the top of
    its reservation.
    """

    def __init__(self):
        self.globals_limit = GLOBAL_BASE
        self.brk = HEAP_BASE
        #: arena cells ([buf, word-view, base, reserve_end]); the
        #: execution engines bind these once and index through them
        #: on every access
        self.globals_cell = _make_cell(GLOBAL_BASE, 0, HEAP_BASE)
        self.heap_cell = _make_cell(HEAP_BASE, _HEAP_SEED, STACK_BASE)
        self.stack_cell = _make_cell(STACK_TOP - _STACK_SEED,
                                     _STACK_SEED, STACK_TOP)
        self._cells = (self.globals_cell, self.heap_cell,
                       self.stack_cell)

    # -- segment management ------------------------------------------------

    def load_image(self, image: bytes) -> None:
        """Copy the program's data image to ``GLOBAL_BASE``; the
        image is the globals segment."""
        _grow_cell(self.globals_cell, len(image))
        self.globals_cell[0][:len(image)] = image
        self.globals_limit = GLOBAL_BASE + len(image)

    def sbrk(self, increment: int) -> int:
        """Grow (or query, with 0) the heap; returns the old break.

        Growth is amortized O(1): the heap arena doubles its capacity
        whenever the new break outruns it, and shrinking the break
        keeps both the capacity and the bytes (so re-growing exposes
        the old contents again).  A break that would cross
        ``STACK_BASE`` traps (every engine funnels through this
        method, keeping them trap-identical).
        """
        old = self.brk
        new = self.brk + increment
        if new > STACK_BASE:
            raise MemoryFault(new, "sbrk")
        self.brk = new
        if new > HEAP_BASE + len(self.heap_cell[0]):
            _grow_cell(self.heap_cell, new - HEAP_BASE)
        return old

    # -- checked program access --------------------------------------------

    def _cell(self, addr: int, size: int, access: str) -> list:
        """The cell of the segment that maps all of
        ``[addr, addr+size)``; raises :class:`MemoryFault` otherwise.

        The null guard lies below every segment.  A mapped access lies
        inside its arena's buffer: :meth:`sbrk` grows the heap to the
        break, :meth:`load_image` sizes the globals, and a stack access
        below the backed part grows the stack arena down to it.
        """
        end = addr + size
        if GLOBAL_BASE <= addr and end <= self.globals_limit:
            return self.globals_cell
        if HEAP_BASE <= addr and end <= self.brk:
            return self.heap_cell
        if STACK_BASE <= addr and end <= STACK_TOP:
            cell = self.stack_cell
            if addr < cell[2]:
                _grow_stack(cell, addr)
            return cell
        raise MemoryFault(addr, access)

    def read(self, addr: int, size: int) -> int:
        """Little-endian unsigned read of 1/2/4 mapped bytes."""
        cell = self._cell(addr, size, "read")
        off = addr - cell[2]
        return int.from_bytes(cell[0][off:off + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write the low ``size`` bytes of ``value``, little endian, to
        mapped bytes."""
        cell = self._cell(addr, size, "write")
        off = addr - cell[2]
        cell[0][off:off + size] = \
            (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        """The NUL-terminated latin-1 string at ``addr`` (``prints``).

        Unchecked, like the legacy handler it serves: a byte an arena
        backs reads from its buffer (stale heap bytes past a shrunken
        break included), and every other byte, unbacked stack bytes
        included, reads as zero without backing anything.
        """
        out = []
        for at in range(addr, addr + limit):
            byte = 0
            for buf, _, base, reserve_end in self._cells:
                if base <= at < reserve_end:
                    if at - base < len(buf):
                        byte = buf[at - base]
                    break
            if not byte:
                break
            out.append(chr(byte))
        return "".join(out)

    # -- introspection -------------------------------------------------------

    def nonzero_pages(self) -> Dict[int, bytes]:
        """Page-number -> bytes for every page holding non-zero data.

        Walks each arena's buffer page by page, comparing each page in
        place against ``_ZERO_PAGE`` (one memcmp).  Segment bases are
        page aligned, so no page straddles two arenas; a last partial
        page is zero-padded.  This is the final-memory image the
        engine differential suite and the fuzz oracle compare.
        """
        out: Dict[int, bytes] = {}
        for buf, _, base, _ in self._cells:
            first = base >> PAGE_SHIFT
            for off in range(0, len(buf), PAGE_SIZE):
                page = buf[off:off + PAGE_SIZE]
                if page != _ZERO_PAGE[:len(page)]:
                    out[first + (off >> PAGE_SHIFT)] = \
                        bytes(page).ljust(PAGE_SIZE, b"\0")
        return out
