"""Flat-bytearray memory: the three segment arenas and their mapping.

``Memory`` holds the globals, heap and stack segments and nothing
else: a program access is legal only inside one of them, and the
mapping discipline, byte order and page snapshots are pinned here
against the observable behaviour every engine relies on.
"""

import pytest
from hypothesis import given, strategies as st

from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    PAGE_SIZE,
    SHADOW_SPACE_BASE,
    STACK_BASE,
    STACK_TOP,
)
from repro.machine import Memory, MemoryFault
from repro.machine.memory import NATIVE_LE, _grow_cell, _make_cell


def make(image=b""):
    mem = Memory()
    mem.load_image(image)
    return mem


def reference_scan(mem):
    """Reference snapshot: every non-zero byte of the three arena
    buffers, gathered into zero-filled 4 KB pages."""
    pages = {}
    for buf, _, base, _ in (mem.globals_cell, mem.heap_cell,
                            mem.stack_cell):
        for off, byte in enumerate(buf):
            if byte:
                addr = base + off
                page = pages.setdefault(addr // PAGE_SIZE,
                                        bytearray(PAGE_SIZE))
                page[addr % PAGE_SIZE] = byte
    return {no: bytes(page) for no, page in pages.items()}


def test_public_surface():
    assert {name for name in dir(Memory) if not name.startswith("_")
            and callable(getattr(Memory, name))} == {
        "read", "write", "read_cstring", "load_image", "sbrk",
        "nonzero_pages"}


class TestMappingDiscipline:
    def test_null_guard(self):
        mem = make()
        with pytest.raises(MemoryFault):
            mem.read(0, 4)
        with pytest.raises(MemoryFault):
            mem.write(0xFFF, 1, 7)

    def test_globals_extent(self):
        mem = make(b"\x01\x02\x03\x04")
        assert mem.read(GLOBAL_BASE, 4) == 0x04030201
        with pytest.raises(MemoryFault):
            mem.read(GLOBAL_BASE + 4, 1)

    def test_heap_grows_with_sbrk(self):
        mem = make()
        with pytest.raises(MemoryFault):
            mem.write(HEAP_BASE, 4, 1)
        old = mem.sbrk(64)
        assert old == HEAP_BASE
        mem.write(HEAP_BASE, 4, 1)
        mem.write(HEAP_BASE + 60, 4, 2)
        with pytest.raises(MemoryFault):
            mem.write(HEAP_BASE + 64, 4, 3)

    def test_stack_reservation(self):
        mem = make()
        mem.write(STACK_TOP - 4, 4, 1)
        mem.write(STACK_BASE, 4, 2)
        with pytest.raises(MemoryFault):
            mem.write(STACK_BASE - 4, 4, 3)

    def test_access_straddling_segment_end_faults(self):
        mem = make(b"\x00" * 6)
        with pytest.raises(MemoryFault):
            mem.read(GLOBAL_BASE + 4, 4)   # last 2 bytes unmapped


class TestOnDemandStack:
    """The stack arena backs the page below ``STACK_TOP`` and grows
    downward by doubling on the first mapped access below its backed
    part, clamped to the reservation ``[STACK_BASE, STACK_TOP)``."""

    def test_fresh_memory_backs_one_stack_page(self):
        mem = Memory()
        assert len(mem.stack_cell[0]) == PAGE_SIZE
        assert mem.stack_cell[2] == STACK_TOP - PAGE_SIZE
        if NATIVE_LE:
            assert len(mem.stack_cell[1]) == PAGE_SIZE // 4

    def test_growth_doubles_down_to_the_access(self):
        mem = make()
        mem.write(STACK_TOP - PAGE_SIZE, 4, 1)       # backed: no growth
        assert len(mem.stack_cell[0]) == PAGE_SIZE
        assert mem.read(STACK_TOP - PAGE_SIZE - 4, 4) == 0
        assert len(mem.stack_cell[0]) == 2 * PAGE_SIZE
        mem.write(STACK_TOP - 3 * PAGE_SIZE, 1, 7)
        assert len(mem.stack_cell[0]) == 4 * PAGE_SIZE
        assert mem.stack_cell[2] == STACK_TOP - 4 * PAGE_SIZE
        assert mem.read(STACK_TOP - PAGE_SIZE, 4) == 1

    def test_word_straddling_the_backed_base_grows(self):
        mem = make()
        mem.write(STACK_TOP - PAGE_SIZE - 2, 4, 0xCAFEF00D)
        assert len(mem.stack_cell[0]) == 2 * PAGE_SIZE
        assert mem.read(STACK_TOP - PAGE_SIZE, 2) == 0xCAFE
        assert mem.read(STACK_TOP - PAGE_SIZE - 2, 2) == 0xF00D

    def test_write_at_stack_base_backs_the_reservation(self):
        mem = make()
        cell = mem.stack_cell
        mem.write(STACK_TOP - 4, 4, 0x11223344)
        mem.write(STACK_TOP - PAGE_SIZE, 1, 0x55)
        mem.write(STACK_BASE, 4, 0x66778899)
        assert mem.stack_cell is cell
        assert len(cell[0]) == STACK_TOP - STACK_BASE
        assert cell[2] == STACK_BASE
        # the top page's bytes moved to the top of the new buffer
        assert mem.read(STACK_TOP - 4, 4) == 0x11223344
        assert mem.read(STACK_TOP - PAGE_SIZE, 1) == 0x55
        assert mem.read(STACK_BASE, 4) == 0x66778899
        if NATIVE_LE:
            # the word view is re-cast over the new buffer
            assert cell[1][(STACK_TOP - 4 - STACK_BASE) >> 2] == 0x11223344
            assert cell[1][0] == 0x66778899
        mem.write(STACK_BASE + 8, 4, 1)                # no further growth
        assert len(cell[0]) == STACK_TOP - STACK_BASE

    @pytest.mark.parametrize("access", ("read", "write"))
    def test_below_the_reservation_still_faults(self, access):
        for grown in (False, True):
            mem = make()
            if grown:
                mem.write(STACK_BASE, 4, 1)
            with pytest.raises(MemoryFault) as exc:
                if access == "read":
                    mem.read(STACK_BASE - 4, 4)
                else:
                    mem.write(STACK_BASE - 4, 4, 1)
            assert str(exc.value) == (
                "memory fault: %s of unmapped 0x%08x"
                % (access, STACK_BASE - 4))
            # a fault backs nothing, nor does a word straddling the
            # reservation's floor
            with pytest.raises(MemoryFault):
                mem.read(STACK_BASE - 2, 4)
            assert len(mem.stack_cell[0]) == (
                STACK_TOP - STACK_BASE if grown else PAGE_SIZE)

    def test_read_cstring_reads_zero_below_the_backed_part(self):
        mem = make()
        # the backed buffer's last byte: a negative index below the
        # backed part would wrap to it
        mem.write(STACK_TOP - 1, 1, ord("x"))
        for addr in (STACK_TOP - PAGE_SIZE - 1, STACK_BASE):
            assert mem.read_cstring(addr) == ""
        # a string running up into the backed part reads from it
        mem.write(STACK_TOP - PAGE_SIZE, 1, ord("y"))
        assert mem.read_cstring(STACK_TOP - PAGE_SIZE) == "y"
        assert len(mem.stack_cell[0]) == PAGE_SIZE     # backs nothing

    def test_nonzero_pages_after_a_growth(self):
        mem = make()
        mem.write(STACK_TOP - 4, 4, 0xA5A5A5A5)
        mem.write(STACK_TOP - 5 * PAGE_SIZE + 12, 4, 0x01020304)
        assert len(mem.stack_cell[0]) == 8 * PAGE_SIZE
        pages = mem.nonzero_pages()
        assert set(pages) >= {(STACK_TOP >> 12) - 1,
                              (STACK_TOP >> 12) - 5}
        assert pages == reference_scan(mem)
        mem.write(STACK_BASE + PAGE_SIZE - 1, 1, 0x80)
        pages = mem.nonzero_pages()
        assert pages[(STACK_BASE >> 12)][-1] == 0x80
        assert pages == reference_scan(mem)


class TestByteOrder:
    def test_little_endian(self):
        mem = make(b"\x00" * 8)
        mem.write(GLOBAL_BASE, 4, 0x11223344)
        assert mem.read(GLOBAL_BASE, 1) == 0x44
        assert mem.read(GLOBAL_BASE + 1, 1) == 0x33
        assert mem.read(GLOBAL_BASE + 2, 2) == 0x1122

    def test_word_straddling_a_page_in_each_arena(self):
        mem = make(b"\x00" * (PAGE_SIZE * 2))
        mem.sbrk(PAGE_SIZE * 2)
        for base in (GLOBAL_BASE, HEAP_BASE, STACK_BASE):
            addr = base + PAGE_SIZE - 2
            mem.write(addr, 4, 0xAABBCCDD)
            assert mem.read(addr, 4) == 0xAABBCCDD
            assert mem.read(base + PAGE_SIZE, 2) == 0xAABB
            pages = mem.nonzero_pages()
            assert pages[addr // PAGE_SIZE][-2:] == b"\xdd\xcc"
            assert pages[addr // PAGE_SIZE + 1][:2] == b"\xbb\xaa"

    def test_write_masks_to_size(self):
        mem = make(b"\x00" * 8)
        mem.write(GLOBAL_BASE, 1, 0x1FF)
        assert mem.read(GLOBAL_BASE, 1) == 0xFF
        assert mem.read(GLOBAL_BASE + 1, 1) == 0
        mem.write(GLOBAL_BASE + 4, 2, -1)
        assert mem.read(GLOBAL_BASE + 4, 4) == 0xFFFF


@given(addr=st.integers(GLOBAL_BASE, GLOBAL_BASE + 3 * PAGE_SIZE - 4),
       size=st.sampled_from([1, 2, 4]),
       value=st.integers(0, 0xFFFFFFFF))
def test_roundtrip(addr, size, value):
    mem = make(bytes(3 * PAGE_SIZE))
    mem.write(addr, size, value)
    assert mem.read(addr, size) == value & ((1 << (8 * size)) - 1)


@given(base=st.sampled_from([GLOBAL_BASE, HEAP_BASE, STACK_BASE]),
       writes=st.lists(st.tuples(st.integers(0, PAGE_SIZE * 3 - 1),
                                 st.integers(0, 255)),
                       max_size=100))
def test_byte_writes_match_dict_model(base, writes):
    mem = make(bytes(PAGE_SIZE * 3))
    mem.sbrk(PAGE_SIZE * 3)
    model = {}
    for offset, value in writes:
        mem.write(base + offset, 1, value)
        model[offset] = value
    for offset, value in model.items():
        assert mem.read(base + offset, 1) == value


class TestReadCString:
    def test_reads_to_the_nul(self):
        mem = make(b"hello\0world")
        assert mem.read_cstring(GLOBAL_BASE) == "hello"
        assert mem.read_cstring(GLOBAL_BASE + 6) == "world"
        assert mem.read_cstring(GLOBAL_BASE, limit=3) == "hel"

    def test_reads_stale_bytes_past_a_shrunken_break(self):
        """Unchecked, like ``prints``: the heap buffer keeps the bytes
        past a shrunken break, and the string reads them."""
        mem = make()
        mem.sbrk(64)
        for i, byte in enumerate(b"stale\0"):
            mem.write(HEAP_BASE + 32 + i, 1, byte)
        mem.sbrk(-64)
        with pytest.raises(MemoryFault):
            mem.read(HEAP_BASE + 32, 1)
        assert mem.read_cstring(HEAP_BASE + 32) == "stale"

    def test_reads_zero_outside_every_segment(self):
        mem = make(b"abc")
        for addr in (0, GLOBAL_BASE - 8, SHADOW_SPACE_BASE, STACK_TOP,
                     # inside the globals reservation, past its buffer
                     GLOBAL_BASE + len(mem.globals_cell[0])):
            assert mem.read_cstring(addr) == ""

    def test_stops_at_the_end_of_the_stack_reservation(self):
        mem = make()
        mem.write(STACK_TOP - 2, 2, 0x6968)    # "hi", then STACK_TOP
        assert mem.read_cstring(STACK_TOP - 2) == "hi"


class TestFlatHeap:
    """Arena mechanics: doubling growth, cell stability, guard-region
    traps and page snapshots."""

    def test_grow_cell_clamps_to_reserved_range(self):
        reserve = 3 * PAGE_SIZE + 4
        cell = _make_cell(0x1000, 8, 0x1000 + reserve)
        cell[0][:8] = b"ABCDEFGH"
        _grow_cell(cell, 40)
        # the doubling seed exceeds the reservation: clamped to it,
        # rounded up to a whole double word
        assert len(cell[0]) == (reserve + 7) & ~7
        assert cell[0][:8] == b"ABCDEFGH"
        if NATIVE_LE:
            assert len(cell[1]) == len(cell[0]) // 4
            assert cell[1][0] == int.from_bytes(b"ABCD", "little")
        _grow_cell(cell, 1 << 20)
        assert len(cell[0]) == (reserve + 7) & ~7
        _grow_cell(cell, 16)                   # never shrinks
        assert len(cell[0]) == (reserve + 7) & ~7

    def test_sbrk_growth_across_a_doubling(self):
        mem = make()
        initial_cap = len(mem.heap_cell[0])
        mem.sbrk(64)
        mem.write(HEAP_BASE, 4, 0xDEADBEEF)
        mem.write(HEAP_BASE + 60, 4, 0x12345678)
        # force at least one capacity doubling
        increment = initial_cap * 2
        old = mem.sbrk(increment)
        assert old == HEAP_BASE + 64
        assert len(mem.heap_cell[0]) >= 64 + increment
        # old contents survive the buffer swap...
        assert mem.read(HEAP_BASE, 4) == 0xDEADBEEF
        assert mem.read(HEAP_BASE + 60, 4) == 0x12345678
        # ...new space reads zero and is writable to the new break
        top = HEAP_BASE + 64 + increment - 4
        assert mem.read(top, 4) == 0
        mem.write(top, 4, 0xCAFEF00D)
        assert mem.read(top, 4) == 0xCAFEF00D
        with pytest.raises(MemoryFault):
            mem.read(top + 4, 4)

    def test_heap_cell_stable_across_growth(self):
        """Engines bind the cell once; growth must not orphan it."""
        mem = make()
        cell = mem.heap_cell
        mem.sbrk(32)
        mem.write(HEAP_BASE, 4, 41)
        mem.sbrk(len(mem.heap_cell[0]) * 4)      # forces a doubling
        assert mem.heap_cell is cell
        if cell[1] is not None:
            assert cell[1][0] == 41              # word view re-cast
        mem.write(HEAP_BASE, 4, 42)
        assert int.from_bytes(cell[0][0:4], "little") == 42

    def test_sbrk_into_stack_reservation_traps(self):
        """Heap and stack are separate arenas, so a break that would
        cross ``STACK_BASE`` traps; the break is unchanged."""
        mem = make()
        with pytest.raises(MemoryFault) as exc:
            mem.sbrk(STACK_BASE - HEAP_BASE + 4)
        assert exc.value.access == "sbrk"
        assert mem.brk == HEAP_BASE
        assert mem.sbrk(64) == HEAP_BASE     # normal growth unaffected

    def test_sbrk_shrink_keeps_bytes(self):
        """Shrink + regrow re-exposes the old data."""
        mem = make()
        mem.sbrk(64)
        mem.write(HEAP_BASE + 32, 4, 99)
        mem.sbrk(-64)
        with pytest.raises(MemoryFault):
            mem.read(HEAP_BASE + 32, 4)
        mem.sbrk(64)
        assert mem.read(HEAP_BASE + 32, 4) == 99

    @pytest.mark.parametrize("addr,access", [
        (0x0, "read"),                           # null guard
        (0xFFC, "write"),                        # null guard, last word
        (HEAP_BASE - 4, "read"),                 # globals/heap gap
        (HEAP_BASE, "write"),                    # heap before any sbrk
        (STACK_BASE - 4, "write"),               # below the stack
        (STACK_TOP, "read"),                     # above the stack
    ])
    def test_guard_region_traps_match_paged_model(self, addr, access):
        """Same trap type, message, addr and access as the old store."""
        mem = make(b"\x00" * 8)
        with pytest.raises(MemoryFault) as exc:
            if access == "read":
                mem.read(addr, 4)
            else:
                mem.write(addr, 4, 1)
        assert exc.value.addr == addr
        assert exc.value.access == access
        assert str(exc.value) == (
            "memory fault: %s of unmapped 0x%08x" % (access, addr))

    def test_unaligned_word_in_each_segment(self):
        """Unaligned checked words round-trip in every arena."""
        mem = make(b"\x00" * 64)
        mem.sbrk(64)
        for base in (GLOBAL_BASE, HEAP_BASE, STACK_TOP - 64):
            for off in (1, 2, 3):
                mem.write(base + off, 4, 0xA1B2C3D4 + off)
                assert mem.read(base + off, 4) == 0xA1B2C3D4 + off

    def test_nonzero_pages_snapshot(self):
        mem = make(b"\x01\x00\x02")
        mem.sbrk(16)
        mem.write(HEAP_BASE + 8, 4, 5)
        pages = mem.nonzero_pages()
        assert pages[GLOBAL_BASE >> 12][0] == 1
        assert pages[HEAP_BASE >> 12][8] == 5
        for page in pages.values():
            assert len(page) == PAGE_SIZE
        assert pages == reference_scan(mem)

        # a page whose only non-zero byte is its last one
        last = STACK_BASE + 2 * PAGE_SIZE - 1
        mem.write(last, 1, 0x80)
        # a page written non-zero and then zeroed again
        mem.write(STACK_BASE + 5 * PAGE_SIZE, 4, 0xFFFFFFFF)
        mem.write(STACK_BASE + 5 * PAGE_SIZE, 4, 0)
        pages = mem.nonzero_pages()
        assert pages[last >> 12][-1] == 0x80
        assert not any(pages[last >> 12][:-1])
        assert (STACK_BASE >> 12) + 5 not in pages
        assert pages == reference_scan(mem)

        # a heap grown past one doubling, with non-zero bytes on the
        # last page of its break and past a shrunken break
        mem = make()
        seed = len(mem.heap_cell[0])
        mem.sbrk(seed + PAGE_SIZE)
        assert len(mem.heap_cell[0]) >= 2 * seed
        mem.write(mem.brk - 1, 1, 0x33)
        stale = mem.brk - 2 * PAGE_SIZE
        mem.write(stale, 4, 0x44556677)
        mem.sbrk(-3 * PAGE_SIZE)
        pages = mem.nonzero_pages()
        assert pages[(HEAP_BASE + seed + PAGE_SIZE - 1) >> 12][-1] == 0x33
        assert pages[stale >> 12][stale % PAGE_SIZE] == 0x77
        assert pages == reference_scan(mem)

    def test_nonzero_pages_pads_a_partial_last_page(self):
        mem = make()
        cell = mem.globals_cell
        cell[0] = bytearray(PAGE_SIZE + 8)     # a synthetic short buffer
        cell[0][PAGE_SIZE + 3] = 0x5A
        pages = mem.nonzero_pages()
        page = pages[(GLOBAL_BASE >> 12) + 1]
        assert len(page) == PAGE_SIZE
        assert page[3] == 0x5A and not any(page[4:])
        assert (GLOBAL_BASE >> 12) not in pages
