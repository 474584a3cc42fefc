"""Flat-bytearray memory: mapping discipline, raw access, segments.

The mapping-discipline and raw-access semantics are those of the
original sparse paged store; the flat-heap cases at the bottom pin
the arena mechanics (doubling growth, cell stability, old-page-
boundary spans, guard-region traps) to the same observable
behaviour.
"""

import pytest
from hypothesis import given, strategies as st

from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    PAGE_SIZE,
    STACK_TOP,
)
from repro.machine import Memory, MemoryFault

STACK_SIZE = 0x10000


def make(image=b""):
    mem = Memory(STACK_SIZE)
    mem.load_image(image)
    return mem


def any_scan(mem):
    """Reference snapshot: every mapped page read back through
    raw_read_bytes and kept when ``any()`` of its bytes is set."""
    out = {}
    for no in mem.mapped_pages():
        page = mem.raw_read_bytes(no * PAGE_SIZE, PAGE_SIZE)
        if any(page):
            out[no] = page
    return out


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
        mem.write(STACK_TOP - STACK_SIZE, 4, 2)
        with pytest.raises(MemoryFault):
            mem.write(STACK_TOP - STACK_SIZE - 4, 4, 3)

    def test_access_straddling_segment_end_faults(self):
        mem = make(b"\x00" * 6)
        with pytest.raises(MemoryFault):
            mem.read(GLOBAL_BASE + 4, 4)   # last 2 bytes unmapped

    def test_segments_reporting(self):
        mem = make(b"xy")
        segs = mem.segments()
        assert segs[0] == (GLOBAL_BASE, GLOBAL_BASE + 2)
        assert segs[1] == (HEAP_BASE, HEAP_BASE)
        assert segs[2] == (STACK_TOP - STACK_SIZE, STACK_TOP)


class TestRawAccess:
    def test_little_endian(self):
        mem = make()
        mem.raw_write(0x5000, 4, 0x11223344)
        assert mem.raw_read(0x5000, 1) == 0x44
        assert mem.raw_read(0x5001, 1) == 0x33
        assert mem.raw_read(0x5002, 2) == 0x1122

    def test_cross_page_access(self):
        mem = make()
        addr = 0x6000 - 2   # straddles a page boundary
        mem.raw_write(addr, 4, 0xAABBCCDD)
        assert mem.raw_read(addr, 4) == 0xAABBCCDD

    def test_unmapped_reads_zero(self):
        mem = make()
        assert mem.raw_read(0x123456, 4) == 0

    def test_bulk_bytes(self):
        mem = make()
        blob = bytes(range(200))
        mem.raw_write_bytes(0x7F00, blob)   # crosses a page
        assert mem.raw_read_bytes(0x7F00, 200) == blob

    def test_write_masks_to_size(self):
        mem = make()
        mem.raw_write(0x5000, 1, 0x1FF)
        assert mem.raw_read(0x5000, 1) == 0xFF
        assert mem.raw_read(0x5001, 1) == 0

    def test_read_cstring(self):
        mem = make()
        mem.raw_write_bytes(0x5000, b"hello\0world")
        assert mem.read_cstring(0x5000) == "hello"


@given(addr=st.integers(0x5000, 0x9000),
       size=st.sampled_from([1, 2, 4]),
       value=st.integers(0, 0xFFFFFFFF))
def test_raw_roundtrip(addr, size, value):
    mem = make()
    mem.raw_write(addr, size, value)
    assert mem.raw_read(addr, size) == value & ((1 << (8 * size)) - 1)


@given(writes=st.lists(
    st.tuples(st.integers(0, PAGE_SIZE * 3 - 1), st.integers(0, 255)),
    max_size=100))
def test_byte_writes_match_dict_model(writes):
    mem = make()
    model = {}
    base = 0x8000
    for offset, value in writes:
        mem.raw_write(base + offset, 1, value)
        model[offset] = value
    for offset, value in model.items():
        assert mem.raw_read(base + offset, 1) == value


class TestFlatHeap:
    """Flat-arena edge cases: the behaviours the paged store gave for
    free and the flat store must preserve."""

    def test_bulk_bytes_span_old_page_boundaries(self):
        """raw_*_bytes across 4KB boundaries inside each arena."""
        mem = make(b"\x00" * (PAGE_SIZE * 2))
        blob = bytes((7 * i) & 0xFF for i in range(PAGE_SIZE + 64))
        # globals arena, straddling the first page boundary
        mem.raw_write_bytes(GLOBAL_BASE + PAGE_SIZE - 32, blob)
        assert mem.raw_read_bytes(GLOBAL_BASE + PAGE_SIZE - 32,
                                  len(blob)) == blob
        # heap arena
        mem.sbrk(PAGE_SIZE * 3)
        mem.raw_write_bytes(HEAP_BASE + PAGE_SIZE - 100, blob)
        assert mem.raw_read_bytes(HEAP_BASE + PAGE_SIZE - 100,
                                  len(blob)) == blob
        # stack arena
        stack_addr = STACK_TOP - STACK_SIZE + PAGE_SIZE - 8
        mem.raw_write_bytes(stack_addr, blob)
        assert mem.raw_read_bytes(stack_addr, len(blob)) == blob

    def test_bulk_bytes_span_arena_and_fallback(self):
        """A range crossing from the null-guard gap into globals."""
        blob = bytes(range(200))
        mem = make(b"\x00" * 256)
        mem.raw_write_bytes(GLOBAL_BASE - 100, blob)
        assert mem.raw_read_bytes(GLOBAL_BASE - 100, len(blob)) == blob

    def test_raw_read_spanning_segment_boundaries(self):
        """A raw word straddling two arenas is assembled from both,
        even when alignment padding (or an overshooting doubling)
        leaves spare capacity past the reserved range."""
        mem = make()
        # fill the globals arena right up to its reserved range so
        # its capacity reaches the heap boundary
        mem.raw_write_bytes(HEAP_BASE - 1, b"\x00")
        mem.raw_write(HEAP_BASE, 1, 0xAB)
        assert mem.raw_read(HEAP_BASE - 2, 4) == 0xAB0000
        # capacity never claims the next segment's address space
        assert len(mem.globals_cell[0]) <= \
            ((HEAP_BASE - GLOBAL_BASE + 7) & ~7)
        # same at the top of the stack (fallback pages above it)
        mem.raw_write(STACK_TOP, 1, 0xCD)
        assert mem.raw_read(STACK_TOP - 2, 4) == 0xCD0000

    def test_unaligned_stack_base_snapshot(self):
        """A page straddling the fallback/stack boundary (non-page-
        aligned stack_size) is assembled from both stores."""
        mem = Memory(0x10001)
        sb = mem.stack_base
        assert sb % PAGE_SIZE != 0
        mem.raw_write(sb, 1, 0x11)          # stack arena byte
        mem.raw_write(sb - 1, 1, 0x22)      # fallback byte, same page
        page = mem.nonzero_pages()[sb >> 12]
        assert page[sb % PAGE_SIZE] == 0x11
        assert page[(sb - 1) % PAGE_SIZE] == 0x22

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
        """Split arenas cannot alias heap and stack storage the way
        the unified page store did, so crossing stack_base traps
        instead of silently overlapping; the break is unchanged."""
        mem = make()
        with pytest.raises(MemoryFault) as exc:
            mem.sbrk(STACK_TOP - STACK_SIZE - HEAP_BASE + 4)
        assert exc.value.access == "sbrk"
        assert mem.brk == HEAP_BASE
        assert mem.sbrk(64) == HEAP_BASE     # normal growth unaffected

    def test_sbrk_shrink_keeps_bytes(self):
        """Like persistent pages: shrink + regrow re-exposes data."""
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
        (STACK_TOP - STACK_SIZE - 4, "write"),   # below the stack
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
        """Unaligned checked words spill to raw_* and round-trip."""
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
        mem.raw_write(0x5000, 1, 9)              # fallback page
        pages = mem.nonzero_pages()
        assert pages[GLOBAL_BASE >> 12][0] == 1
        assert pages[HEAP_BASE >> 12][8] == 5
        assert pages[0x5][0] == 9
        for page in pages.values():
            assert len(page) == PAGE_SIZE
        assert pages == any_scan(mem)

        # a page whose only non-zero byte is its last one
        last = STACK_TOP - STACK_SIZE + 2 * PAGE_SIZE - 1
        mem.write(last, 1, 0x80)
        # a page written non-zero and then zeroed again
        mem.raw_write(0x7000, 4, 0xFFFFFFFF)
        mem.raw_write(0x7000, 4, 0)
        pages = mem.nonzero_pages()
        assert pages[last >> 12][-1] == 0x80
        assert not any(pages[last >> 12][:-1])
        assert 0x7 in mem.mapped_pages()
        assert 0x7 not in pages
        assert pages == any_scan(mem)

        # pages straddling the fallback/stack boundary
        # (the layout of test_unaligned_stack_base_snapshot)
        mem = Memory(0x10001)
        sb = mem.stack_base
        mem.raw_write(sb, 1, 0x11)
        mem.raw_write(sb - 1, 1, 0x22)
        assert mem.nonzero_pages() == any_scan(mem)
