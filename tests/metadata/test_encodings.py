"""Compressed-encoding rules of Sections 4.2-4.3."""

import pytest
from hypothesis import given, strategies as st

from repro.layout import TAG1_BASE, TAG4_BASE
from repro.metadata import (
    ENCODINGS,
    External4Encoding,
    Internal4Encoding,
    Internal11Encoding,
    UncompressedEncoding,
    get_encoding,
)

ptrs = st.integers(0, (1 << 32) - 1)
sizes = st.integers(1, 1 << 14)


def test_registry():
    assert set(ENCODINGS) == {"uncompressed", "extern4", "intern4",
                              "intern11"}
    for name in ENCODINGS:
        assert get_encoding(name).name == name
    with pytest.raises(ValueError, match="unknown encoding"):
        get_encoding("zlib")


def test_tag_geometry():
    e1 = get_encoding("intern4")
    e4 = get_encoding("extern4")
    assert e1.tag_bits == 1 and e1.tag_cache_size == 2 * 1024
    assert e4.tag_bits == 4 and e4.tag_cache_size == 8 * 1024
    # one tag byte covers 32 data bytes (1-bit) / 8 data bytes (4-bit)
    assert e1.tag_addr(0) == TAG1_BASE
    assert e1.tag_addr(31) == TAG1_BASE
    assert e1.tag_addr(32) == TAG1_BASE + 1
    assert e4.tag_addr(0) == TAG4_BASE
    assert e4.tag_addr(7) == TAG4_BASE
    assert e4.tag_addr(8) == TAG4_BASE + 1


class TestExternal4:
    enc = External4Encoding()

    def test_small_objects_compress(self):
        for size in range(4, 57, 4):
            assert self.enc.is_compressible(0x1000, 0x1000,
                                            0x1000 + size)

    def test_size_limits(self):
        assert not self.enc.is_compressible(0x1000, 0x1000, 0x1000 + 60)
        assert not self.enc.is_compressible(0x1000, 0x1000, 0x1000 + 6)

    def test_interior_pointer_not_compressible(self):
        assert not self.enc.is_compressible(0x1004, 0x1000, 0x1010)

    def test_tag_values(self):
        assert self.enc.compressed_tag(0x1000, 0x1000, 0x1000 + 8) == 2
        assert self.enc.compressed_tag(0x1000, 0x1000, 0x1000 + 56) == 14
        assert self.enc.compressed_tag(0x1004, 0x1000, 0x1010) == 15


class TestInternal4:
    enc = Internal4Encoding()

    def test_window_restriction(self):
        """Only the lowest/highest 128MB are eligible (Section 4.3)."""
        low = 0x0100_0000
        mid = 0x1000_0000
        high = 0xF900_0000
        assert self.enc.is_compressible(low, low, low + 8)
        assert not self.enc.is_compressible(mid, mid, mid + 8)
        assert self.enc.is_compressible(high, high, high + 8)

    @given(value=ptrs, size=sizes)
    def test_subset_of_external4(self, value, size):
        ext = External4Encoding()
        if self.enc.is_compressible(value, value, value + size):
            assert ext.is_compressible(value, value, value + size)


class TestInternal11:
    enc = Internal11Encoding()

    def test_larger_objects_compress(self):
        base = 0x0100_0000
        assert self.enc.is_compressible(base, base, base + 4096)
        assert self.enc.is_compressible(base, base, base + 8192)
        assert not self.enc.is_compressible(base, base, base + 8196)

    @given(value=ptrs, size=sizes)
    def test_superset_of_internal4(self, value, size):
        int4 = Internal4Encoding()
        if int4.is_compressible(value, value, value + size):
            assert self.enc.is_compressible(value, value, value + size)

    def test_interior_pointer_not_compressible(self):
        base = 0x0100_0000
        assert not self.enc.is_compressible(base + 4, base, base + 64)


@given(value=ptrs, base=ptrs, size=sizes)
def test_uncompressed_never_compresses(value, base, size):
    assert not UncompressedEncoding().is_compressible(
        value, base, base + size)


@given(value=ptrs, size=sizes)
def test_nonmultiple_of_four_never_compresses(value, size):
    if size % 4:
        for name in ("extern4", "intern4", "intern11"):
            assert not get_encoding(name).is_compressible(
                value, value, value + size)


class TestInlineCompressible:
    """The spliced compressibility expressions must agree with the
    methods everywhere, and a subclass's override must be honoured."""

    def test_matches_method_on_random_triples(self):
        import random

        from repro.metadata.encodings import inline_compressible_expr
        rng = random.Random(7)
        triples = []
        for _ in range(500):
            base = rng.randrange(1 << 32)
            size = rng.choice((0, 4, 8, 56, 60, 8192, 8196,
                               rng.randrange(1 << 16) & ~3 | rng.randrange(4)))
            value = rng.choice((base, base + 4, rng.randrange(1 << 32)))
            triples.append((value, base, (base + size) & 0xFFFFFFFF))
        # the window edges and zero-metadata cases
        triples += [(0, 0, 0), (0x07FFFFFC, 0x07FFFFFC, 0x08000000),
                    (0xF8000000, 0xF8000000, 0xF8000020)]
        for name in ENCODINGS:
            enc = get_encoding(name)
            expr = inline_compressible_expr(enc, "v", "b", "bd")
            assert expr is not None, name
            inline = eval("lambda v, b, bd: bool(%s)" % expr)
            for value, base, bound in triples:
                assert inline(value, base, bound) == \
                    enc.is_compressible(value, base, bound), \
                    (name, value, base, bound)

    def test_subclass_falls_back_to_method(self):
        """A subclassed encoding gets no inline expression, so both
        template engines call its ``is_compressible`` on every
        pointer store."""
        from repro.hardbound.engine import HardBoundEngine
        from repro.isa import assemble
        from repro.machine import CPU, MachineConfig
        from repro.metadata.encodings import inline_compressible_expr

        calls = []

        class Custom(Internal11Encoding):
            def is_compressible(self, value, base, bound):
                calls.append((value, base, bound))
                return False

        assert inline_compressible_expr(Custom(), "v", "b", "bd") is None

        def factory(encoding, memsys, check_uop, check_access_extent):
            return HardBoundEngine(Custom(), memsys, check_uop,
                                   check_access_extent)

        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 16
            store [r3], r3
            load r4, [r3]
            load r5, [r4 + 4]
            halt r5
        """)
        for engine in ("decoded", "blocks"):
            del calls[:]
            stock = CPU(program, MachineConfig.hardbound(
                timing=False, engine=engine))
            stock.run()
            assert stock.hb.stats.compressed_stores == 1, engine
            cpu = CPU(program, MachineConfig.hardbound(
                timing=False, engine=engine, engine_factory=factory))
            cpu.run()
            assert calls, engine
            assert cpu.hb.stats.pointer_stores == 1, engine
            assert cpu.hb.stats.compressed_stores == 0, engine
