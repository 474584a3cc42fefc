"""Compressed bounded-pointer encodings.

The paper's key efficiency idea (Section 4.3): most C pointers point
at the *start* of a *small* object, so their ``{base; bound}`` can be
encoded in a few bits instead of two shadow words.  Three schemes are
evaluated plus the uncompressed strawman:

``extern4``
    4 tag bits per word (tag space at ``TAG4_BASE``, 8KB tag cache).
    Tag values 1..14 encode ``base == ptr`` and ``bound - base ==
    tag*4`` (object sizes 4..56 bytes, multiples of 4); tag 15 marks a
    non-compressed pointer whose metadata lives in the shadow space.

``intern4``
    1 tag bit per word (2KB tag cache); 4 bits are stolen from inside
    the pointer itself, so only pointers in the lowest/highest 128MB
    of the address space are eligible.  Encodes the same object sizes
    as ``extern4``.

``intern11``
    1 tag bit per word; 11 internal bits, the 64-bit-oriented variant.
    Encodes ``base == ptr`` and sizes up to ``4 * 2**11`` bytes.

``uncompressed``
    1 tag bit per word; every pointer's metadata is in the shadow
    space.  (Functional reference; not one of Figure 5's bars.)

Compression is *transparent*: it never changes program-visible
semantics, only which metadata accesses (and hence µops, cache traffic
and pages) the hardware performs.  The simulator therefore keeps exact
functional metadata elsewhere and consults the encoding purely for
classification and metadata-space geometry.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.layout import tag1_addr, tag4_addr

#: 128MB: the internal schemes steal upper pointer bits, so pointers
#: into the top/bottom 128MB windows of the 32-bit space are the only
#: compressible ones (Section 4.3).
_INTERNAL_WINDOW = 128 * 1024 * 1024


class Encoding:
    """Strategy interface for pointer-metadata encodings."""

    #: registry name
    name = "abstract"
    #: bits of tag metadata per 32-bit word (1 or 4)
    tag_bits = 1
    #: recommended tag metadata cache size (Section 5.1)
    tag_cache_size = 2 * 1024

    def is_compressible(self, value: int, base: int, bound: int) -> bool:
        """True if {value; base; bound} fits the compressed form."""
        raise NotImplementedError

    def tag_addr(self, addr: int) -> int:
        """Tag-space byte covering the data word at ``addr``."""
        return tag4_addr(addr) if self.tag_bits == 4 else tag1_addr(addr)

    def compressed_tag(self, value: int, base: int, bound: int) -> int:
        """Tag-space encoding of a pointer (diagnostics/tests only).

        For 4-bit schemes: 0 = non-pointer, 1..14 = compressed size
        ``tag*4``, 15 = uncompressed.  For 1-bit schemes: 0/1.
        """
        if self.tag_bits == 1:
            return 1
        if self.is_compressible(value, base, bound):
            return (bound - base) // 4
        return 15

    def __repr__(self):
        return "<Encoding %s (%d tag bit%s)>" % (
            self.name, self.tag_bits, "s" if self.tag_bits > 1 else "")


def _small_object(value: int, base: int, bound: int) -> bool:
    """Shared extern4/intern4 rule: ptr==base, size in {4..56} mult of 4."""
    if value != base or bound <= base:
        return False
    size = bound - base
    return size % 4 == 0 and size <= 56


def _in_internal_window(value: int) -> bool:
    """Eligibility for internal bit-stealing on a 32-bit space."""
    return value < _INTERNAL_WINDOW or value >= (1 << 32) - _INTERNAL_WINDOW


class UncompressedEncoding(Encoding):
    """Every pointer keeps full shadow-space metadata."""

    name = "uncompressed"
    tag_bits = 1
    tag_cache_size = 2 * 1024

    def is_compressible(self, value, base, bound):
        return False


class External4Encoding(Encoding):
    """4 tag bits per word in a dedicated (larger) tag space."""

    name = "extern4"
    tag_bits = 4
    tag_cache_size = 8 * 1024

    def is_compressible(self, value, base, bound):
        return _small_object(value, base, bound)


class Internal4Encoding(Encoding):
    """4 bits stolen inside the pointer; 1-bit tag space."""

    name = "intern4"
    tag_bits = 1
    tag_cache_size = 2 * 1024

    def is_compressible(self, value, base, bound):
        return _small_object(value, base, bound) and \
            _in_internal_window(value)

    def compressed_tag(self, value, base, bound):
        return 1


class Internal11Encoding(Encoding):
    """11 internal bits: objects up to 4 * 2**11 = 8KB compress."""

    name = "intern11"
    tag_bits = 1
    tag_cache_size = 2 * 1024
    max_size = 4 << 11

    def is_compressible(self, value, base, bound):
        if value != base or bound <= base:
            return False
        size = bound - base
        if size % 4 or size > self.max_size:
            return False
        return _in_internal_window(value)

    def compressed_tag(self, value, base, bound):
        return 1


ENCODINGS: Dict[str, Type[Encoding]] = {
    cls.name: cls
    for cls in (UncompressedEncoding, External4Encoding,
                Internal4Encoding, Internal11Encoding)
}

#: top of the internal bit-stealing window (see ``_in_internal_window``)
_WINDOW_TOP = (1 << 32) - _INTERNAL_WINDOW


def inline_compressible_expr(encoding: Encoding, value: str,
                             base: str, bound: str):
    """Source-expression equivalent of ``encoding.is_compressible``.

    Returns a boolean Python expression over the three given variable
    names, with the same decision procedure as the stock encodings'
    ``is_compressible`` (no sub-calls, no method dispatch) — the
    blocks engine's fused metadata templates splice it straight
    into generated code.  Returns ``None`` for subclassed or unknown
    encodings (exact-type checks), so an override can never be
    silently bypassed.
    """
    cls = type(encoding)
    if cls is UncompressedEncoding:
        return "False"
    small = ("{v} == {b} and {bd} > {b} and ({bd} - {b}) % 4 == 0"
             " and {bd} - {b} <= 56").format(v=value, b=base, bd=bound)
    window = ("({v} < {lo} or {v} >= {hi})"
              .format(v=value, lo=_INTERNAL_WINDOW, hi=_WINDOW_TOP))
    if cls is External4Encoding:
        return "(%s)" % small
    if cls is Internal4Encoding:
        return "(%s and %s)" % (small, window)
    if cls is Internal11Encoding:
        return ("({v} == {b} and {bd} > {b} and ({bd} - {b}) % 4 == 0"
                " and {bd} - {b} <= {mx} and {w})"
                .format(v=value, b=base, bd=bound,
                        mx=Internal11Encoding.max_size, w=window))
    return None


def get_encoding(name: str) -> Encoding:
    """Instantiate an encoding by registry name."""
    try:
        return ENCODINGS[name]()
    except KeyError:
        raise ValueError("unknown encoding %r (have: %s)"
                         % (name, ", ".join(sorted(ENCODINGS))))
