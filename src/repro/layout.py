"""Virtual address-space layout shared by the whole simulator.

The layout mirrors Section 4.1 of the paper: program data lives in the
low half of the 32-bit space, the base/bound shadow space sits at a
constant offset (``shadow(a) = SHADOW_SPACE_BASE + a*2``), and the tag
metadata spaces hold 1 bit (or one nibble) per 32-bit word.  Keeping
all program-visible addresses below ``2**31`` lets signed comparisons
in compiled code behave like C on a conventional 32-bit target.
"""

from __future__ import annotations

WORD = 4
MASK32 = 0xFFFFFFFF
MAXINT = 0xFFFFFFFF
PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Addresses below this trap (null-pointer dereference protection).
NULL_GUARD = 0x0000_1000

#: Start of the initialized globals segment (.data).
GLOBAL_BASE = 0x0001_0000

#: Start of the heap; ``sbrk`` grows it upward.
HEAP_BASE = 0x0100_0000

#: Stack top; the stack grows downward from here.
STACK_TOP = 0x0800_0000

#: Bottom of the fixed 1 MB stack reservation ``[STACK_BASE, STACK_TOP)``.
STACK_BASE = STACK_TOP - 0x0010_0000

#: Base of the interleaved base/bound shadow space (Section 4.1):
#: ``base(a)  = SHADOW_SPACE_BASE + a*2``
#: ``bound(a) = SHADOW_SPACE_BASE + a*2 + 4``
SHADOW_SPACE_BASE = 0x4000_0000

#: 1-bit-per-word pointer/non-pointer tag space (Section 4.2).
TAG1_BASE = 0x8000_0000

#: 4-bit-per-word external compressed tag space (Section 4.3).
TAG4_BASE = 0x9000_0000


def shadow_base_addr(addr: int) -> int:
    """Shadow address holding the *base* word for data word ``addr``."""
    return SHADOW_SPACE_BASE + (addr & ~(WORD - 1)) * 2


def shadow_bound_addr(addr: int) -> int:
    """Shadow address holding the *bound* word for data word ``addr``."""
    return shadow_base_addr(addr) + WORD


#: one tag bit per 4-byte word: one tag byte covers 32 bytes of data
TAG1_SHIFT = 5

#: one tag nibble per word: one tag byte covers 8 bytes of data
TAG4_SHIFT = 3


def tag1_addr(addr: int) -> int:
    """Byte address in the 1-bit tag space covering data word ``addr``.

    One tag bit per 4-byte word means one tag byte covers 32 bytes of
    data (the paper's "1 bit per 32-bit word is 3%" footprint).
    """
    return TAG1_BASE + (addr >> TAG1_SHIFT)


def tag4_addr(addr: int) -> int:
    """Byte address in the 4-bit tag space covering data word ``addr``.

    One nibble per word: one tag byte covers 8 bytes of data.
    """
    return TAG4_BASE + (addr >> TAG4_SHIFT)


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as signed."""
    value &= MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def to_unsigned(value: int) -> int:
    """Wrap an arbitrary Python int to 32-bit unsigned."""
    return value & MASK32
