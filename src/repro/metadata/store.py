"""Functional store for in-memory bounded-pointer metadata.

Exact semantics live here: a map from word address to ``(base, bound)``
for every pointer currently in memory.  The *timing* of the equivalent
hardware accesses — tag-space probes, shadow-space double-words — is
charged separately by the HardBound engine, which consults the active
:class:`~repro.metadata.encodings.Encoding` for geometry.  This split
keeps the simulator exact (no bit-packing bugs can corrupt semantics)
while still modelling every cache/TLB/page consequence of the encoding.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.layout import WORD


class MetadataStore:
    """Word-granular pointer metadata for the whole address space."""

    __slots__ = ("_meta",)

    def __init__(self):
        self._meta: Dict[int, Tuple[int, int]] = {}

    @staticmethod
    def _key(addr: int) -> int:
        return addr & ~(WORD - 1)

    def set_pointer(self, addr: int, base: int, bound: int) -> None:
        """Record that the word at ``addr`` holds a bounded pointer."""
        self._meta[self._key(addr)] = (base, bound)

    def clear(self, addr: int) -> None:
        """Record that the word at ``addr`` holds a non-pointer."""
        self._meta.pop(self._key(addr), None)

    def get(self, addr: int) -> Tuple[int, int]:
        """Metadata of the word at ``addr`` (``(0, 0)`` = non-pointer)."""
        return self._meta.get(self._key(addr), (0, 0))

    def lookup(self, addr: int) -> Optional[Tuple[int, int]]:
        """Metadata or ``None`` when the word is not a pointer."""
        return self._meta.get(self._key(addr))

    def is_pointer(self, addr: int) -> bool:
        return self._key(addr) in self._meta

    def pointer_count(self) -> int:
        """Number of pointer-tagged words currently in memory."""
        return len(self._meta)
