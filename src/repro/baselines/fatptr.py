"""CCured-style software fat pointers as a cost-profile engine.

CCured (Section 2.3) enforces the same per-pointer bounds HardBound
does, but in software: every SEQ-pointer dereference executes explicit
compare-and-branch instructions, and every pointer that crosses memory
drags its base/bound words along with ordinary loads and stores.
Rather than re-implementing fat-pointer code generation, we run the
*same instrumented binary* on a core whose metadata engine charges the
software costs (the functional semantics are identical — both schemes
track exactly the per-pointer bounds):

* every bounds check costs :data:`CHECK_UOPS` explicit µops (two
  compares and a branch, CCured's ``CHECK_SEQ``);
* every pointer load/store moves two extra metadata words through the
  regular cache hierarchy: the fat pointer's inline base/bound, charged
  as the double word adjacent to the pointer (``addr + WORD``);
* every ``setbound`` costs :data:`SETBOUND_EXTRA_UOPS` extra µops to
  materialize the metadata in software registers;
* there is no tag space and no hardware compression — pointer-ness is
  static type information in CCured.

This reproduces Figure 7's "CCured simulator µops / runtime" columns:
a large instruction overhead that an in-order core cannot hide.
"""

from __future__ import annotations

from repro.hardbound.engine import HardBoundEngine
from repro.layout import WORD
from repro.machine.config import MachineConfig, SafetyMode
from repro.metadata.encodings import Encoding

#: explicit compare/compare/branch per checked SEQ dereference
CHECK_UOPS = 3
#: null test per SAFE dereference (CCured checks SAFE pointers for
#: null; the compiler folds some of these, hence a single µop)
NULL_CHECK_UOPS = 1
#: extra µops (and words moved) per fat-pointer load or store
META_WORDS = 2
#: software cost of creating bounds metadata
SETBOUND_EXTRA_UOPS = 1
#: CCured's whole-program type inference proves most pointers SAFE
#: (no arithmetic, no casts): they carry no fat metadata and need only
#: the null test above.  SEQ pointers pay the full software cost.  We
#: model the inference with a deterministic fraction of dynamic
#: pointer events treated as SAFE.
SAFE_FRACTION = 0.6


class SoftBoundEngine(HardBoundEngine):
    """Charges software-checking costs instead of hardware ones."""

    def __init__(self, encoding: Encoding, memsys=None,
                 check_uop: bool = False,
                 check_access_extent: bool = False,
                 safe_fraction: float = SAFE_FRACTION):
        # encodings are meaningless in software: nothing compresses
        super().__init__(encoding, memsys, check_uop=False,
                         check_access_extent=check_access_extent)
        self.safe_fraction = safe_fraction
        self._check_accum = 0.0
        self._meta_accum = 0.0

    def _is_seq(self, accum_name: str) -> bool:
        """Deterministic SAFE/SEQ classification at the given rate."""
        accum = getattr(self, accum_name) + self.safe_fraction
        if accum >= 1.0:
            setattr(self, accum_name, accum - 1.0)
            return False
        setattr(self, accum_name, accum)
        return True

    # -- checking: explicit instructions for SEQ pointers ---------------------

    def check(self, value, base, bound, ea, size, access, full_mode):
        extra = super().check(value, base, bound, ea, size, access,
                              full_mode)
        if base or bound:
            cost = CHECK_UOPS if self._is_seq("_check_accum") \
                else NULL_CHECK_UOPS
            self.stats.check_uops += cost
            extra += cost
        return extra

    # -- metadata traffic: ordinary loads/stores, no tags ----------------------

    def _soft_table_access(self, addr: int, write: bool) -> None:
        """Fat-pointer metadata traffic.

        CCured's metadata is *inline* with the pointer (the two extra
        words of the fat pointer live adjacent in the same object), so
        the extra words usually share the pointer's cache line; we
        model them as an adjacent double-word access rather than a
        far-away table probe.
        """
        if self.memsys is not None:
            self.memsys.access(addr + WORD, 2 * WORD, write, "soft")

    def load_word_meta(self, addr, value):
        meta = self.meta.lookup(addr)
        if meta is None:
            return 0, 0
        self.stats.pointer_loads += 1
        if self._is_seq("_meta_accum"):
            self.stats.meta_uops += META_WORDS
            self._soft_table_access(addr, write=False)
        return meta

    def load_sub_meta(self, addr):
        return None  # no tag space to probe

    def store_word_meta(self, addr, value, base, bound):
        if base == 0 and bound == 0:
            self.meta.clear(addr)
            return
        self.meta.set_pointer(addr, base, bound)
        self.stats.pointer_stores += 1
        if self._is_seq("_meta_accum"):
            self.stats.meta_uops += META_WORDS
            self._soft_table_access(addr, write=True)

    def store_sub_meta(self, addr):
        self.meta.clear(addr)


def ccured_sim_config(timing: bool = True) -> MachineConfig:
    """Machine configuration for the CCured-simulation baseline.

    Runs the HardBound-instrumented binary with the software cost
    engine.  ``setbound`` µop surcharges are added post-run by the
    harness (SETBOUND_EXTRA_UOPS per executed setbound).
    """
    return MachineConfig(
        mode=SafetyMode.FULL,
        encoding="uncompressed",
        timing=timing,
        engine_factory=SoftBoundEngine,
    )
