"""Machine and HardBound configuration."""

from __future__ import annotations

import dataclasses
import enum

#: Execution-engine names accepted by :attr:`MachineConfig.engine`.
ENGINE_DECODED = "decoded"
ENGINE_LEGACY = "legacy"
ENGINE_BLOCKS = "blocks"
ENGINES = (ENGINE_DECODED, ENGINE_LEGACY, ENGINE_BLOCKS)


class SafetyMode(enum.Enum):
    """How much HardBound checking the core performs.

    ``OFF``
        Plain core: no metadata, no checks (the uninstrumented
        baseline binaries of Section 5.4).
    ``MALLOC_ONLY``
        Bounds are checked only when present; dereferencing a register
        without metadata is permitted unchecked (footnote 2: legacy
        binaries with an instrumented ``malloc``).
    ``FULL``
        Compiler-instrumented binaries: every dereference must go
        through a bounded pointer, and dereferencing a non-pointer
        raises an exception (Figure 3C/D).
    """

    OFF = "off"
    MALLOC_ONLY = "malloc-only"
    FULL = "full"


@dataclasses.dataclass
class MachineConfig:
    """All knobs of the simulated machine.

    Attributes mirror the experimental knobs of Section 5:

    ``encoding``
        Pointer-metadata encoding name: ``"uncompressed"``,
        ``"extern4"``, ``"intern4"`` or ``"intern11"``.  Ignored when
        ``mode`` is ``OFF``.
    ``check_uop``
        Section 5.4 ablation: the bounds check of an uncompressed
        pointer consumes an explicit extra µop instead of running on a
        dedicated parallel ALU.
    ``check_access_extent``
        Extension (not paper behaviour): also require ``ea + size <=
        bound`` rather than the paper's ``ea < bound``.  Default off to
        match Figure 2 semantics exactly.
    ``timing``
        Whether to run the cache/TLB timing model.  Functional tests
        turn it off for speed.
    ``engine``
        Execution engine: ``"blocks"`` (default) fuses straight-line
        runs of the instruction templates into basic-block
        superinstructions and pairs with the fast memory-timing model
        (:class:`~repro.caches.fast.FastMemorySystem`).
        ``"decoded"`` runs the same templates one instruction per
        dispatch on the same run loop (an empty fusion plan), with
        the classic model; ``"legacy"`` is the
        original per-instruction dispatch loop, the independent
        executable spec both are tested against.  All three produce
        bit-identical :class:`~repro.machine.cpu.RunResult`
        statistics.
    ``obs_events``
        Opt-in structured event tracing (off by default, and free
        when off).  A path string makes the run append its JSONL
        event stream — run manifest, statistics, phase times — to
        that file (one atomic write at run end, so concurrent
        harness workers can share a file); an
        :class:`~repro.obs.events.EventLog` instance records into
        that shared in-memory log instead, leaving flushing to the
        caller.  Render the file with ``python -m repro.obs.report``.
    ``obs_label``
        Free-form label stamped into the run manifest (the harness
        sets the workload name); purely cosmetic, never part of any
        result or cache key.
    ``retain_cpu``
        Keep a strong reference to the :class:`~repro.machine.cpu.CPU`
        on the returned :class:`~repro.machine.cpu.RunResult` so its
        memory image and caches stay inspectable after the run.  Off
        by default so long matrix sweeps don't pin whole machine
        states; without it ``RunResult.cpu`` only works while the CPU
        is otherwise alive.
    """

    mode: SafetyMode = SafetyMode.OFF
    encoding: str = "uncompressed"
    check_uop: bool = False
    check_access_extent: bool = False
    timing: bool = True
    engine: str = ENGINE_BLOCKS
    obs_events: object = None
    obs_label: str = ""
    retain_cpu: bool = False
    max_instructions: int = 200_000_000
    #: Section 6.2 temporal extension: track freed heap words via the
    #: ``markfree`` hint and trap use-after-free / double-free.
    temporal: bool = False
    #: Optional metadata-engine factory with the signature
    #: ``(encoding, memsys, check_uop, check_access_extent) -> engine``;
    #: the software-checking baselines substitute a cost-model engine
    #: here (see repro.baselines.fatptr).
    engine_factory: object = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError("unknown engine %r (have: %s)"
                             % (self.engine, ", ".join(ENGINES)))

    @classmethod
    def plain(cls, **kw) -> "MachineConfig":
        """Uninstrumented baseline core."""
        return cls(mode=SafetyMode.OFF, **kw)

    @classmethod
    def hardbound(cls, encoding: str = "intern11", **kw) -> "MachineConfig":
        """Full-safety HardBound core with the given encoding."""
        return cls(mode=SafetyMode.FULL, encoding=encoding, **kw)

    @classmethod
    def malloc_only(cls, encoding: str = "intern11",
                    **kw) -> "MachineConfig":
        """Legacy-binary mode: heap bounds only."""
        return cls(mode=SafetyMode.MALLOC_ONLY, encoding=encoding, **kw)
