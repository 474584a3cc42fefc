"""The differential oracle: one program, every engine, diff everything.

Reuses the comparison contract of
``tests/machine/test_engine_differential.py`` — exit status, output,
instruction/µop/stall/cycle counters, HardBound and memory-system
statistics, final live memory image, and traps compared as
``(type, message, pc, icount, final pc)`` plus the same counters and
image at the trap or instruction limit — but packages it as a
library, so the fuzzer, the minimizer and the CLI can all consume
mismatches as data (:class:`Divergence`) instead of assertion text.

Two entry points:

* :func:`diff_engines` — one assembled program through all three
  engines under both memory models (``timing=False`` functional /
  ``timing=True`` cache+TLB, which also swaps the fast memory system
  in under the blocks engine);
* :func:`diff_minic` — one MiniC source, compiled with the peephole
  optimizer off and on; each binary goes through the three-engine
  diff, then the two binaries are compared against each other on the
  *observable* subset (exit, output, trap class, live heap/global
  pages — counters and stack residue legitimately differ between
  different instruction streams).

Each run is paid for once: the optimize-pair check and
:func:`fuzz_one`'s verdict read the legacy ``timing=False`` outcome
the diff already produced, so a program costs one run per engine ×
memory model (per binary, for MiniC).

Legacy is the independent spec; ``decoded`` and ``blocks`` run the
same instruction templates, one instruction or one block per
dispatch.  So the diff checks semantics (legacy vs the templates)
and fusion (decoded vs blocks) at once.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.assembler import assemble
from repro.layout import PAGE_SHIFT, STACK_BASE
from repro.machine.config import MachineConfig
from repro.machine.cpu import CPU
from repro.machine.errors import InstructionLimitExceeded, Trap
from repro.minic.driver import compile_program, mode_for_config

ENGINES = ("legacy", "decoded", "blocks")

#: first page of the stack region; pages at or above it hold dead
#: call residue and are excluded from optimize-pair comparisons
STACK_PAGE = STACK_BASE >> PAGE_SHIFT


@dataclasses.dataclass
class Outcome:
    """Everything observable about one run of one program."""

    status: str                     # "exit" | "trap" | "limit"
    output: str
    icount: int
    pc: int                         # final pc
    exit_code: Optional[int] = None
    uops: Optional[int] = None
    stall_cycles: Optional[int] = None
    cycles: Optional[int] = None
    setbound_uops: Optional[int] = None
    hb: Optional[dict] = None
    mem: Optional[dict] = None
    trap: Optional[Tuple[str, str, Optional[int]]] = None
    image: Optional[tuple] = None   # (nonzero_pages, brk, glob_limit)

    def key(self) -> tuple:
        """The cross-engine comparison tuple (order = field order)."""
        return (self.status, self.output, self.icount, self.pc,
                self.exit_code, self.uops, self.stall_cycles,
                self.cycles, self.setbound_uops, self.hb, self.mem,
                self.trap, self.image)

    _FIELDS = ("status", "output", "icount", "pc", "exit_code",
               "uops", "stall_cycles", "cycles", "setbound_uops",
               "hb_stats", "mem_stats", "trap", "memory_image")

    def diff_fields(self, other: "Outcome") -> List[str]:
        mine, theirs = self.key(), other.key()
        return [name for name, a, b in
                zip(self._FIELDS, mine, theirs) if a != b]

    def observable(self) -> tuple:
        """The optimize-invariant subset: exit/output/trap class and,
        at exit, live pages below the stack (dead stack residue and
        counters shift with the instruction stream, and the optimizer
        promises identical live memory only at exit)."""
        pages = None
        if self.status == "exit":
            nonzero, brk, glob = self.image
            pages = (tuple(sorted((p, bytes(d))
                                  for p, d in nonzero.items()
                                  if p < STACK_PAGE)), brk, glob)
        trap_kind = self.trap[0] if self.trap else None
        return (self.status, self.exit_code, self.output, trap_kind,
                pages)


@dataclasses.dataclass
class Divergence:
    """One observed mismatch (cross-engine or optimize)."""

    kind: str                       # "engine" | "optimize"
    engine: str
    timing: bool
    fields: List[str]
    detail: str = ""
    optimize: Optional[bool] = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __str__(self):
        where = "%s/timing=%s" % (self.engine, self.timing)
        if self.optimize is not None:
            where += "/optimize=%s" % self.optimize
        return "[%s] %s: %s %s" % (self.kind, where,
                                   ",".join(self.fields) or "-",
                                   self.detail)


def run_once(program, config: MachineConfig) -> Outcome:
    """Execute one program under one configuration, trap-safely.

    Every outcome, whether exit, trap or limit, is read off the CPU
    the same way, so a trap or a limit is compared on its counters and
    memory image too."""
    cpu = CPU(program, config)
    status, exit_code, trap = "exit", None, None
    try:
        exit_code = cpu.run().exit_code
    except Trap as exc:
        status, trap = "trap", (type(exc).__name__, str(exc), exc.pc)
    except InstructionLimitExceeded:
        status = "limit"
    uops = cpu.uop_count()
    mem = cpu.memsys.stats if cpu.memsys else None
    stalls = mem.total_stall_cycles() if mem else 0
    return Outcome(
        status=status, output="".join(cpu.output), icount=cpu.icount,
        pc=cpu.pc, exit_code=exit_code, uops=uops, stall_cycles=stalls,
        cycles=uops + stalls, setbound_uops=cpu.setbound_count,
        hb=cpu.hb.stats.as_dict() if cpu.hb else None,
        mem=mem.as_dict() if mem else None, trap=trap,
        image=(cpu.memory.nonzero_pages(), cpu.memory.brk,
               cpu.memory.globals_limit))


def diff_engines(program, config_kw: Optional[dict] = None,
                 timings: Tuple[bool, ...] = (False, True),
                 ) -> List[Divergence]:
    """All three engines × both memory models over one program.

    ``config_kw`` are :class:`MachineConfig` keywords shared by every
    run (mode, encoding, temporal, ...); ``engine``
    and ``timing`` are supplied by the sweep itself.
    """
    return _diff_engines(program, config_kw, timings)[0]


def _diff_engines(program, config_kw: Optional[dict],
                  timings: Tuple[bool, ...],
                  ) -> Tuple[List[Divergence], Optional[Outcome]]:
    """:func:`diff_engines`, plus the legacy ``timing=False`` outcome
    it produced (``None`` when ``timings`` lacks ``False``) — the run
    callers would otherwise repeat for a reference verdict."""
    config_kw = dict(config_kw or {})
    config_kw.pop("engine", None)
    config_kw.pop("timing", None)
    divergences: List[Divergence] = []
    functional = None
    for timing in timings:
        outcomes: Dict[str, Outcome] = {}
        for engine in ENGINES:
            config = MachineConfig(engine=engine, timing=timing,
                                   **config_kw)
            outcomes[engine] = run_once(program, config)
        base = outcomes["legacy"]
        if not timing:
            functional = base
        for engine in ENGINES[1:]:
            fields = base.diff_fields(outcomes[engine])
            if fields:
                divergences.append(Divergence(
                    "engine", engine, timing, fields,
                    "vs legacy: %s != %s"
                    % (_summ(outcomes[engine], fields),
                       _summ(base, fields))))
    return divergences, functional


def _summ(outcome: Outcome, fields: List[str]) -> str:
    pairs = []
    for name in fields[:3]:
        idx = Outcome._FIELDS.index(name)
        value = outcome.key()[idx]
        text = repr(value)
        if len(text) > 48:
            text = text[:45] + "..."
        pairs.append("%s=%s" % (name, text))
    return "{%s}" % ", ".join(pairs)


def diff_minic(source: str,
               config_kw: Optional[dict] = None,
               timings: Tuple[bool, ...] = (False, True),
               ) -> List[Divergence]:
    """Optimize-off and optimize-on binaries, each three-way diffed,
    then compared against each other on the observable subset."""
    return _diff_minic(source, config_kw, timings)[0]


def _diff_minic(source: str, config_kw: Optional[dict],
                timings: Tuple[bool, ...],
                ) -> Tuple[List[Divergence], Outcome]:
    """:func:`diff_minic`, plus the optimize-on binary's legacy
    ``timing=False`` outcome.

    The observable check reads each binary's functional outcome from
    that binary's own diff, and runs it only when ``timings`` lacks
    ``False``.
    """
    config_kw = dict(config_kw or {})
    probe = MachineConfig(engine="legacy", **config_kw)
    instrument = mode_for_config(probe)
    divergences: List[Divergence] = []
    observed = {}
    for optimize in (False, True):
        program = compile_program(source, mode=instrument,
                                  optimize=optimize)
        found, outcome = _diff_engines(program, config_kw, timings)
        for d in found:
            d.optimize = optimize
            divergences.append(d)
        if outcome is None:
            outcome = run_once(program, MachineConfig(
                engine="legacy", timing=False, **config_kw))
        observed[optimize] = outcome.observable()
    if observed[False] != observed[True]:
        divergences.append(Divergence(
            "optimize", "legacy", False,
            ["observable"],
            "optimized %r != unoptimized %r"
            % (observed[True][:4], observed[False][:4])))
    # the loop ends on the optimize-on binary
    return divergences, outcome


# --------------------------------------------------------------- fuzz_one

#: per-seed configuration draw: the generator's own rng picks one of
#: these, so coverage spreads across modes and encodings
_MODE_VARIANTS: Tuple[Tuple[Callable[..., MachineConfig], dict], ...]


def _variants():
    return (
        (MachineConfig.plain, {}),
        (MachineConfig.malloc_only, {}),
        (MachineConfig.hardbound, {"encoding": "uncompressed"}),
        (MachineConfig.hardbound, {"encoding": "extern4"}),
        (MachineConfig.hardbound, {"encoding": "intern4"}),
        (MachineConfig.hardbound, {"encoding": "intern11"}),
        (MachineConfig.hardbound, {"encoding": "intern11",
                                   "temporal": True}),
    )


def config_for_seed(seed: int, level: str) -> dict:
    """The :class:`MachineConfig` keywords one fuzz seed runs under.

    Deterministic in the seed (independent of ``REPRO_FUZZ_SEED``,
    which only overrides *program* generation).
    """
    import random
    rng = random.Random(seed * 2654435761 % (1 << 32))
    factory, kw = _variants()[rng.randrange(len(_variants()))]
    config = factory(timing=False, **kw)
    out = {"mode": config.mode, "encoding": config.encoding,
           "temporal": config.temporal}
    if level == "minic" and config.mode.value == "malloc-only":
        # minic instrumentation has no malloc-only flavour worth
        # fuzzing separately; fold into the full-safety draw
        out["mode"] = MachineConfig.hardbound().mode
    return out


@dataclasses.dataclass
class FuzzResult:
    """One seed's verdict, JSONL-serializable for the CLI shards."""

    seed: int
    level: str                      # "isa" | "minic"
    status: str                     # dominant outcome status
    trap: Optional[str]             # trap type name, if any
    divergences: List[Divergence]
    program: str
    config: dict

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict:
        return {
            "seed": self.seed, "level": self.level,
            "status": self.status, "trap": self.trap,
            "ok": self.ok,
            "divergences": [d.as_dict() for d in self.divergences],
            "config": {k: getattr(v, "value", v)
                       for k, v in self.config.items()},
        }


def fuzz_one(seed: int, level: str = "isa",
             timings: Tuple[bool, ...] = (False, True)) -> FuzzResult:
    """Generate the program for one seed and run the full oracle."""
    from repro.fuzz.isagen import generate_isa_program
    from repro.fuzz.minicgen import generate_minic_program

    config_kw = config_for_seed(seed, level)
    # the verdict is the legacy functional outcome the diff already
    # produced (for MiniC, of the default optimize-on binary)
    if level == "isa":
        text = generate_isa_program(seed)
        program = assemble(text)
        divergences, ref = _diff_engines(program, config_kw, timings)
        if ref is None:
            ref = run_once(program, MachineConfig(
                engine="legacy", timing=False, **config_kw))
    elif level == "minic":
        text = generate_minic_program(seed)
        divergences, ref = _diff_minic(text, config_kw, timings)
    else:
        raise ValueError("unknown fuzz level %r" % (level,))
    return FuzzResult(
        seed=seed, level=level, status=ref.status,
        trap=ref.trap[0] if ref.trap else None,
        divergences=divergences, program=text,
        config=config_kw)
