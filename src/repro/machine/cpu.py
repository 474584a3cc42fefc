"""In-order core executing one micro-operation per cycle.

The core implements the paper's simulated processor (Section 5.1):

* one µop per cycle; each ISA instruction is one µop, and loads or
  stores of *uncompressed* bounded pointers insert one additional µop
  (charged by the :class:`~repro.hardbound.engine.HardBoundEngine`);
* bounds checks run on a dedicated parallel ALU and are free unless
  the ``check_uop`` ablation is enabled;
* register-to-register metadata propagation follows Figure 3A/B:
  ``mov``/``lea``/``add``/``sub`` propagate, everything else clears;
* memory operations perform the implicit check of Figure 3C/D through
  the metadata of the operand's pointer register.

Total runtime = µops executed + memory-system stall cycles.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.caches.fast import FastMemorySystem
from repro.caches.hierarchy import CacheParams, MemorySystem
from repro.hardbound.engine import HardBoundEngine
from repro.isa.opcodes import Op, REG_FP, REG_RA, REG_SP
from repro.isa.program import Program
from repro.layout import (
    MASK32,
    MAXINT,
    STACK_TOP,
    to_signed,
)
from repro.machine.config import (
    ENGINE_BLOCKS,
    ENGINE_DECODED,
    MachineConfig,
    SafetyMode,
)
from repro.machine.errors import (
    AbortError,
    DivideByZeroError,
    HaltSignal,
    InstructionLimitExceeded,
    InvalidCodePointerError,
    MemoryFault,
    Trap,
)
from repro.machine.memory import Memory
from repro.machine.registers import RegisterFile
from repro.metadata.encodings import get_encoding
from repro.obs.events import EventLog
from repro.obs.manifest import run_manifest
from repro.obs.metrics import PhaseTimers


class RunResult:
    """Outcome of a completed (halted) run.

    Only statistics snapshots are kept: a long matrix sweep holds many
    results, and pinning every CPU's memory image and caches through
    them bloats the sweep.  :attr:`cpu` therefore resolves through a
    weak reference by default; runs that want to inspect machine state
    afterwards opt in with ``MachineConfig(retain_cpu=True)``.
    """

    def __init__(self, cpu: "CPU", exit_code: int):
        self.exit_code = exit_code
        self.instructions = cpu.icount
        self.uops = cpu.uop_count()
        self.stall_cycles = (cpu.memsys.stats.total_stall_cycles()
                             if cpu.memsys else 0)
        self.cycles = self.uops + self.stall_cycles
        self.output = "".join(cpu.output)
        self.hb_stats = cpu.hb.stats if cpu.hb else None
        self.mem_stats = cpu.memsys.stats if cpu.memsys else None
        self.setbound_uops = cpu.setbound_count
        #: cumulative phase seconds ({"decode": ..., "execute": ...};
        #: see repro.obs.metrics.PhaseTimers for the phase contract)
        self.phases = cpu.timers.snapshot()
        #: run manifest: knobs, engine, cache geometry, git sha, host
        #: (repro.obs.manifest) — the provenance of every statistic
        self.manifest = cpu.manifest
        self._cpu_strong = cpu if cpu.config.retain_cpu else None
        self._cpu_weak = weakref.ref(cpu)

    @property
    def cpu(self) -> "CPU":
        """The CPU that produced this result, if still alive.

        Raises :class:`ReferenceError` once the CPU has been
        collected; configure the run with ``retain_cpu=True`` to keep
        it reachable through the result.
        """
        if self._cpu_strong is not None:
            return self._cpu_strong
        cpu = self._cpu_weak() if self._cpu_weak is not None else None
        if cpu is None:
            raise ReferenceError(
                "RunResult no longer references its CPU; run with "
                "MachineConfig(retain_cpu=True) to keep machine state "
                "inspectable after the run")
        return cpu

    def __getstate__(self):
        # weakrefs cannot be pickled; results travel between harness
        # worker processes as pure statistics snapshots.
        state = dict(self.__dict__)
        state["_cpu_strong"] = None
        state["_cpu_weak"] = None
        return state

    def __repr__(self):
        return ("RunResult(exit=%d, instrs=%d, uops=%d, cycles=%d)"
                % (self.exit_code, self.instructions, self.uops,
                   self.cycles))

    def summary(self) -> str:
        """Multi-line human-readable run report."""
        lines = [
            "exit code:     %d" % self.exit_code,
            "instructions:  %d" % self.instructions,
            "uops:          %d" % self.uops,
            "stall cycles:  %d" % self.stall_cycles,
            "total cycles:  %d" % self.cycles,
        ]
        if self.hb_stats is not None:
            stats = self.hb_stats
            lines += [
                "bounds checks: %d" % stats.checks,
                "setbounds:     %d" % stats.setbound_uops,
                "pointer ld/st: %d/%d (%.0f%% compressed)"
                % (stats.pointer_loads, stats.pointer_stores,
                   100 * stats.compression_ratio()),
            ]
        if self.mem_stats is not None:
            lines.append(
                "pages (data/tag/shadow): %d/%d/%d"
                % (self.mem_stats.distinct_pages("data"),
                   self.mem_stats.distinct_pages("tag"),
                   self.mem_stats.distinct_pages("shadow")))
        return "\n".join(lines)


class CPU:
    """The simulated core.

    Construct with a linked :class:`~repro.isa.program.Program` and a
    :class:`~repro.machine.config.MachineConfig`; call :meth:`run`.
    Traps propagate as exceptions; ``halt`` produces a
    :class:`RunResult`.
    """

    def __init__(self, program: Program, config: MachineConfig = None,
                 cache_params: CacheParams = None):
        self.program = program
        self.config = config or MachineConfig()
        self.regs = RegisterFile()
        self.memory = Memory()
        self.memory.load_image(program.data_image)
        self.output: List[str] = []
        self.icount = 0
        self.setbound_count = 0
        self.pc = program.entry

        #: per-run phase timers (decode / cfg_fusion /
        #: probe_compile / execute); snapshot travels on
        #: RunResult.phases
        self.timers = PhaseTimers()

        self.hb_enabled = self.config.mode is not SafetyMode.OFF
        self.full_mode = self.config.mode is SafetyMode.FULL
        encoding = get_encoding(self.config.encoding)
        if self.config.timing:
            params = cache_params or CacheParams()
            if cache_params is None:
                params.tag_cache_size = encoding.tag_cache_size
            # the block-fusion engine pairs with the fast timing
            # model; both models are counter-identical (tests/caches)
            memsys_cls = (FastMemorySystem
                          if self.config.engine == ENGINE_BLOCKS
                          else MemorySystem)
            # constructing the fast model compiles its per-geometry
            # drain (process-cached: later CPUs re-enter in
            # microseconds, the first pays the compile)
            t0 = perf_counter()
            self.memsys: Optional[MemorySystem] = memsys_cls(params)
            self.timers.add("probe_compile", perf_counter() - t0)
        else:
            self.memsys = None
        self.manifest = run_manifest(
            self.config, self.memsys.params if self.memsys else None)
        obs = self.config.obs_events
        if obs:
            #: opt-in event log; a path string means this CPU owns
            #: (and flushes) the log, an EventLog instance is shared
            #: and left to its owner
            self._obs_owned = not isinstance(obs, EventLog)
            self.obs: Optional[EventLog] = (
                EventLog(str(obs)) if self._obs_owned else obs)
        else:
            self.obs = None
            self._obs_owned = False
        if self.hb_enabled:
            factory = self.config.engine_factory or HardBoundEngine
            self.hb: Optional[HardBoundEngine] = factory(
                encoding, self.memsys, self.config.check_uop,
                self.config.check_access_extent)
        else:
            self.hb = None

        if self.config.temporal and self.hb_enabled:
            from repro.hardbound.temporal import TemporalTracker
            self.temporal: Optional[object] = TemporalTracker()
        else:
            self.temporal = None

        #: optional event observer for baseline cost models; methods:
        #: on_setbound(value, size), on_mem(ea, size, write),
        #: on_pointer_arith()
        self.observer = None
        #: set by instrumentation (e.g. Tracer) that wraps the legacy
        #: dispatch table and therefore needs the legacy run loop
        self.force_legacy = False
        #: fusers the blocks or decoded engine compiled during its
        #: run (first executions of shapes no earlier run compiled)
        #: and the generated source they took, in bytes (``None`` on
        #: the legacy engine)
        self.fuser_compiles: Optional[int] = None
        self.fuser_source_bytes: Optional[int] = None
        self._init_stack()
        self._dispatch = self._build_dispatch()

    def _init_stack(self) -> None:
        """Reset ``sp`` to the stack top.

        Like the paper's x86 target, the stack/frame pointers are not
        bounded pointers: frame-relative accesses are compiler-owned
        and statically safe (fixed offsets into the function's own
        frame), so they are exempt from the non-pointer check in
        :meth:`_mem_check`.  Pointers the program creates to stack
        objects are bounded by compiler-inserted ``setbound``.
        """
        self.regs.set(REG_SP, STACK_TOP)

    # -- accounting --------------------------------------------------------

    def uop_count(self) -> int:
        extra = self.hb.stats.extra_uops() if self.hb else 0
        return self.icount + extra

    # -- run loop -----------------------------------------------------------

    def run(self) -> RunResult:
        """Execute until ``halt``; traps raise annotated exceptions.

        Dispatches to the engine selected by ``config.engine``: the
        basic-block fusion engine (default) and the decoded engine
        (the same instruction templates, one instruction per
        dispatch) share :func:`repro.machine.blocks.execute_blocks`;
        ``legacy`` is the per-instruction dispatch loop.  All are
        bit-identical in results and trap behaviour.  With ``config.obs_events``
        set, the run's manifest, statistics and phase times are
        emitted as ``run_start``/``run_end`` (or ``run_abort``)
        events around the engine's own event stream.
        """
        obs = self.obs
        if obs is None:
            return self._dispatch_engine()
        obs.emit("run_start", manifest=self.manifest)
        try:
            result = self._dispatch_engine()
        except BaseException as exc:
            obs.emit("run_abort", error=type(exc).__name__,
                     message=str(exc), pc=self.pc,
                     instructions=self.icount,
                     phases=self.timers.snapshot())
            if self._obs_owned:
                obs.flush()
            raise
        obs.emit("run_end", exit_code=result.exit_code,
                 instructions=result.instructions, uops=result.uops,
                 stall_cycles=result.stall_cycles,
                 cycles=result.cycles, phases=result.phases)
        if self._obs_owned:
            obs.flush()
        return result

    def _dispatch_engine(self) -> RunResult:
        if not self.force_legacy and self.config.engine in (
                ENGINE_BLOCKS, ENGINE_DECODED):
            from repro.machine.blocks import execute_blocks
            return execute_blocks(self)
        return self._run_legacy()

    def _run_legacy(self) -> RunResult:
        """The original fetch/dispatch interpreter loop."""
        instrs = self.program.instrs
        dispatch = self._dispatch
        limit = self.config.max_instructions
        pc = self.pc
        n = len(instrs)
        t0 = perf_counter()
        timed = False
        try:
            while True:
                if pc >= n or pc < 0:
                    raise MemoryFault(pc, "fetch")
                instr = instrs[pc]
                self.pc = pc
                self.icount += 1
                if self.icount > limit:
                    raise InstructionLimitExceeded(limit)
                npc = dispatch[instr.op](instr)
                pc = pc + 1 if npc is None else npc
        except HaltSignal as halt:
            # the phase must land before RunResult snapshots it
            self.timers.add("execute", perf_counter() - t0)
            timed = True
            self.pc = pc
            return RunResult(self, halt.code)
        except Trap as trap:
            raise trap.at(self.pc)
        finally:
            if not timed:
                self.timers.add("execute", perf_counter() - t0)

    # -- helpers ---------------------------------------------------------

    def _operand2(self, instr) -> int:
        rt = instr.rt
        return self.regs.value[rt] if rt is not None else (instr.imm or 0)

    def _effective_address(self, instr) -> int:
        ea = instr.disp
        if instr.rs is not None:
            ea += self.regs.value[instr.rs]
        if instr.rt is not None:
            ea += self.regs.value[instr.rt] * instr.scale
        return ea & MASK32

    def _mem_pointer_reg(self, instr) -> Optional[int]:
        """Which operand register's metadata guards this access.

        x86-style: prefer the base register; fall back to the index
        register when only it carries bounds (Figure 3B preference
        order applied to memory operands).
        """
        rs, rt = instr.rs, instr.rt
        if rs is not None and (self.regs.base[rs] or self.regs.bound[rs]):
            return rs
        if rt is not None and (self.regs.base[rt] or self.regs.bound[rt]):
            return rt
        return rs if rs is not None else rt

    def _data_access(self, addr: int, size: int, write: bool) -> None:
        if self.memsys is not None:
            self.memsys.access(addr, size, write, "data")

    # -- ALU handlers ------------------------------------------------------

    def _op_mov(self, instr) -> None:
        regs = self.regs
        rd = instr.rd
        if instr.rs is not None:
            regs.value[rd] = regs.value[instr.rs]
            regs.base[rd] = regs.base[instr.rs]
            regs.bound[rd] = regs.bound[instr.rs]
        else:
            regs.value[rd] = (instr.imm or 0) & MASK32
            regs.base[rd] = 0
            regs.bound[rd] = 0

    def _op_xchg(self, instr) -> None:
        """Swap two registers, metadata included (Section 3.1)."""
        regs = self.regs
        rd, rs = instr.rd, instr.rs
        regs.value[rd], regs.value[rs] = regs.value[rs], regs.value[rd]
        regs.base[rd], regs.base[rs] = regs.base[rs], regs.base[rd]
        regs.bound[rd], regs.bound[rs] = \
            regs.bound[rs], regs.bound[rd]

    def _op_lea(self, instr) -> None:
        """lea computes an address and propagates pointer metadata."""
        regs = self.regs
        rd = instr.rd
        src = self._mem_pointer_reg(instr)
        ea = self._effective_address(instr)
        if src is not None:
            regs.base[rd] = regs.base[src]
            regs.bound[rd] = regs.bound[src]
        else:
            regs.base[rd] = 0
            regs.bound[rd] = 0
        regs.value[rd] = ea

    def _op_add(self, instr) -> None:
        regs = self.regs
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        value = (regs.value[rs] + self._operand2(instr)) & MASK32
        # Figure 3A/B: prefer the first input's bounds when present.
        if regs.base[rs] or regs.bound[rs]:
            base, bound = regs.base[rs], regs.bound[rs]
        elif rt is not None:
            base, bound = regs.base[rt], regs.bound[rt]
        else:
            base, bound = 0, 0
        regs.value[rd] = value
        regs.base[rd] = base
        regs.bound[rd] = bound
        if self.observer is not None and (base or bound):
            self.observer.on_pointer_arith(value)

    def _op_sub(self, instr) -> None:
        regs = self.regs
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        value = (regs.value[rs] - self._operand2(instr)) & MASK32
        if regs.base[rs] or regs.bound[rs]:
            base, bound = regs.base[rs], regs.bound[rs]
        elif rt is not None:
            base, bound = regs.base[rt], regs.bound[rt]
        else:
            base, bound = 0, 0
        regs.value[rd] = value
        regs.base[rd] = base
        regs.bound[rd] = bound
        if self.observer is not None and (base or bound):
            self.observer.on_pointer_arith(value)

    def _nonprop_binop(self, instr, fn: Callable[[int, int], int]) -> None:
        regs = self.regs
        rd = instr.rd
        regs.value[rd] = fn(regs.value[instr.rs],
                            self._operand2(instr)) & MASK32
        regs.base[rd] = 0
        regs.bound[rd] = 0

    def _op_mul(self, instr):
        self._nonprop_binop(instr, lambda a, b: to_signed(a) * to_signed(b))

    def _op_div(self, instr):
        def div(a, b):
            sa, sb = to_signed(a), to_signed(b)
            if sb == 0:
                raise DivideByZeroError()
            q = abs(sa) // abs(sb)
            return q if (sa < 0) == (sb < 0) else -q
        self._nonprop_binop(instr, div)

    def _op_mod(self, instr):
        def mod(a, b):
            sa, sb = to_signed(a), to_signed(b)
            if sb == 0:
                raise DivideByZeroError()
            r = abs(sa) % abs(sb)
            return r if sa >= 0 else -r
        self._nonprop_binop(instr, mod)

    def _op_and(self, instr):
        self._nonprop_binop(instr, lambda a, b: a & b)

    def _op_or(self, instr):
        self._nonprop_binop(instr, lambda a, b: a | b)

    def _op_xor(self, instr):
        self._nonprop_binop(instr, lambda a, b: a ^ b)

    def _op_shl(self, instr):
        self._nonprop_binop(instr, lambda a, b: a << (b & 31))

    def _op_shr(self, instr):
        self._nonprop_binop(instr, lambda a, b: a >> (b & 31))

    def _op_sra(self, instr):
        self._nonprop_binop(instr, lambda a, b: to_signed(a) >> (b & 31))

    def _op_neg(self, instr):
        regs = self.regs
        regs.value[instr.rd] = (-regs.value[instr.rs]) & MASK32
        regs.clear_meta(instr.rd)

    def _op_not(self, instr):
        regs = self.regs
        regs.value[instr.rd] = (~regs.value[instr.rs]) & MASK32
        regs.clear_meta(instr.rd)

    def _cmp(self, instr, fn: Callable[[int, int], bool],
             signed: bool = True) -> None:
        regs = self.regs
        a = regs.value[instr.rs]
        b = self._operand2(instr)
        if signed:
            a, b = to_signed(a), to_signed(b)
        regs.value[instr.rd] = 1 if fn(a, b) else 0
        regs.clear_meta(instr.rd)

    def _op_seq(self, instr):
        self._cmp(instr, lambda a, b: a == b)

    def _op_sne(self, instr):
        self._cmp(instr, lambda a, b: a != b)

    def _op_slt(self, instr):
        self._cmp(instr, lambda a, b: a < b)

    def _op_sle(self, instr):
        self._cmp(instr, lambda a, b: a <= b)

    def _op_sgt(self, instr):
        self._cmp(instr, lambda a, b: a > b)

    def _op_sge(self, instr):
        self._cmp(instr, lambda a, b: a >= b)

    def _op_sltu(self, instr):
        self._cmp(instr, lambda a, b: a < b, signed=False)

    def _op_sgeu(self, instr):
        self._cmp(instr, lambda a, b: a >= b, signed=False)

    # -- memory handlers ------------------------------------------------------

    def _mem_check(self, instr, ea: int, access: str) -> None:
        """Figure 3C/D check, with the frame-access exemption.

        Accesses whose only addressing register is the (unbounded)
        stack or frame pointer are compiler-owned direct accesses,
        like absolute addressing — the paper's compiler proves them
        safe statically and emits no bounded pointer for them.
        """
        regs = self.regs
        src = self._mem_pointer_reg(instr)
        if not (regs.base[src] or regs.bound[src]) and \
                instr.rs in (REG_SP, REG_FP):
            return
        self.hb.check(regs.value[src], regs.base[src],
                      regs.bound[src], ea, instr.size, access,
                      self.full_mode)

    def _op_load(self, instr) -> None:
        regs = self.regs
        ea = self._effective_address(instr)
        if self.hb is not None and instr.rs is not None:
            self._mem_check(instr, ea, "read")
        if self.temporal is not None:
            self.temporal.check(ea, instr.size)
        value = self.memory.read(ea, instr.size)
        self._data_access(ea, instr.size, write=False)
        if self.observer is not None:
            self.observer.on_mem(ea, instr.size, False)
        rd = instr.rd
        if self.hb is not None:
            if instr.size == 4:
                base, bound = self.hb.load_word_meta(ea, value)
            else:
                self.hb.load_sub_meta(ea)
                base, bound = 0, 0
            regs.value[rd] = value
            regs.base[rd] = base
            regs.bound[rd] = bound
        else:
            regs.value[rd] = value
            regs.base[rd] = 0
            regs.bound[rd] = 0

    def _op_store(self, instr) -> None:
        regs = self.regs
        ea = self._effective_address(instr)
        if self.hb is not None and instr.rs is not None:
            self._mem_check(instr, ea, "write")
        if self.temporal is not None:
            self.temporal.check(ea, instr.size)
        rd = instr.rd
        self.memory.write(ea, instr.size, regs.value[rd])
        self._data_access(ea, instr.size, write=True)
        if self.observer is not None:
            self.observer.on_mem(ea, instr.size, True)
        if self.hb is not None:
            if instr.size == 4:
                self.hb.store_word_meta(ea, regs.value[rd],
                                        regs.base[rd], regs.bound[rd])
            else:
                self.hb.store_sub_meta(ea)

    # -- control flow -----------------------------------------------------

    def _op_jmp(self, instr) -> int:
        return instr.target

    def _op_beqz(self, instr) -> Optional[int]:
        return instr.target if self.regs.value[instr.rs] == 0 else None

    def _op_bnez(self, instr) -> Optional[int]:
        return instr.target if self.regs.value[instr.rs] != 0 else None

    def _link(self) -> None:
        """Write the return address with code-pointer metadata."""
        self.regs.set(REG_RA, self.pc + 1, MAXINT, MAXINT)

    def _op_call(self, instr) -> int:
        self._link()
        return instr.target

    def _op_callr(self, instr) -> int:
        regs = self.regs
        rs = instr.rs
        target = regs.value[rs]
        if self.full_mode and not (regs.base[rs] == MAXINT
                                   and regs.bound[rs] == MAXINT):
            raise InvalidCodePointerError(target)
        if target >= len(self.program.instrs):
            raise InvalidCodePointerError(target)
        self._link()
        return target

    def _op_ret(self, instr) -> int:
        target = self.regs.value[REG_RA]
        if self.full_mode and not (self.regs.base[REG_RA] == MAXINT
                                   and self.regs.bound[REG_RA] == MAXINT):
            raise InvalidCodePointerError(target)
        if target >= len(self.program.instrs):
            raise InvalidCodePointerError(target)
        return target

    # -- HardBound primitives ------------------------------------------------

    def _op_setbound(self, instr) -> None:
        regs = self.regs
        value = regs.value[instr.rs]
        size = self._operand2(instr)
        regs.value[instr.rd] = value
        regs.base[instr.rd] = value
        regs.bound[instr.rd] = (value + size) & MASK32
        self.setbound_count += 1
        if self.hb is not None:
            self.hb.stats.setbound_uops += 1
        if self.temporal is not None:
            self.temporal.mark_allocated(value, (value + size) & MASK32)
        if self.observer is not None:
            self.observer.on_setbound(value, size)

    def _op_readbase(self, instr) -> None:
        regs = self.regs
        regs.value[instr.rd] = regs.base[instr.rs]
        regs.clear_meta(instr.rd)

    def _op_readbound(self, instr) -> None:
        regs = self.regs
        regs.value[instr.rd] = regs.bound[instr.rs]
        regs.clear_meta(instr.rd)

    def _op_setunsafe(self, instr) -> None:
        """Escape hatch (Section 3.2): base 0, bound MAXINT."""
        regs = self.regs
        regs.value[instr.rd] = regs.value[instr.rs]
        regs.base[instr.rd] = 0
        regs.bound[instr.rd] = MAXINT

    def _op_setcode(self, instr) -> None:
        """Mark a code pointer: base = bound = MAXINT (Section 6.1)."""
        regs = self.regs
        if instr.rs is not None:
            regs.value[instr.rd] = regs.value[instr.rs]
        else:
            regs.value[instr.rd] = instr.imm & MASK32
        regs.base[instr.rd] = MAXINT
        regs.bound[instr.rd] = MAXINT

    def _op_clrbnd(self, instr) -> None:
        regs = self.regs
        regs.value[instr.rd] = regs.value[instr.rs]
        regs.clear_meta(instr.rd)

    def _op_markfree(self, instr) -> None:
        """Deallocation hint: poison [rs.value, rs.value + size).

        A no-op unless the temporal extension is enabled — forward
        compatible in the same way as ``setbound`` (Section 4.5).
        """
        if self.temporal is not None:
            base = self.regs.value[instr.rs]
            size = self._operand2(instr)
            if size > 0:
                self.temporal.mark_freed(base, (base + size) & MASK32)

    # -- environment -----------------------------------------------------------

    def _op_sbrk(self, instr) -> None:
        regs = self.regs
        increment = to_signed(regs.value[instr.rs])
        old = self.memory.sbrk(increment)
        regs.value[instr.rd] = old
        regs.clear_meta(instr.rd)

    def _op_print(self, instr) -> None:
        self.output.append("%d\n" % to_signed(self.regs.value[instr.rs]))

    def _op_printc(self, instr) -> None:
        self.output.append(chr(self.regs.value[instr.rs] & 0xFF))

    def _op_prints(self, instr) -> None:
        self.output.append(
            self.memory.read_cstring(self.regs.value[instr.rs]))

    def _op_halt(self, instr) -> None:
        if instr.rs is not None:
            raise HaltSignal(to_signed(self.regs.value[instr.rs]))
        raise HaltSignal(instr.imm or 0)

    def _op_abort(self, instr) -> None:
        if instr.rs is not None:
            raise AbortError(to_signed(self.regs.value[instr.rs]))
        raise AbortError(instr.imm or 0)

    # -- dispatch ---------------------------------------------------------

    def _build_dispatch(self) -> Dict[Op, Callable]:
        return {
            Op.MOV: self._op_mov, Op.LEA: self._op_lea,
            Op.XCHG: self._op_xchg,
            Op.ADD: self._op_add, Op.SUB: self._op_sub,
            Op.MUL: self._op_mul, Op.DIV: self._op_div,
            Op.MOD: self._op_mod, Op.AND: self._op_and,
            Op.OR: self._op_or, Op.XOR: self._op_xor,
            Op.SHL: self._op_shl, Op.SHR: self._op_shr,
            Op.SRA: self._op_sra, Op.NEG: self._op_neg,
            Op.NOT: self._op_not,
            Op.SEQ: self._op_seq, Op.SNE: self._op_sne,
            Op.SLT: self._op_slt, Op.SLE: self._op_sle,
            Op.SGT: self._op_sgt, Op.SGE: self._op_sge,
            Op.SLTU: self._op_sltu, Op.SGEU: self._op_sgeu,
            Op.LOAD: self._op_load, Op.STORE: self._op_store,
            Op.JMP: self._op_jmp, Op.BEQZ: self._op_beqz,
            Op.BNEZ: self._op_bnez, Op.CALL: self._op_call,
            Op.CALLR: self._op_callr, Op.RET: self._op_ret,
            Op.SETBOUND: self._op_setbound,
            Op.READBASE: self._op_readbase,
            Op.READBOUND: self._op_readbound,
            Op.SETUNSAFE: self._op_setunsafe,
            Op.SETCODE: self._op_setcode, Op.CLRBND: self._op_clrbnd,
            Op.MARKFREE: self._op_markfree,
            Op.SBRK: self._op_sbrk, Op.PRINT: self._op_print,
            Op.PRINTC: self._op_printc, Op.PRINTS: self._op_prints,
            Op.HALT: self._op_halt, Op.ABORT: self._op_abort,
        }
