"""Pre-decoded closure-threaded execution engine.

The legacy :meth:`~repro.machine.cpu.CPU._run_legacy` loop re-resolves
every operand form (register vs. immediate, base/index/displacement
addressing, access size) on every executed instruction, through a
dict dispatch and a stack of helper calls.  This module specializes a
linked :class:`~repro.isa.program.Program` *once per run* into a flat
list of per-instruction closures:

* operand forms are resolved at decode time — each closure is built
  for the exact ``reg/imm/disp/scale`` shape of its instruction;
* the hot handlers (``mov``/``add``/``sub``/``load``/``store``/
  branches/compares) are fully inlined with the register-file arrays
  bound as closure cells, so executing an instruction is one list
  index plus one call;
* the common HardBound bounds check (stock engine, no ``check_uop``
  ablation, paper ``ea < bound`` semantics) is inlined into the
  memory closures; ablations and substituted engines (e.g. the
  CCured cost model) fall back to engine method calls.

Execution is **bit-identical** to the legacy loop: identical
``RunResult`` statistics (instructions, µops, stalls, HardBound and
memory-system counters), identical trap types, messages and faulting
pcs.  ``tests/machine/test_engine_differential.py`` enforces this.

Decoding costs O(program length) closure constructions per run — noise
next to the millions of instructions a workload executes.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace
from typing import Callable, List, Optional

from repro.caches.fast import FastMemorySystem
from repro.hardbound.engine import HardBoundEngine
from repro.isa.opcodes import Op, REG_FP, REG_RA, REG_SP
from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    MASK32,
    MAXINT,
    SHADOW_SPACE_BASE,
    STACK_TOP,
    TAG1_BASE,
    TAG1_SHIFT,
    TAG4_BASE,
    TAG4_SHIFT,
    to_signed,
)
from repro.metadata.encodings import make_inline_compressible
from repro.machine.errors import (
    AbortError,
    BoundsError,
    DivideByZeroError,
    HaltSignal,
    InstructionLimitExceeded,
    MemoryFault,
    InvalidCodePointerError,
    NonPointerError,
    Trap,
)

#: a decoded instruction: takes the current pc, returns the next pc
#: (``None`` means fall through)
DecodedOp = Callable[[int], Optional[int]]


class _LazyCode:
    """List-like decoded stream that builds closures on first use.

    The blocks engine fuses almost every instruction into
    generated code, so most decoded closures exist only as the
    single-step fallback and are never called; building them eagerly
    is pure per-run overhead.  Indexing builds and memoizes the
    closure; out-of-range pcs raise ``IndexError`` exactly like the
    eager list, which the run loops translate into fetch faults.
    """

    __slots__ = ("_builders", "_instrs", "_cache")

    def __init__(self, builders, instrs):
        self._builders = builders
        self._instrs = instrs
        self._cache: List[Optional[DecodedOp]] = [None] * len(instrs)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, pc: int) -> DecodedOp:
        fn = self._cache[pc]
        if fn is None:
            instr = self._instrs[pc]
            fn = self._cache[pc] = self._builders[instr.op](instr)
        return fn


# -- non-propagating ALU semantics (shared with the legacy handlers) -----

def _mul(a: int, b: int) -> int:
    return to_signed(a) * to_signed(b)


def _div(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        raise DivideByZeroError()
    q = abs(sa) // abs(sb)
    return q if (sa < 0) == (sb < 0) else -q


def _mod(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        raise DivideByZeroError()
    r = abs(sa) % abs(sb)
    return r if sa >= 0 else -r


def _and(a: int, b: int) -> int:
    return a & b


def _or(a: int, b: int) -> int:
    return a | b


def _xor(a: int, b: int) -> int:
    return a ^ b


def _shl(a: int, b: int) -> int:
    return a << (b & 31)


def _shr(a: int, b: int) -> int:
    return a >> (b & 31)


def _sra(a: int, b: int) -> int:
    return to_signed(a) >> (b & 31)


_NONPROP_FNS = {
    Op.MUL: _mul, Op.DIV: _div, Op.MOD: _mod, Op.AND: _and,
    Op.OR: _or, Op.XOR: _xor, Op.SHL: _shl, Op.SHR: _shr,
    Op.SRA: _sra,
}

_SIGNED_CMPS = frozenset({Op.SLT, Op.SLE, Op.SGT, Op.SGE})


def bind_env(cpu) -> SimpleNamespace:
    """Bind the per-run state the execution engines close over.

    Shared between :func:`decode_program` and the block
    fuser (:mod:`repro.machine.blocks`) so both reference the *same*
    probe closures, counter cells and memory arena cells — a
    prerequisite for the counter bit-identity the differential suite
    enforces (two independently created probes would still agree,
    but sharing one set makes the equivalence structural rather than
    incidental).  The env also exposes every generic entry point the
    builders below call (``mem_read``/``mem_write``/``mem_sbrk``,
    ``temporal_check``, the observer, ``hb_check`` and the
    ``load_sub``/``store_sub`` metadata paths): the block fuser's
    generic templates mirror the generic closure bodies
    by calling exactly these bound names in the same order, so the
    two dispatch styles cannot drift apart.
    """
    env = SimpleNamespace()
    regs = cpu.regs
    env.value = regs.value
    env.rbase = regs.base
    env.rbound = regs.bound
    memory = cpu.memory
    env.memory = memory
    env.mem_read = memory.read
    env.mem_write = memory.write
    env.mem_sbrk = memory.sbrk
    env.read_cstring = memory.read_cstring
    env.raw_read = memory.raw_read
    env.raw_write = memory.raw_write
    # flat-heap fast path state: the arena cells (stable across heap
    # growth — see repro.machine.memory) and the fixed segment bounds
    # (only the heap break moves after construction, so it is re-read
    # from ``memory`` on every access)
    env.heap_cell = memory.heap_cell
    env.glob_cell = memory.globals_cell
    env.stack_cell = memory.stack_cell
    env.globals_limit = memory.globals_limit
    env.stack_base = memory.stack_base
    # word-view access needs native little-endian casts on all three
    # arenas (true everywhere but big-endian hosts)
    env.use_words = (memory.heap_cell[1] is not None
                     and memory.globals_cell[1] is not None
                     and memory.stack_cell[1] is not None)
    env.n_instrs = len(cpu.program.instrs)
    env.full_mode = cpu.full_mode
    temporal = cpu.temporal
    env.temporal = temporal
    env.temporal_check = temporal.check if temporal is not None else None
    env.observer = cpu.observer
    memsys = cpu.memsys
    env.memsys = memsys
    env.data_access = memsys.access if memsys is not None else None

    hb = cpu.hb
    env.hb = hb
    if hb is not None:
        env.hb_stats = hb.stats
        env.hb_check = hb.check
        env.hb_load_word = hb.load_word_meta
        env.hb_load_sub = hb.load_sub_meta
        env.hb_store_word = hb.store_word_meta
        env.hb_store_sub = hb.store_sub_meta
        env.meta_map = hb.meta._meta
        env.meta_get = env.meta_map.get
        env.meta_pop = env.meta_map.pop
        enc = hb.encoding
        # stock encodings get a flat is_compressible closure and
        # inline tag-address arithmetic; subclassed encodings keep
        # their methods and take the generic path
        comp_inline = make_inline_compressible(enc)
        env.is_comp = comp_inline if comp_inline is not None \
            else enc.is_compressible
        if comp_inline is not None:
            env.tag_base, env.tag_shift = ((TAG4_BASE, TAG4_SHIFT)
                                           if enc.tag_bits == 4
                                           else (TAG1_BASE, TAG1_SHIFT))
        else:
            env.tag_base = env.tag_shift = None
        # the stock engine with paper-default knobs and a stock
        # encoding is inlined into the memory closures; ablations and
        # substituted engines/encodings are not
        env.inline_check = (type(hb) is HardBoundEngine
                            and not hb.check_uop
                            and not hb.check_access_extent
                            and env.tag_base is not None)
    else:
        env.hb_stats = None
        env.hb_check = env.hb_load_word = env.hb_load_sub = None
        env.hb_store_word = env.hb_store_sub = None
        env.meta_map = env.meta_get = env.meta_pop = None
        env.is_comp = None
        env.inline_check = False
        env.tag_base = env.tag_shift = None

    # the fast timing model hands out single-call probes for the hot
    # access shapes (plus the cells to inline their composite-hit
    # path); the probes are generated per cache geometry with the
    # array-backed way scans unrolled, and the block fuser's
    # templates call these same probes, so fused and single-stepped
    # charges run one code path.  The classic model keeps its
    # generic entry point
    if memsys is not None and isinstance(memsys, FastMemorySystem):
        (env.dprobe, env.dp_mru, env.dp_ctr,
         env.dp_shift) = memsys.data_probe_parts()
        env.sprobe = memsys.make_shadow_probe() if hb is not None \
            else None
        if env.inline_check:
            (env.wprobe, env.wp_mru, env.wp_dctr, env.wp_tctr,
             env.wp_shift) = memsys.word_probe_parts(env.tag_base,
                                                     env.tag_shift)
        else:
            env.wprobe = None
    else:
        env.dprobe = env.sprobe = env.wprobe = None
        env.dp_mru = env.dp_ctr = env.dp_shift = None
    if env.wprobe is None:
        env.wp_mru = env.wp_dctr = env.wp_tctr = env.wp_shift = None

    out_append = cpu.output.append
    capture = cpu.config.capture_output
    echo = cpu.config.echo_output
    if capture and echo:
        def emit(text):
            out_append(text)
            print(text, end="")
    elif capture:
        emit = out_append
    elif echo:
        def emit(text):
            print(text, end="")
    else:
        def emit(text):
            pass
    env.emit = emit
    return env


def decode_program(cpu, env: SimpleNamespace = None,
                   lazy: bool = False) -> List[DecodedOp]:
    """Specialize ``cpu.program`` into per-instruction closures.

    All per-run state (register arrays, memory arenas, metadata
    engine, observers) is bound into closure cells here, once, so the
    closures touch no ``self`` attributes on the hot path.  Pass a
    pre-built ``env`` (from :func:`bind_env`) to share the bound
    state with the block fuser.  With ``lazy`` the result is a
    :class:`_LazyCode` that builds each closure on first index — the
    blocks engine's choice, since its fused templates leave most
    closures unused.
    """
    t0 = perf_counter()
    if env is None:
        env = bind_env(cpu)
    value = env.value
    rbase = env.rbase
    rbound = env.rbound
    memory = env.memory
    mem_read = env.mem_read
    mem_write = env.mem_write
    mem_sbrk = env.mem_sbrk
    read_cstring = env.read_cstring
    raw_read = env.raw_read
    raw_write = env.raw_write
    heap_cell = env.heap_cell
    glob_cell = env.glob_cell
    stack_cell = env.stack_cell
    globals_limit = env.globals_limit
    stack_base = env.stack_base
    use_words = env.use_words
    n_instrs = env.n_instrs
    full_mode = env.full_mode
    temporal = env.temporal
    temporal_check = env.temporal_check
    observer = env.observer
    memsys = env.memsys
    data_access = env.data_access
    hb = env.hb
    hb_stats = env.hb_stats
    hb_check = env.hb_check
    hb_load_word = env.hb_load_word
    hb_load_sub = env.hb_load_sub
    hb_store_word = env.hb_store_word
    hb_store_sub = env.hb_store_sub
    meta_map = env.meta_map
    meta_get = env.meta_get
    meta_pop = env.meta_pop
    is_comp = env.is_comp
    tag_base = env.tag_base
    tag_shift = env.tag_shift
    inline_check = env.inline_check
    dprobe = env.dprobe
    dp_mru = env.dp_mru
    dp_ctr = env.dp_ctr
    dp_shift = env.dp_shift
    sprobe = env.sprobe
    wprobe = env.wprobe
    wp_mru = env.wp_mru
    wp_dctr = env.wp_dctr
    wp_tctr = env.wp_tctr
    wp_shift = env.wp_shift
    emit = env.emit

    # -- shared sub-builders -------------------------------------------

    def make_ea(rs, rt, scale, disp):
        """Effective-address closure for the instruction's exact form."""
        if rs is not None and rt is not None:
            def ea_fn():
                return (value[rs] + value[rt] * scale + disp) & MASK32
        elif rs is not None:
            def ea_fn():
                return (value[rs] + disp) & MASK32
        elif rt is not None:
            def ea_fn():
                return (value[rt] * scale + disp) & MASK32
        else:
            k = disp & MASK32

            def ea_fn():
                return k
        return ea_fn

    def make_mem_check(rs, rt, size, access):
        """Figure 3C/D check closure (caller guarantees hb and rs)."""
        is_frame = rs in (REG_SP, REG_FP)

        def check(ea):
            if rbase[rs] or rbound[rs]:
                src = rs
            elif rt is not None and (rbase[rt] or rbound[rt]):
                src = rt
            else:
                src = rs
            if not (rbase[src] or rbound[src]) and is_frame:
                return
            hb_check(value[src], rbase[src], rbound[src], ea, size,
                     access, full_mode)
        return check

    # -- data movement -------------------------------------------------

    def build_mov(instr):
        rd, rs = instr.rd, instr.rs
        if rs is not None:
            def mov_rr(pc):
                value[rd] = value[rs]
                rbase[rd] = rbase[rs]
                rbound[rd] = rbound[rs]
            return mov_rr
        k = (instr.imm or 0) & MASK32

        def mov_ri(pc):
            value[rd] = k
            rbase[rd] = 0
            rbound[rd] = 0
        return mov_ri

    def build_xchg(instr):
        rd, rs = instr.rd, instr.rs

        def xchg(pc):
            value[rd], value[rs] = value[rs], value[rd]
            rbase[rd], rbase[rs] = rbase[rs], rbase[rd]
            rbound[rd], rbound[rs] = rbound[rs], rbound[rd]
        return xchg

    def build_lea(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        scale, disp = instr.scale, instr.disp
        if rs is not None and rt is not None:
            def lea_si(pc):
                ea = (value[rs] + value[rt] * scale + disp) & MASK32
                if rbase[rs] or rbound[rs]:
                    b, bd = rbase[rs], rbound[rs]
                elif rbase[rt] or rbound[rt]:
                    b, bd = rbase[rt], rbound[rt]
                else:
                    b, bd = 0, 0
                rbase[rd] = b
                rbound[rd] = bd
                value[rd] = ea
            return lea_si
        if rs is not None:
            def lea_s(pc):
                ea = (value[rs] + disp) & MASK32
                rbase[rd] = rbase[rs]
                rbound[rd] = rbound[rs]
                value[rd] = ea
            return lea_s
        if rt is not None:
            def lea_i(pc):
                ea = (value[rt] * scale + disp) & MASK32
                rbase[rd] = rbase[rt]
                rbound[rd] = rbound[rt]
                value[rd] = ea
            return lea_i
        k = disp & MASK32

        def lea_abs(pc):
            rbase[rd] = 0
            rbound[rd] = 0
            value[rd] = k
        return lea_abs

    # -- propagating arithmetic (Figure 3A/B) --------------------------

    def build_addsub(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        sub = instr.op is Op.SUB
        if rt is not None:
            if sub:
                def addsub_rr(pc):
                    v = (value[rs] - value[rt]) & MASK32
                    if rbase[rs] or rbound[rs]:
                        b, bd = rbase[rs], rbound[rs]
                    else:
                        b, bd = rbase[rt], rbound[rt]
                    value[rd] = v
                    rbase[rd] = b
                    rbound[rd] = bd
                    if observer is not None and (b or bd):
                        observer.on_pointer_arith(v)
            else:
                def addsub_rr(pc):
                    v = (value[rs] + value[rt]) & MASK32
                    if rbase[rs] or rbound[rs]:
                        b, bd = rbase[rs], rbound[rs]
                    else:
                        b, bd = rbase[rt], rbound[rt]
                    value[rd] = v
                    rbase[rd] = b
                    rbound[rd] = bd
                    if observer is not None and (b or bd):
                        observer.on_pointer_arith(v)
            return addsub_rr
        k = instr.imm or 0
        if sub:
            k = -k

        def addsub_ri(pc):
            v = (value[rs] + k) & MASK32
            if rbase[rs] or rbound[rs]:
                b, bd = rbase[rs], rbound[rs]
                value[rd] = v
                rbase[rd] = b
                rbound[rd] = bd
                if observer is not None:
                    observer.on_pointer_arith(v)
            else:
                value[rd] = v
                rbase[rd] = 0
                rbound[rd] = 0
        return addsub_ri

    # -- non-propagating ALU -------------------------------------------

    def build_nonprop(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        fn = _NONPROP_FNS[instr.op]
        if rt is not None:
            def nonprop_rr(pc):
                value[rd] = fn(value[rs], value[rt]) & MASK32
                rbase[rd] = 0
                rbound[rd] = 0
            return nonprop_rr
        k = instr.imm or 0

        def nonprop_ri(pc):
            value[rd] = fn(value[rs], k) & MASK32
            rbase[rd] = 0
            rbound[rd] = 0
        return nonprop_ri

    def build_neg(instr):
        rd, rs = instr.rd, instr.rs

        def neg(pc):
            value[rd] = (-value[rs]) & MASK32
            rbase[rd] = 0
            rbound[rd] = 0
        return neg

    def build_not(instr):
        rd, rs = instr.rd, instr.rs

        def not_(pc):
            value[rd] = (~value[rs]) & MASK32
            rbase[rd] = 0
            rbound[rd] = 0
        return not_

    # -- comparisons ---------------------------------------------------

    def build_cmp(instr):
        # Signed compares use the sign-bit flip: for masked values,
        # ``to_signed(a) < to_signed(b)`` iff ``a^MSB < b^MSB``.
        rd, rs, rt, op = instr.rd, instr.rs, instr.rt, instr.op
        MSB = 0x80000000
        if rt is not None:
            if op is Op.SEQ:
                def cmp_rr(pc):
                    value[rd] = 1 if value[rs] == value[rt] else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SNE:
                def cmp_rr(pc):
                    value[rd] = 1 if value[rs] != value[rt] else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SLT:
                def cmp_rr(pc):
                    value[rd] = (1 if (value[rs] ^ MSB)
                                 < (value[rt] ^ MSB) else 0)
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SLE:
                def cmp_rr(pc):
                    value[rd] = (1 if (value[rs] ^ MSB)
                                 <= (value[rt] ^ MSB) else 0)
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SGT:
                def cmp_rr(pc):
                    value[rd] = (1 if (value[rs] ^ MSB)
                                 > (value[rt] ^ MSB) else 0)
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SGE:
                def cmp_rr(pc):
                    value[rd] = (1 if (value[rs] ^ MSB)
                                 >= (value[rt] ^ MSB) else 0)
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SLTU:
                def cmp_rr(pc):
                    value[rd] = 1 if value[rs] < value[rt] else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            else:  # SGEU
                def cmp_rr(pc):
                    value[rd] = 1 if value[rs] >= value[rt] else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            return cmp_rr
        k = instr.imm or 0
        if op in (Op.SEQ, Op.SNE):
            # to_signed is a bijection on masked values: equality
            # against the masked immediate matches the legacy compare
            km = k & MASK32
            if op is Op.SEQ:
                def cmp_ri(pc):
                    value[rd] = 1 if value[rs] == km else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            else:
                def cmp_ri(pc):
                    value[rd] = 1 if value[rs] != km else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            return cmp_ri
        if op in _SIGNED_CMPS:
            kf = (k & MASK32) ^ MSB
            if op is Op.SLT:
                def cmp_ri(pc):
                    value[rd] = 1 if (value[rs] ^ MSB) < kf else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SLE:
                def cmp_ri(pc):
                    value[rd] = 1 if (value[rs] ^ MSB) <= kf else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            elif op is Op.SGT:
                def cmp_ri(pc):
                    value[rd] = 1 if (value[rs] ^ MSB) > kf else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            else:  # SGE
                def cmp_ri(pc):
                    value[rd] = 1 if (value[rs] ^ MSB) >= kf else 0
                    rbase[rd] = 0
                    rbound[rd] = 0
            return cmp_ri
        # unsigned compares keep the raw immediate, like _operand2
        if op is Op.SLTU:
            def cmp_ri(pc):
                value[rd] = 1 if value[rs] < k else 0
                rbase[rd] = 0
                rbound[rd] = 0
        else:  # SGEU
            def cmp_ri(pc):
                value[rd] = 1 if value[rs] >= k else 0
                rbase[rd] = 0
                rbound[rd] = 0
        return cmp_ri

    # -- memory --------------------------------------------------------

    wmask = ~3

    def build_load(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        scale, disp, size = instr.scale, instr.disp, instr.size
        checked = hb is not None and rs is not None
        # hot paths: stock engine, word access, base-register forms.
        # Memory.read and HardBoundEngine.load_word_meta are inlined
        # (same statement order, trap messages and stats updates); the
        # differential test keeps them honest.  The merged segment
        # check doubles as arena routing: an address that passes a
        # check is inside that segment's flat arena, so the word view
        # is indexed with no further bounds test (unaligned accesses
        # take the raw_read spill path).
        if checked and inline_check and size == 4 and use_words:
            is_frame = rs in (REG_SP, REG_FP)
            if rt is None:
                def load_s_word(pc):
                    ea = (value[rs] + disp) & MASK32
                    b = rbase[rs]
                    bd = rbound[rs]
                    if b or bd:
                        hb_stats.checks += 1
                        if ea < b or ea >= bd:
                            raise BoundsError(ea, b, bd, "read")
                    elif not is_frame:
                        if full_mode:
                            raise NonPointerError(value[rs], "read")
                        hb_stats.nonpointer_derefs += 1
                    if temporal_check is not None:
                        temporal_check(ea, 4)
                    end = ea + 4
                    if HEAP_BASE <= ea and end <= memory.brk:
                        v = (heap_cell[1][(ea - HEAP_BASE) >> 2]
                             if not ea & 3 else raw_read(ea, 4))
                    elif GLOBAL_BASE <= ea and end <= globals_limit:
                        v = (glob_cell[1][(ea - GLOBAL_BASE) >> 2]
                             if not ea & 3 else raw_read(ea, 4))
                    elif stack_base <= ea and end <= STACK_TOP:
                        v = (stack_cell[1][(ea - stack_base) >> 2]
                             if not ea & 3 else raw_read(ea, 4))
                    else:
                        raise MemoryFault(ea, "read")
                    if wprobe is not None:
                        wkey = ea >> wp_shift
                        if wkey == wp_mru[0] \
                                and (ea + 3) >> wp_shift == wkey:
                            wp_dctr[0] += 1
                            wp_tctr[0] += 1
                        else:
                            wprobe(ea)
                    elif data_access is not None:
                        data_access(ea, 4, False, "data")
                        data_access(tag_base + (ea >> tag_shift), 1,
                                    False, "tag")
                    if observer is not None:
                        observer.on_mem(ea, 4, False)
                    meta = meta_get(ea & wmask)
                    if meta is None:
                        value[rd] = v
                        rbase[rd] = 0
                        rbound[rd] = 0
                        return
                    mb, mbd = meta
                    hb_stats.pointer_loads += 1
                    if is_comp(v, mb, mbd):
                        hb_stats.compressed_loads += 1
                    else:
                        hb_stats.meta_uops += 1
                        if sprobe is not None:
                            sprobe(ea & wmask)
                        elif data_access is not None:
                            data_access(SHADOW_SPACE_BASE
                                        + (ea & wmask) * 2, 8, False,
                                        "shadow")
                    value[rd] = v
                    rbase[rd] = mb
                    rbound[rd] = mbd
                return load_s_word

            def load_si_word(pc):
                ea = (value[rs] + value[rt] * scale + disp) & MASK32
                b = rbase[rs]
                bd = rbound[rs]
                pv = value[rs]
                if not (b or bd):
                    b = rbase[rt]
                    bd = rbound[rt]
                    if b or bd:
                        pv = value[rt]
                if b or bd:
                    hb_stats.checks += 1
                    if ea < b or ea >= bd:
                        raise BoundsError(ea, b, bd, "read")
                elif not is_frame:
                    if full_mode:
                        raise NonPointerError(pv, "read")
                    hb_stats.nonpointer_derefs += 1
                if temporal_check is not None:
                    temporal_check(ea, 4)
                end = ea + 4
                if HEAP_BASE <= ea and end <= memory.brk:
                    v = (heap_cell[1][(ea - HEAP_BASE) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                elif GLOBAL_BASE <= ea and end <= globals_limit:
                    v = (glob_cell[1][(ea - GLOBAL_BASE) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                elif stack_base <= ea and end <= STACK_TOP:
                    v = (stack_cell[1][(ea - stack_base) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                else:
                    raise MemoryFault(ea, "read")
                if wprobe is not None:
                    wkey = ea >> wp_shift
                    if wkey == wp_mru[0] \
                            and (ea + 3) >> wp_shift == wkey:
                        wp_dctr[0] += 1
                        wp_tctr[0] += 1
                    else:
                        wprobe(ea)
                elif data_access is not None:
                    data_access(ea, 4, False, "data")
                    data_access(tag_base + (ea >> tag_shift), 1,
                                False, "tag")
                if observer is not None:
                    observer.on_mem(ea, 4, False)
                meta = meta_get(ea & wmask)
                if meta is None:
                    value[rd] = v
                    rbase[rd] = 0
                    rbound[rd] = 0
                    return
                mb, mbd = meta
                hb_stats.pointer_loads += 1
                if is_comp(v, mb, mbd):
                    hb_stats.compressed_loads += 1
                else:
                    hb_stats.meta_uops += 1
                    if sprobe is not None:
                        sprobe(ea & wmask)
                    elif data_access is not None:
                        data_access(SHADOW_SPACE_BASE + (ea & wmask) * 2,
                                    8, False, "shadow")
                value[rd] = v
                rbase[rd] = mb
                rbound[rd] = mbd
            return load_si_word

        if hb is None and size == 4 and rs is not None and rt is None \
                and use_words:
            def load_s_word_plain(pc):
                ea = (value[rs] + disp) & MASK32
                end = ea + 4
                if HEAP_BASE <= ea and end <= memory.brk:
                    v = (heap_cell[1][(ea - HEAP_BASE) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                elif GLOBAL_BASE <= ea and end <= globals_limit:
                    v = (glob_cell[1][(ea - GLOBAL_BASE) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                elif stack_base <= ea and end <= STACK_TOP:
                    v = (stack_cell[1][(ea - stack_base) >> 2]
                         if not ea & 3 else raw_read(ea, 4))
                else:
                    raise MemoryFault(ea, "read")
                if dprobe is not None:
                    bkey = ea >> dp_shift
                    if bkey == dp_mru[0] \
                            and (ea + 3) >> dp_shift == bkey:
                        dp_ctr[0] += 1
                    else:
                        dprobe(ea)
                elif data_access is not None:
                    data_access(ea, 4, False, "data")
                if observer is not None:
                    observer.on_mem(ea, 4, False)
                value[rd] = v
                rbase[rd] = 0
                rbound[rd] = 0
            return load_s_word_plain

        # generic path: any form, any size, any engine
        ea_fn = make_ea(rs, rt, scale, disp)
        check = make_mem_check(rs, rt, size, "read") if checked else None
        word = size == 4

        def load_generic(pc):
            ea = ea_fn()
            if check is not None:
                check(ea)
            if temporal_check is not None:
                temporal_check(ea, size)
            v = mem_read(ea, size)
            if data_access is not None:
                data_access(ea, size, False, "data")
            if observer is not None:
                observer.on_mem(ea, size, False)
            if hb is not None:
                if word:
                    b, bd = hb_load_word(ea, v)
                    value[rd] = v
                    rbase[rd] = b
                    rbound[rd] = bd
                    return
                hb_load_sub(ea)
            value[rd] = v
            rbase[rd] = 0
            rbound[rd] = 0
        return load_generic

    def build_store(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        scale, disp, size = instr.scale, instr.disp, instr.size
        checked = hb is not None and rs is not None
        if checked and inline_check and size == 4 and use_words:
            is_frame = rs in (REG_SP, REG_FP)
            if rt is None:
                def store_s_word(pc):
                    ea = (value[rs] + disp) & MASK32
                    b = rbase[rs]
                    bd = rbound[rs]
                    if b or bd:
                        hb_stats.checks += 1
                        if ea < b or ea >= bd:
                            raise BoundsError(ea, b, bd, "write")
                    elif not is_frame:
                        if full_mode:
                            raise NonPointerError(value[rs], "write")
                        hb_stats.nonpointer_derefs += 1
                    if temporal_check is not None:
                        temporal_check(ea, 4)
                    end = ea + 4
                    v = value[rd]
                    if HEAP_BASE <= ea and end <= memory.brk:
                        if ea & 3:
                            raw_write(ea, 4, v)
                        else:
                            heap_cell[1][(ea - HEAP_BASE) >> 2] = v
                    elif GLOBAL_BASE <= ea and end <= globals_limit:
                        if ea & 3:
                            raw_write(ea, 4, v)
                        else:
                            glob_cell[1][(ea - GLOBAL_BASE) >> 2] = v
                    elif stack_base <= ea and end <= STACK_TOP:
                        if ea & 3:
                            raw_write(ea, 4, v)
                        else:
                            stack_cell[1][(ea - stack_base) >> 2] = v
                    else:
                        raise MemoryFault(ea, "write")
                    if wprobe is not None:
                        wkey = ea >> wp_shift
                        if wkey == wp_mru[0] \
                                and (ea + 3) >> wp_shift == wkey:
                            wp_dctr[0] += 1
                            wp_tctr[0] += 1
                        else:
                            wprobe(ea)
                    elif data_access is not None:
                        data_access(ea, 4, True, "data")
                        data_access(tag_base + (ea >> tag_shift), 1,
                                    True, "tag")
                    if observer is not None:
                        observer.on_mem(ea, 4, True)
                    key = ea & wmask
                    mb = rbase[rd]
                    mbd = rbound[rd]
                    if mb == 0 and mbd == 0:
                        meta_pop(key, None)
                        return
                    meta_map[key] = (mb, mbd)
                    hb_stats.pointer_stores += 1
                    if is_comp(v, mb, mbd):
                        hb_stats.compressed_stores += 1
                    else:
                        hb_stats.meta_uops += 1
                        if sprobe is not None:
                            sprobe(key)
                        elif data_access is not None:
                            data_access(SHADOW_SPACE_BASE + key * 2, 8,
                                        True, "shadow")
                return store_s_word

            def store_si_word(pc):
                ea = (value[rs] + value[rt] * scale + disp) & MASK32
                b = rbase[rs]
                bd = rbound[rs]
                pv = value[rs]
                if not (b or bd):
                    b = rbase[rt]
                    bd = rbound[rt]
                    if b or bd:
                        pv = value[rt]
                if b or bd:
                    hb_stats.checks += 1
                    if ea < b or ea >= bd:
                        raise BoundsError(ea, b, bd, "write")
                elif not is_frame:
                    if full_mode:
                        raise NonPointerError(pv, "write")
                    hb_stats.nonpointer_derefs += 1
                if temporal_check is not None:
                    temporal_check(ea, 4)
                end = ea + 4
                v = value[rd]
                if HEAP_BASE <= ea and end <= memory.brk:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        heap_cell[1][(ea - HEAP_BASE) >> 2] = v
                elif GLOBAL_BASE <= ea and end <= globals_limit:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        glob_cell[1][(ea - GLOBAL_BASE) >> 2] = v
                elif stack_base <= ea and end <= STACK_TOP:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        stack_cell[1][(ea - stack_base) >> 2] = v
                else:
                    raise MemoryFault(ea, "write")
                if wprobe is not None:
                    wkey = ea >> wp_shift
                    if wkey == wp_mru[0] \
                            and (ea + 3) >> wp_shift == wkey:
                        wp_dctr[0] += 1
                        wp_tctr[0] += 1
                    else:
                        wprobe(ea)
                elif data_access is not None:
                    data_access(ea, 4, True, "data")
                    data_access(tag_base + (ea >> tag_shift), 1,
                                True, "tag")
                if observer is not None:
                    observer.on_mem(ea, 4, True)
                key = ea & wmask
                mb = rbase[rd]
                mbd = rbound[rd]
                if mb == 0 and mbd == 0:
                    meta_pop(key, None)
                    return
                meta_map[key] = (mb, mbd)
                hb_stats.pointer_stores += 1
                if is_comp(v, mb, mbd):
                    hb_stats.compressed_stores += 1
                else:
                    hb_stats.meta_uops += 1
                    if sprobe is not None:
                        sprobe(key)
                    elif data_access is not None:
                        data_access(SHADOW_SPACE_BASE + key * 2, 8,
                                    True, "shadow")
            return store_si_word

        if hb is None and size == 4 and rs is not None and rt is None \
                and use_words:
            def store_s_word_plain(pc):
                ea = (value[rs] + disp) & MASK32
                end = ea + 4
                v = value[rd]
                if HEAP_BASE <= ea and end <= memory.brk:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        heap_cell[1][(ea - HEAP_BASE) >> 2] = v
                elif GLOBAL_BASE <= ea and end <= globals_limit:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        glob_cell[1][(ea - GLOBAL_BASE) >> 2] = v
                elif stack_base <= ea and end <= STACK_TOP:
                    if ea & 3:
                        raw_write(ea, 4, v)
                    else:
                        stack_cell[1][(ea - stack_base) >> 2] = v
                else:
                    raise MemoryFault(ea, "write")
                if dprobe is not None:
                    bkey = ea >> dp_shift
                    if bkey == dp_mru[0] \
                            and (ea + 3) >> dp_shift == bkey:
                        dp_ctr[0] += 1
                    else:
                        dprobe(ea)
                elif data_access is not None:
                    data_access(ea, 4, True, "data")
                if observer is not None:
                    observer.on_mem(ea, 4, True)
            return store_s_word_plain

        ea_fn = make_ea(rs, rt, scale, disp)
        check = make_mem_check(rs, rt, size, "write") if checked else None
        word = size == 4

        def store_generic(pc):
            ea = ea_fn()
            if check is not None:
                check(ea)
            if temporal_check is not None:
                temporal_check(ea, size)
            v = value[rd]
            mem_write(ea, size, v)
            if data_access is not None:
                data_access(ea, size, True, "data")
            if observer is not None:
                observer.on_mem(ea, size, True)
            if hb is not None:
                if word:
                    hb_store_word(ea, v, rbase[rd], rbound[rd])
                else:
                    hb_store_sub(ea)
        return store_generic

    # -- control flow --------------------------------------------------

    def build_jmp(instr):
        target = instr.target

        def jmp(pc):
            return target
        return jmp

    def build_beqz(instr):
        rs, target = instr.rs, instr.target

        def beqz(pc):
            return target if value[rs] == 0 else None
        return beqz

    def build_bnez(instr):
        rs, target = instr.rs, instr.target

        def bnez(pc):
            return target if value[rs] != 0 else None
        return bnez

    def build_call(instr):
        target = instr.target

        def call(pc):
            value[REG_RA] = (pc + 1) & MASK32
            rbase[REG_RA] = MAXINT
            rbound[REG_RA] = MAXINT
            return target
        return call

    def build_callr(instr):
        rs = instr.rs

        def callr(pc):
            target = value[rs]
            if full_mode and not (rbase[rs] == MAXINT
                                  and rbound[rs] == MAXINT):
                raise InvalidCodePointerError(target)
            if target >= n_instrs:
                raise InvalidCodePointerError(target)
            value[REG_RA] = (pc + 1) & MASK32
            rbase[REG_RA] = MAXINT
            rbound[REG_RA] = MAXINT
            return target
        return callr

    def build_ret(instr):
        def ret(pc):
            target = value[REG_RA]
            if full_mode and not (rbase[REG_RA] == MAXINT
                                  and rbound[REG_RA] == MAXINT):
                raise InvalidCodePointerError(target)
            if target >= n_instrs:
                raise InvalidCodePointerError(target)
            return target
        return ret

    # -- HardBound primitives ------------------------------------------

    def build_setbound(instr):
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        k = instr.imm or 0

        def setbound(pc):
            v = value[rs]
            size = value[rt] if rt is not None else k
            value[rd] = v
            rbase[rd] = v
            rbound[rd] = (v + size) & MASK32
            cpu.setbound_count += 1
            if hb_stats is not None:
                hb_stats.setbound_uops += 1
            if temporal is not None:
                temporal.mark_allocated(v, (v + size) & MASK32)
            if observer is not None:
                observer.on_setbound(v, size)
        return setbound

    def build_readbase(instr):
        rd, rs = instr.rd, instr.rs

        def readbase(pc):
            value[rd] = rbase[rs]
            rbase[rd] = 0
            rbound[rd] = 0
        return readbase

    def build_readbound(instr):
        rd, rs = instr.rd, instr.rs

        def readbound(pc):
            value[rd] = rbound[rs]
            rbase[rd] = 0
            rbound[rd] = 0
        return readbound

    def build_setunsafe(instr):
        rd, rs = instr.rd, instr.rs

        def setunsafe(pc):
            value[rd] = value[rs]
            rbase[rd] = 0
            rbound[rd] = MAXINT
        return setunsafe

    def build_setcode(instr):
        rd, rs = instr.rd, instr.rs
        if rs is not None:
            def setcode_r(pc):
                value[rd] = value[rs]
                rbase[rd] = MAXINT
                rbound[rd] = MAXINT
            return setcode_r
        k = instr.imm & MASK32

        def setcode_i(pc):
            value[rd] = k
            rbase[rd] = MAXINT
            rbound[rd] = MAXINT
        return setcode_i

    def build_clrbnd(instr):
        rd, rs = instr.rd, instr.rs

        def clrbnd(pc):
            value[rd] = value[rs]
            rbase[rd] = 0
            rbound[rd] = 0
        return clrbnd

    def build_markfree(instr):
        if temporal is None:
            def markfree_noop(pc):
                pass
            return markfree_noop
        rs, rt = instr.rs, instr.rt
        k = instr.imm or 0

        def markfree(pc):
            base = value[rs]
            size = value[rt] if rt is not None else k
            if size > 0:
                temporal.mark_freed(base, (base + size) & MASK32)
        return markfree

    # -- environment ---------------------------------------------------

    def build_sbrk(instr):
        rd, rs = instr.rd, instr.rs

        def sbrk(pc):
            old = mem_sbrk(to_signed(value[rs]))
            value[rd] = old
            rbase[rd] = 0
            rbound[rd] = 0
        return sbrk

    def build_print(instr):
        rs = instr.rs

        def print_(pc):
            emit("%d\n" % to_signed(value[rs]))
        return print_

    def build_printc(instr):
        rs = instr.rs

        def printc(pc):
            emit(chr(value[rs] & 0xFF))
        return printc

    def build_prints(instr):
        rs = instr.rs

        def prints(pc):
            emit(read_cstring(value[rs]))
        return prints

    def build_halt(instr):
        rs = instr.rs
        if rs is not None:
            def halt_r(pc):
                raise HaltSignal(to_signed(value[rs]))
            return halt_r
        k = instr.imm or 0

        def halt_i(pc):
            raise HaltSignal(k)
        return halt_i

    def build_abort(instr):
        rs = instr.rs
        if rs is not None:
            def abort_r(pc):
                raise AbortError(to_signed(value[rs]))
            return abort_r
        k = instr.imm or 0

        def abort_i(pc):
            raise AbortError(k)
        return abort_i

    builders = {
        Op.MOV: build_mov, Op.XCHG: build_xchg, Op.LEA: build_lea,
        Op.ADD: build_addsub, Op.SUB: build_addsub,
        Op.MUL: build_nonprop, Op.DIV: build_nonprop,
        Op.MOD: build_nonprop, Op.AND: build_nonprop,
        Op.OR: build_nonprop, Op.XOR: build_nonprop,
        Op.SHL: build_nonprop, Op.SHR: build_nonprop,
        Op.SRA: build_nonprop,
        Op.NEG: build_neg, Op.NOT: build_not,
        Op.SEQ: build_cmp, Op.SNE: build_cmp, Op.SLT: build_cmp,
        Op.SLE: build_cmp, Op.SGT: build_cmp, Op.SGE: build_cmp,
        Op.SLTU: build_cmp, Op.SGEU: build_cmp,
        Op.LOAD: build_load, Op.STORE: build_store,
        Op.JMP: build_jmp, Op.BEQZ: build_beqz, Op.BNEZ: build_bnez,
        Op.CALL: build_call, Op.CALLR: build_callr, Op.RET: build_ret,
        Op.SETBOUND: build_setbound,
        Op.READBASE: build_readbase, Op.READBOUND: build_readbound,
        Op.SETUNSAFE: build_setunsafe, Op.SETCODE: build_setcode,
        Op.CLRBND: build_clrbnd, Op.MARKFREE: build_markfree,
        Op.SBRK: build_sbrk,
        Op.PRINT: build_print, Op.PRINTC: build_printc,
        Op.PRINTS: build_prints,
        Op.HALT: build_halt, Op.ABORT: build_abort,
    }
    if lazy:
        # lazy closures are built on first use inside the run loop;
        # only the builder setup is charged to the decode phase
        code = _LazyCode(builders, cpu.program.instrs)
    else:
        code = [builders[instr.op](instr) for instr in cpu.program.instrs]
    cpu.timers.add("decode", perf_counter() - t0)
    return code


def execute_decoded(cpu):
    """Run ``cpu`` to halt on the decoded stream.

    Mirrors the legacy loop's observable behaviour exactly: the same
    instruction counting (including the instruction that busts the
    limit), the same faulting-pc annotation on traps, and the same
    final ``cpu.pc``/``cpu.icount`` on every exit path.
    """
    from repro.machine.cpu import RunResult

    code = decode_program(cpu)
    n = len(code)
    limit = cpu.config.max_instructions
    pc = cpu.pc
    lpc = pc
    icount = cpu.icount
    t0 = perf_counter()
    timed = False
    try:
        # ``pc`` can never go negative (branch targets are label
        # indices, indirect targets are masked-unsigned register
        # values), so the out-of-range fetch of the legacy loop is the
        # IndexError of ``code[pc]`` — the common path pays no bounds
        # compare at all.
        while True:
            fn = code[pc]
            lpc = pc
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(limit)
            npc = fn(pc)
            pc = pc + 1 if npc is None else npc
    except HaltSignal as halt:
        # the phase must land before RunResult snapshots it
        cpu.timers.add("execute", perf_counter() - t0)
        timed = True
        cpu.icount = icount
        cpu.pc = pc
        return RunResult(cpu, halt.code)
    except IndexError:
        if 0 <= pc < n:  # a genuine IndexError from inside a handler
            cpu.icount = icount
            cpu.pc = lpc
            raise
        cpu.icount = icount
        cpu.pc = lpc
        raise MemoryFault(pc, "fetch").at(lpc)
    except Trap as trap:
        cpu.icount = icount
        cpu.pc = lpc
        raise trap.at(lpc)
    except BaseException:
        cpu.icount = icount
        cpu.pc = lpc
        raise
    finally:
        if not timed:
            cpu.timers.add("execute", perf_counter() - t0)
