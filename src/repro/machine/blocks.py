"""Basic-block fusion execution engine.

The decoded engine (:mod:`repro.machine.decode`) pays a fixed
dispatch tax per *instruction*: a list index, an instruction-limit
compare, a faulting-pc bookkeeping store, a closure call and a
next-pc select.  This module amortizes that tax over straight-line
runs:

1. **Block discovery** — a linear pass over the linked program finds
   block leaders (the entry point, branch/call targets, fallthrough
   points after control transfers, and ``setcode`` immediates, which
   are the ISA's function-pointer constants) and grows each leader
   into a maximal straight-line block, giving a CFG of
   :class:`BasicBlock` nodes.

2. **Superinstruction fusion** — each block is compiled into one
   *block closure*: a generated function executing the whole block
   in a single call.  Every instruction shape with a template —
   ``mov``, ``add``/``sub``, compares, the non-propagating ALU ops,
   branches, ``call``/``callr``/``ret``, every ``load``/``store``
   form and size, ``setbound`` and ``sbrk`` — is inlined as source
   with its operands bound as fast locals; the rest (printing,
   ``halt``/``abort``, the rarer metadata ops, division by a zero
   immediate) calls the instruction's decoded closure from
   :func:`repro.machine.decode.decode_program` unchanged.  Generated
   code objects are cached by the block's *shape signature*, so two
   blocks with the same instruction shapes share one compilation.

   The word memory templates inline the whole load/store body of
   the decoded engine's own fast path: effective-address arithmetic,
   the HardBound bounds check, the flat-heap segment check (which
   doubles as arena routing — see :mod:`repro.machine.memory`), the
   word-view access, the timing charge and the pointer-metadata
   load/store.  The charge mirrors the decoded closure's probe call:
   only the composite-MRU hit of the
   :class:`~repro.caches.fast.FastMemorySystem` probe (an access
   repeating the previous probe's granule, which just bumps the
   access counters) is inline; everything else calls the run's
   shared word+tag or data probe, so a memory op costs a few lines
   of generated source whatever the cache geometry.  Every other
   memory shape — sub-word sizes, index-only and absolute forms,
   ablated or substituted metadata engines, the classic timing
   model, observers, the temporal tracker — fuses as a mirror of the
   decoded *generic* closure, calling the same env-bound entry
   points in the same order.  **Template invariant:** every template
   is a source-level copy of the corresponding decoded closure body —
   same statement order, same counter increments, same trap types and
   messages — so fused and single-stepped execution are
   indistinguishable; the engine differential suite and the fuzz
   oracle enforce this.

3. **Fusion plans** — CFG discovery and template selection depend
   only on the program and the template-selection context, so their
   outcome is recorded in a program-keyed :class:`_Plan`; a later run
   of the same program re-binds the recorded closure-argument vectors
   instead of rebuilding.  The plan covers every block (so does the
   closure-fallback tally), but a fuser is compiled only when its
   block is first dispatched: blocks whose shape signature is already
   compiled bind at run start, and the rest wait in a pending map
   until the run loop first reaches their leader.  Code that never
   runs is never handed to CPython's ``compile()``, and every block
   entered at its leader still runs fused.

4. **Block-threaded dispatch** — the run loop executes one block per
   iteration: one table lookup, one limit compare against the whole
   block length, one call.

Trap semantics stay **bit-identical** to the other engines without
slowing the happy path: the generator records which source line
belongs to which instruction offset, so when something raises, the
faulting offset is recovered from the exception traceback's line
number in the block frame and the instruction count is rewound to
exactly what the per-instruction engines would report.  Control
transfers into the middle of a block (a computed ``callr`` into a
non-leader pc) fall back to single-instruction stepping on the same
decoded closures, as does any block that could bust the instruction
limit mid-flight.
"""

from __future__ import annotations

import re
import types
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import Op, REG_FP, REG_RA, REG_SP
from repro.isa.program import Program
from repro.layout import (
    GLOBAL_BASE,
    HEAP_BASE,
    MASK32,
    MAXINT,
    STACK_TOP,
    to_signed,
)
from repro.machine.errors import (
    BoundsError,
    DivideByZeroError,
    HaltSignal,
    InstructionLimitExceeded,
    InvalidCodePointerError,
    MemoryFault,
    NonPointerError,
    Trap,
)

#: opcodes that end a basic block (transfer or stop control)
TERMINATORS = frozenset({
    Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL, Op.CALLR, Op.RET,
    Op.HALT, Op.ABORT,
})

#: opcodes with a static branch/call target
_TARGETED = frozenset({Op.JMP, Op.BEQZ, Op.BNEZ, Op.CALL})

#: cap on fused block length; the capped tail simply becomes the next
#: block, entered by fallthrough
MAX_BLOCK_LEN = 64


class BasicBlock:
    """One CFG node: a maximal straight-line instruction run.

    ``succs`` holds the *static* successor pcs: branch targets and
    fallthrough points.  Indirect transfers (``callr``/``ret``) and
    program exit have no static successors.
    """

    __slots__ = ("start", "length", "succs")

    def __init__(self, start: int, length: int,
                 succs: Tuple[int, ...]):
        self.start = start
        self.length = length
        self.succs = succs

    @property
    def end(self) -> int:
        """pc one past the last instruction of the block."""
        return self.start + self.length

    def __repr__(self):
        return ("BasicBlock(%d..%d -> %s)"
                % (self.start, self.end - 1, list(self.succs)))


def find_leaders(program: Program) -> set:
    """Pcs where a basic block may begin.

    Leaders are the program entry, every static branch/call target,
    the instruction after every control transfer (branch fallthrough
    and call/``callr`` return point), and every in-range ``setcode``
    immediate — the only way this ISA materializes a code-pointer
    constant for an indirect call.
    """
    instrs = program.instrs
    n = len(instrs)
    leaders = set()
    if not n:
        return leaders
    leaders.add(program.entry)
    for i, instr in enumerate(instrs):
        op = instr.op
        if op in _TARGETED:
            target = instr.target
            if target is not None and 0 <= target < n:
                leaders.add(target)
            if i + 1 < n:
                leaders.add(i + 1)
        elif op in TERMINATORS:  # callr/ret/halt/abort
            if i + 1 < n:
                leaders.add(i + 1)
        elif op is Op.SETCODE and instr.rs is None:
            target = (instr.imm or 0) & MASK32
            if target < n:
                leaders.add(target)
    return leaders


def _static_succs(program: Program, start: int,
                  length: int) -> Tuple[int, ...]:
    instrs = program.instrs
    n = len(instrs)
    last = instrs[start + length - 1]
    op = last.op
    fall = start + length
    if op is Op.JMP:
        return (last.target,)
    if op in (Op.BEQZ, Op.BNEZ):
        succs = [last.target]
        if fall < n:
            succs.append(fall)
        return tuple(succs)
    if op is Op.CALL:
        return (last.target,)
    if op in (Op.CALLR, Op.RET, Op.HALT, Op.ABORT):
        return ()
    return (fall,) if fall < n else ()


def build_cfg(program: Program) -> List[BasicBlock]:
    """Discover the basic blocks of a linked program, in pc order.

    Every leader opens a block that extends to the first terminator,
    the instruction before the next leader, or the fusion cap,
    whichever comes first.  Capped tails open follow-on blocks at
    non-leader pcs (they are only ever entered by fallthrough).
    """
    instrs = program.instrs
    n = len(instrs)
    leaders = find_leaders(program)
    blocks: List[BasicBlock] = []
    starts = sorted(leaders)
    seen = set()
    while starts:
        next_starts: List[int] = []
        for start in starts:
            if start in seen:
                continue
            seen.add(start)
            j = start
            while True:
                if instrs[j].op in TERMINATORS:
                    break
                nxt = j + 1
                if nxt >= n or nxt in leaders or nxt in seen:
                    break
                if nxt - start >= MAX_BLOCK_LEN:
                    next_starts.append(nxt)
                    break
                j = nxt
            length = j - start + 1
            blocks.append(BasicBlock(
                start, length, _static_succs(program, start, length)))
        starts = sorted(next_starts)
    blocks.sort(key=lambda b: b.start)
    return blocks


# -- superinstruction templates ----------------------------------------------

# Each fused instruction is a *part*: a template id (the shape), the
# parameters it pulls into the generated function's closure, and its
# source lines.  Blocks with equal shape-id tuples share one compiled
# code object; operands travel as closure cells, never as literals.

_M32 = str(MASK32)
_MSB = str(0x80000000)
_MAX = str(MAXINT)
_RA = str(REG_RA)

#: comparison expression templates, mirrored from decode.build_cmp
_CMP_RR = {
    Op.SEQ: "value[rs{i}] == value[rt{i}]",
    Op.SNE: "value[rs{i}] != value[rt{i}]",
    Op.SLT: "(value[rs{i}] ^ %s) < (value[rt{i}] ^ %s)" % (_MSB, _MSB),
    Op.SLE: "(value[rs{i}] ^ %s) <= (value[rt{i}] ^ %s)" % (_MSB, _MSB),
    Op.SGT: "(value[rs{i}] ^ %s) > (value[rt{i}] ^ %s)" % (_MSB, _MSB),
    Op.SGE: "(value[rs{i}] ^ %s) >= (value[rt{i}] ^ %s)" % (_MSB, _MSB),
    Op.SLTU: "value[rs{i}] < value[rt{i}]",
    Op.SGEU: "value[rs{i}] >= value[rt{i}]",
}
_CMP_RI = {
    Op.SEQ: "value[rs{i}] == k{i}",
    Op.SNE: "value[rs{i}] != k{i}",
    Op.SLT: "(value[rs{i}] ^ %s) < k{i}" % _MSB,
    Op.SLE: "(value[rs{i}] ^ %s) <= k{i}" % _MSB,
    Op.SGT: "(value[rs{i}] ^ %s) > k{i}" % _MSB,
    Op.SGE: "(value[rs{i}] ^ %s) >= k{i}" % _MSB,
    Op.SLTU: "value[rs{i}] < k{i}",
    Op.SGEU: "value[rs{i}] >= k{i}",
}
_SIGNED_CMPS = frozenset({Op.SLT, Op.SLE, Op.SGT, Op.SGE})
_NONPROP = frozenset({Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
                      Op.SHL, Op.SHR, Op.SRA})

#: inline bodies for the non-propagating ALU ops whose semantics are
#: pure expressions (div/mod have their own templates — they raise).
#: The register forms mirror the ``_NONPROP_FNS``
#: bodies over masked register values (``to_signed(a)`` is
#: ``(a ^ MSB) - MSB`` for masked ``a``); the immediate forms bake
#: the constant's transformation (sign-extension, shift masking) in
#: at template-build time.
_SGN = "((value[%s{i}] ^ " + _MSB + ") - " + _MSB + ")"
_NP_RR_EXPR = {
    Op.MUL: _SGN % "rs" + " * " + _SGN % "rt",
    Op.AND: "value[rs{i}] & value[rt{i}]",
    Op.OR: "value[rs{i}] | value[rt{i}]",
    Op.XOR: "value[rs{i}] ^ value[rt{i}]",
    Op.SHL: "value[rs{i}] << (value[rt{i}] & 31)",
    Op.SHR: "value[rs{i}] >> (value[rt{i}] & 31)",
    Op.SRA: _SGN % "rs" + " >> (value[rt{i}] & 31)",
}
_NP_RI_EXPR = {
    Op.MUL: _SGN % "rs" + " * k{i}",
    Op.AND: "value[rs{i}] & k{i}",
    Op.OR: "value[rs{i}] | k{i}",
    Op.XOR: "value[rs{i}] ^ k{i}",
    Op.SHL: "value[rs{i}] << k{i}",
    Op.SHR: "value[rs{i}] >> k{i}",
    Op.SRA: _SGN % "rs" + " >> k{i}",
}


def _np_imm(op, k: int) -> int:
    """The immediate exactly as the ``_NONPROP_FNS`` body consumes it."""
    if op is Op.MUL:
        return to_signed(k)
    if op in (Op.SHL, Op.SHR, Op.SRA):
        return k & 31
    return k


class _Part:
    """One fused instruction: shape id, closure params, source lines.

    ``closure_pc`` is set on decoded-closure fallback parts: the pc
    whose per-run closure the part's first parameter takes.  The
    fusion plan cache stores specs with those positions marked so
    every run binds its own closures (everything else — operand
    registers, immediates — is program-stable).
    """

    __slots__ = ("shape", "params", "lines", "closure_pc")

    def __init__(self, shape: str, params: List[Tuple[str, object]],
                 lines: List[str], closure_pc: Optional[int] = None):
        self.shape = shape
        self.params = params
        self.lines = lines
        self.closure_pc = closure_pc


class _FuseCtx:
    """Build-time facts that select and specialize templates.

    ``fuse_hb_mem`` / ``fuse_plain_mem`` hold exactly when the
    decoded engine would take its own inline memory fast path, so a
    fused memory template never covers a configuration the decoded
    closures would route through generic engine calls.

    The remaining facts select the generic memory templates and the
    ``setbound``/``sbrk`` templates, which fuse as source-level
    mirrors of the decoded *generic* closures (calling the same
    env-bound engine entry points in the same order, so the
    equivalence holds for every configuration, ablations and
    substituted engines included).
    """

    __slots__ = ("observer_none", "full_mode", "fuse_hb_mem",
                 "hb_timing", "fuse_plain_mem", "plain_timing",
                 "hb_present", "inline_check", "use_words",
                 "has_temporal", "timing", "comp_expr", "comp_tag")

    def __init__(self, env):
        self.observer_none = env.observer is None
        self.full_mode = env.full_mode
        self.hb_present = env.hb is not None
        self.inline_check = env.inline_check
        self.use_words = env.use_words
        self.has_temporal = env.temporal_check is not None
        # splice the stock encodings' compressibility decision
        # straight into the metadata templates (subclassed encodings
        # return None and keep the _isc call)
        self.comp_expr = None
        self.comp_tag = ""
        if env.hb is not None:
            from repro.metadata.encodings import inline_compressible_expr
            expr = inline_compressible_expr(env.hb.encoding,
                                            "v", "mb", "mbd")
            if expr is not None:
                self.comp_expr = expr
                self.comp_tag = "_c" + type(env.hb.encoding).__name__
        mem_ok = (env.use_words and env.temporal_check is None
                  and self.observer_none)
        timing = env.memsys is not None
        self.timing = timing
        self.hb_timing = env.wprobe is not None
        self.fuse_hb_mem = (mem_ok and env.inline_check
                            and (not timing or self.hb_timing))
        self.plain_timing = env.dprobe is not None
        self.fuse_plain_mem = (mem_ok and env.hb is None
                               and (not timing or self.plain_timing))

    def key(self) -> tuple:
        """Everything template selection depends on (the plan key)."""
        return (self.observer_none, self.full_mode, self.fuse_hb_mem,
                self.hb_timing, self.fuse_plain_mem,
                self.plain_timing, self.hb_present, self.inline_check,
                self.use_words, self.has_temporal, self.timing,
                self.comp_tag)


# -- memory template fragments ----------------------------------------------

# Mirrored line for line from the decoded closures (load_s_word and
# friends in repro.machine.decode): same statement order, same counter
# increments, same trap types/messages.  The segment check doubles as
# flat-arena routing; unaligned words spill to the raw entry points.

_HEAP = str(HEAP_BASE)
_GLOB = str(GLOBAL_BASE)
_STOP = str(STACK_TOP)

# The fast memory-model charges, as the decoded word closures make
# them: the composite-MRU hit inline (only the access counters
# advance), every other access through the run's shared probe.
_WPROBE_LINES = [
    "wkey = ea >> _wps",
    "if wkey == _wpm[0] and (ea + 3) >> _wps == wkey:",
    "    _wdc[0] += 1",
    "    _wtc[0] += 1",
    "else:",
    "    _wp(ea)",
]
_DPROBE_LINES = [
    "bkey = ea >> _dps",
    "if bkey == _dpm[0] and (ea + 3) >> _dps == bkey:",
    "    _dpc[0] += 1",
    "else:",
    "    _dp(ea)",
]


def _word_read_lines(acc: str, stack_first: bool) -> List[str]:
    """Merged segment check + flat-arena word read into ``v``.

    The three segment ranges are disjoint, so the check order is
    unobservable (same value, same ``MemoryFault`` otherwise);
    frame-register addressing therefore probes the stack arena first
    (``stack_first``), where the heap and globals compares would
    almost always fail.
    """
    heap = [
        "if %s <= ea and end <= _mem.brk:" % _HEAP,
        "    v = _heap[1][(ea - %s) >> 2] if not ea & 3 "
        "else _rr(ea, 4)" % _HEAP,
    ]
    glob = [
        "if %s <= ea and end <= _gl:" % _GLOB,
        "    v = _glob[1][(ea - %s) >> 2] if not ea & 3 "
        "else _rr(ea, 4)" % _GLOB,
    ]
    stack = [
        "if _sb <= ea and end <= %s:" % _STOP,
        "    v = _stk[1][(ea - _sb) >> 2] if not ea & 3 "
        "else _rr(ea, 4)",
    ]
    order = (stack + heap + glob) if stack_first \
        else (heap + glob + stack)
    lines = ["end = ea + 4"] + order[:2]
    for branch in (order[2:4], order[4:6]):
        lines.append("el" + branch[0])
        lines.append(branch[1])
    lines += ["else:", "    raise _mf(ea, %r)" % acc]
    return lines


def _word_write_lines(acc: str, stack_first: bool) -> List[str]:
    """Merged segment check + flat-arena word write of ``v``."""
    heap = [
        "if %s <= ea and end <= _mem.brk:" % _HEAP,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _heap[1][(ea - %s) >> 2] = v" % _HEAP,
    ]
    glob = [
        "if %s <= ea and end <= _gl:" % _GLOB,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _glob[1][(ea - %s) >> 2] = v" % _GLOB,
    ]
    stack = [
        "if _sb <= ea and end <= %s:" % _STOP,
        "    if ea & 3:",
        "        _rw(ea, 4, v)",
        "    else:",
        "        _stk[1][(ea - _sb) >> 2] = v",
    ]
    order = (stack + heap + glob) if stack_first \
        else (heap + glob + stack)
    lines = ["end = ea + 4", "v = value[rd{i}]"] + order[:5]
    for branch in (order[5:10], order[10:15]):
        lines.append("el" + branch[0])
        lines.extend(branch[1:])
    lines += ["else:", "    raise _mf(ea, %r)" % acc]
    return lines


def _hb_check_lines(acc: str, si: bool, frame: bool,
                    full: bool) -> List[str]:
    """Figure 3C/D bounds check, specialized for the operand form."""
    lines = ["b = rbase[rs{i}]", "bd = rbound[rs{i}]"]
    if si:
        lines += [
            "if not (b or bd):",
            "    b = rbase[rt{i}]",
            "    bd = rbound[rt{i}]",
        ]
    lines += [
        "if b or bd:",
        "    _hbs.checks += 1",
        "    if ea < b or ea >= bd:",
        "        raise _be(ea, b, bd, %r)" % acc,
    ]
    # frame-register accesses without bounds are compiler-owned and
    # exempt; the branch is resolved at template-build time
    if not frame:
        if full:
            lines += ["else:",
                      "    raise _npe(value[rs{i}], %r)" % acc]
        else:
            lines += ["else:",
                      "    _hbs.nonpointer_derefs += 1"]
    return lines


def _load_meta_lines(timing: bool, comp: str) -> List[str]:
    """HardBound word-load metadata path (load_word_meta inlined).

    ``comp`` is the compressibility test: the decision spliced in as
    an inline expression (stock encodings), or the ``_isc`` closure
    call.
    """
    lines = [
        "meta = _mg(ea & -4)",
        "if meta is None:",
        "    value[rd{i}] = v",
        "    rbase[rd{i}] = 0",
        "    rbound[rd{i}] = 0",
        "else:",
        "    mb, mbd = meta",
        "    _hbs.pointer_loads += 1",
        "    if %s:" % comp,
        "        _hbs.compressed_loads += 1",
        "    else:",
        "        _hbs.meta_uops += 1",
    ]
    if timing:
        lines.append("        _sp(ea & -4)")
    lines += [
        "    value[rd{i}] = v",
        "    rbase[rd{i}] = mb",
        "    rbound[rd{i}] = mbd",
    ]
    return lines


def _store_meta_lines(timing: bool, comp: str) -> List[str]:
    """HardBound word-store metadata path (store_word_meta inlined)."""
    lines = [
        "key = ea & -4",
        "mb = rbase[rd{i}]",
        "mbd = rbound[rd{i}]",
        "if mb == 0 and mbd == 0:",
        "    _mp(key, None)",
        "else:",
        "    _meta[key] = (mb, mbd)",
        "    _hbs.pointer_stores += 1",
        "    if %s:" % comp,
        "        _hbs.compressed_stores += 1",
        "    else:",
        "        _hbs.meta_uops += 1",
    ]
    if timing:
        lines.append("        _sp(key)")
    return lines


def _mem_part(instr, i: int, ctx: _FuseCtx) -> Optional[_Part]:
    """Fused word load/store template, or ``None`` for the closure.

    Emitted only for the shapes the decoded engine fast-paths itself
    (word size, base-register form present); the template body is a
    source-level copy of the matching decoded closure.
    """
    if instr.size != 4 or instr.rs is None:
        return None
    load = instr.op is Op.LOAD
    acc = "read" if load else "write"
    si = instr.rt is not None
    params = [("rd%d" % i, instr.rd), ("rs%d" % i, instr.rs)]
    if si:
        params += [("rt%d" % i, instr.rt), ("sc%d" % i, instr.scale)]
        ea_line = ("ea = (value[rs{i}] + value[rt{i}] * sc{i} + k{i})"
                   " & %s" % _M32)
    else:
        ea_line = "ea = (value[rs{i}] + k{i}) & %s" % _M32
    params.append(("k%d" % i, instr.disp))
    frame = instr.rs in (REG_SP, REG_FP)
    if ctx.fuse_hb_mem:
        timing = ctx.hb_timing
        comp = ctx.comp_expr or "_isc(v, mb, mbd)"
        shape = "%shb_%s%d%d%d%s" % ("ld" if load else "st",
                                     "si" if si else "s",
                                     frame, ctx.full_mode, timing,
                                     ctx.comp_tag)
        lines = [ea_line]
        lines += _hb_check_lines(acc, si, frame, ctx.full_mode)
        if load:
            lines += _word_read_lines(acc, frame)
            if timing:
                lines += _WPROBE_LINES
            lines += _load_meta_lines(timing, comp)
        else:
            lines += _word_write_lines(acc, frame)
            if timing:
                lines += _WPROBE_LINES
            lines += _store_meta_lines(timing, comp)
        return _Part(shape, params, lines)
    if ctx.fuse_plain_mem:
        timing = ctx.plain_timing
        shape = "%spl_%s%d%d" % ("ld" if load else "st",
                                 "si" if si else "s", frame, timing)
        lines = [ea_line]
        if load:
            lines += _word_read_lines(acc, frame)
            if timing:
                lines += _DPROBE_LINES
            lines += ["value[rd{i}] = v",
                      "rbase[rd{i}] = 0",
                      "rbound[rd{i}] = 0"]
        else:
            lines += _word_write_lines(acc, frame)
            if timing:
                lines += _DPROBE_LINES
        return _Part(shape, params, lines)
    return None


def _memgen_part(instr, i: int, ctx: _FuseCtx) -> Optional[_Part]:
    """Fused mirror of the decoded *generic* load/store closure.

    Covers every shape the decoded engine routes through
    ``load_generic``/``store_generic`` — sub-word sizes, index-only
    and absolute forms, ablated or substituted metadata engines,
    classic timing model, observers and the temporal tracker — by
    calling the same env-bound entry points (``mem_read``,
    ``data_access``, ``hb.check``, ``hb.load_sub_meta``, ...) in the
    same statement order, with the constant branches (is an engine
    attached? an observer? word or sub-word?) resolved at
    template-build time.  Shapes the decoded engine word-inlines are
    declined here; :func:`_mem_part` or the closure fallback owns
    them.
    """
    op_load = instr.op is Op.LOAD
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    size = instr.size
    if (ctx.hb_present and rs is not None and ctx.inline_check
            and size == 4 and ctx.use_words):
        return None  # decoded inlines these (load_s_word & friends)
    if (not ctx.hb_present and size == 4 and rs is not None
            and rt is None and ctx.use_words):
        return None  # decoded inlines these (load_s_word_plain)
    acc = "read" if op_load else "write"
    checked = ctx.hb_present and rs is not None
    params: List[Tuple[str, object]] = [("rd%d" % i, rd)]
    # effective address, mirroring decode's make_ea forms
    if rs is not None and rt is not None:
        params += [("rs%d" % i, rs), ("rt%d" % i, rt),
                   ("sc%d" % i, instr.scale), ("k%d" % i, instr.disp)]
        lines = ["ea = (value[rs{i}] + value[rt{i}] * sc{i} + k{i})"
                 " & %s" % _M32]
        form = "si"
    elif rs is not None:
        params += [("rs%d" % i, rs), ("k%d" % i, instr.disp)]
        lines = ["ea = (value[rs{i}] + k{i}) & %s" % _M32]
        form = "s"
    elif rt is not None:
        params += [("rt%d" % i, rt), ("sc%d" % i, instr.scale),
                   ("k%d" % i, instr.disp)]
        lines = ["ea = (value[rt{i}] * sc{i} + k{i}) & %s" % _M32]
        form = "i"
    else:
        params += [("k%d" % i, instr.disp & MASK32)]
        lines = ["ea = k{i}"]
        form = "a"
    frame = rs in (REG_SP, REG_FP)
    if checked:
        # make_mem_check inlined: pick the guarding register
        # (base preferred, index as fallback), exempt meta-less
        # frame accesses, hand everything else to the engine's check
        if rt is not None:
            lines += [
                "if rbase[rs{i}] or rbound[rs{i}]:",
                "    sv = value[rs{i}]",
                "    b = rbase[rs{i}]",
                "    bd = rbound[rs{i}]",
                "elif rbase[rt{i}] or rbound[rt{i}]:",
                "    sv = value[rt{i}]",
                "    b = rbase[rt{i}]",
                "    bd = rbound[rt{i}]",
                "else:",
                "    sv = value[rs{i}]",
                "    b = rbase[rs{i}]",
                "    bd = rbound[rs{i}]",
            ]
        else:
            lines += ["sv = value[rs{i}]",
                      "b = rbase[rs{i}]",
                      "bd = rbound[rs{i}]"]
        call = ("_hbc(sv, b, bd, ea, %d, %r, %s)"
                % (size, acc, ctx.full_mode))
        if frame:
            lines += ["if b or bd:", "    " + call]
        else:
            lines.append(call)
    if ctx.has_temporal:
        lines.append("_tc(ea, %d)" % size)
    if op_load:
        lines.append("v = _mr(ea, %d)" % size)
    else:
        lines += ["v = value[rd{i}]", "_mw(ea, %d, v)" % size]
    if ctx.timing:
        lines.append("_da(ea, %d, %s, 'data')" % (size, not op_load))
    if not ctx.observer_none:
        lines.append("_ob.on_mem(ea, %d, %s)" % (size, not op_load))
    if op_load:
        if ctx.hb_present and size == 4:
            lines += ["b, bd = _hblw(ea, v)",
                      "value[rd{i}] = v",
                      "rbase[rd{i}] = b",
                      "rbound[rd{i}] = bd"]
        else:
            if ctx.hb_present:
                lines.append("_hbls(ea)")
            lines += ["value[rd{i}] = v",
                      "rbase[rd{i}] = 0",
                      "rbound[rd{i}] = 0"]
    elif ctx.hb_present:
        if size == 4:
            lines.append("_hbsw(ea, v, rbase[rd{i}], rbound[rd{i}])")
        else:
            lines.append("_hbss(ea)")
    shape = "%sgen_%s%d%d%d%d%d%d%d" % (
        "ld" if op_load else "st", form, size, frame, checked,
        ctx.full_mode, ctx.has_temporal, ctx.timing,
        not ctx.observer_none)
    if ctx.hb_present:
        shape += "h"
    return _Part(shape, params, lines)


def _setbound_part(instr, i: int, ctx: _FuseCtx) -> _Part:
    """Fused ``setbound`` (build_setbound mirrored line for line)."""
    params = [("rd%d" % i, instr.rd), ("rs%d" % i, instr.rs)]
    lines = ["v = value[rs{i}]"]
    if instr.rt is not None:
        params.append(("rt%d" % i, instr.rt))
        lines.append("sz = value[rt{i}]")
        form = "r"
    else:
        params.append(("k%d" % i, instr.imm or 0))
        lines.append("sz = k{i}")
        form = "i"
    lines += [
        "value[rd{i}] = v",
        "rbase[rd{i}] = v",
        "rbound[rd{i}] = (v + sz) & %s" % _M32,
        "_cpu.setbound_count += 1",
    ]
    if ctx.hb_present:
        lines.append("_hbs.setbound_uops += 1")
    if ctx.has_temporal:
        lines.append("_tmp.mark_allocated(v, (v + sz) & %s)" % _M32)
    if not ctx.observer_none:
        lines.append("_ob.on_setbound(v, sz)")
    shape = "setbound_%s%d%d%d" % (form, ctx.hb_present,
                                   ctx.has_temporal,
                                   not ctx.observer_none)
    return _Part(shape, params, lines)


def _sbrk_part(instr, i: int) -> _Part:
    """Fused ``sbrk`` (build_sbrk mirrored line for line)."""
    return _Part("sbrk",
                 [("rd%d" % i, instr.rd), ("rs%d" % i, instr.rs)],
                 ["v = _sbrk(_tsg(value[rs{i}]))",
                  "value[rd{i}] = v",
                  "rbase[rd{i}] = 0",
                  "rbound[rd{i}] = 0"])


def _closure_part(i: int, terminator: bool, pc: int) -> _Part:
    """Call of the decoded closure for ``pc`` (bound per run, see
    :class:`_CodeRef`)."""
    if terminator:
        return _Part("ft", [("f%d" % i, None), ("t%d" % i, pc)],
                     ["return f{i}(t{i})"], closure_pc=pc)
    return _Part("f", [("f%d" % i, None)], ["f{i}(0)"], closure_pc=pc)


def _template_part(instr, i: int, pc: int,
                   ctx: _FuseCtx) -> Optional[_Part]:
    """Template for one instruction, or ``None`` to use its closure.

    Every template is a source-level copy of the corresponding
    decoded closure body (same statement order, same trap types);
    the engine differential suite enforces the equivalence.
    """
    op = instr.op
    observer_none = ctx.observer_none
    full_mode = ctx.full_mode
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    if op in (Op.LOAD, Op.STORE):
        part = _mem_part(instr, i, ctx)
        if part is None:
            part = _memgen_part(instr, i, ctx)
        return part
    if op is Op.SETBOUND:
        return _setbound_part(instr, i, ctx)
    if op is Op.SBRK:
        return _sbrk_part(instr, i)
    if op is Op.MOV:
        if rs is not None:
            return _Part("movrr", [("rd%d" % i, rd), ("rs%d" % i, rs)],
                         ["value[rd{i}] = value[rs{i}]",
                          "rbase[rd{i}] = rbase[rs{i}]",
                          "rbound[rd{i}] = rbound[rs{i}]"])
        return _Part("movri",
                     [("rd%d" % i, rd),
                      ("k%d" % i, (instr.imm or 0) & MASK32)],
                     ["value[rd{i}] = k{i}",
                      "rbase[rd{i}] = 0",
                      "rbound[rd{i}] = 0"])
    if op in (Op.ADD, Op.SUB) and observer_none:
        if rt is not None:
            sign = "-" if op is Op.SUB else "+"
            return _Part("addsubrr" + sign,
                         [("rd%d" % i, rd), ("rs%d" % i, rs),
                          ("rt%d" % i, rt)],
                         ["v = (value[rs{i}] %s value[rt{i}]) & %s"
                          % (sign, _M32),
                          "if rbase[rs{i}] or rbound[rs{i}]:",
                          "    value[rd{i}] = v",
                          "    rbase[rd{i}] = rbase[rs{i}]",
                          "    rbound[rd{i}] = rbound[rs{i}]",
                          "else:",
                          "    value[rd{i}] = v",
                          "    rbase[rd{i}] = rbase[rt{i}]",
                          "    rbound[rd{i}] = rbound[rt{i}]"])
        k = instr.imm or 0
        if op is Op.SUB:
            k = -k
        return _Part("addsubri",
                     [("rd%d" % i, rd), ("rs%d" % i, rs),
                      ("k%d" % i, k)],
                     ["v = (value[rs{i}] + k{i}) & %s" % _M32,
                      "if rbase[rs{i}] or rbound[rs{i}]:",
                      "    value[rd{i}] = v",
                      "    rbase[rd{i}] = rbase[rs{i}]",
                      "    rbound[rd{i}] = rbound[rs{i}]",
                      "else:",
                      "    value[rd{i}] = v",
                      "    rbase[rd{i}] = 0",
                      "    rbound[rd{i}] = 0"])
    if op in _CMP_RR:
        if rt is not None:
            expr = _CMP_RR[op]
            shape = "cmp_rr_" + op.value
            params = [("rd%d" % i, rd), ("rs%d" % i, rs),
                      ("rt%d" % i, rt)]
        else:
            # mirror build_cmp's immediate pre-transformations
            k = instr.imm or 0
            if op in (Op.SEQ, Op.SNE):
                k &= MASK32
            elif op in _SIGNED_CMPS:
                k = (k & MASK32) ^ 0x80000000
            expr = _CMP_RI[op]
            shape = "cmp_ri_" + op.value
            params = [("rd%d" % i, rd), ("rs%d" % i, rs),
                      ("k%d" % i, k)]
        return _Part(shape, params,
                     ["value[rd{i}] = 1 if " + expr + " else 0",
                      "rbase[rd{i}] = 0",
                      "rbound[rd{i}] = 0"])
    if op in _NONPROP:
        if op in _NP_RR_EXPR:
            if rt is not None:
                expr = _NP_RR_EXPR[op]
                params = [("rd%d" % i, rd), ("rs%d" % i, rs),
                          ("rt%d" % i, rt)]
                shape = "npx_rr_" + op.value
            else:
                expr = _NP_RI_EXPR[op]
                params = [("rd%d" % i, rd), ("rs%d" % i, rs),
                          ("k%d" % i, _np_imm(op, instr.imm or 0))]
                shape = "npx_ri_" + op.value
            return _Part(shape, params,
                         ["value[rd{i}] = (" + expr + ") & %s" % _M32,
                          "rbase[rd{i}] = 0",
                          "rbound[rd{i}] = 0"])
        if op in (Op.DIV, Op.MOD):
            # inline C truncating division/remainder: a source-level
            # copy of decode._div/_mod (closure-call free).  Register
            # values are always in [0, 2**32), so the sign test is
            # the plain to_signed branch.
            is_div = op is Op.DIV
            compute = ("q = abs(sa) // abs(sb)" if is_div
                       else "q = abs(sa) % abs(sb)")
            result = ("(q if (sa < 0) == (sb < 0) else -q)" if is_div
                      else "(q if sa >= 0 else -q)")
            head = ["sa = value[rs{i}]",
                    "if sa >= 2147483648:",
                    "    sa -= 4294967296"]
            tail = [compute,
                    "value[rd{i}] = %s & %s" % (result, _M32),
                    "rbase[rd{i}] = 0",
                    "rbound[rd{i}] = 0"]
            if rt is not None:
                return _Part(
                    ("divrr" if is_div else "modrr"),
                    [("rd%d" % i, rd), ("rs%d" % i, rs),
                     ("rt%d" % i, rt)],
                    head + ["sb = value[rt{i}]",
                            "if sb >= 2147483648:",
                            "    sb -= 4294967296",
                            "if sb == 0:",
                            "    raise _dbz()"] + tail)
            sk = to_signed(instr.imm or 0)
            if sk != 0:
                # the immediate's sign and magnitude are bind-time
                # constants; a zero immediate keeps the closure
                # fallback (raises the identical trap every time)
                if is_div:
                    ri_lines = [
                        "q = abs(sa) // ka{i}",
                        "value[rd{i}] = (q if (sa < 0) == kn{i}"
                        " else -q) & %s" % _M32]
                else:
                    ri_lines = [
                        "q = abs(sa) % ka{i}",
                        "value[rd{i}] = (q if sa >= 0 else -q)"
                        " & %s" % _M32]
                return _Part(
                    ("divri" if is_div else "modri"),
                    [("rd%d" % i, rd), ("rs%d" % i, rs),
                     ("ka%d" % i, abs(sk)), ("kn%d" % i, sk < 0)],
                    head + ri_lines
                    + ["rbase[rd{i}] = 0", "rbound[rd{i}] = 0"])
        return None
    if op is Op.JMP:
        return _Part("jmp", [("t%d" % i, instr.target)],
                     ["return t{i}"])
    if op is Op.BEQZ:
        return _Part("beqz", [("t%d" % i, instr.target),
                              ("rs%d" % i, rs)],
                     ["return t{i} if value[rs{i}] == 0 else None"])
    if op is Op.BNEZ:
        return _Part("bnez", [("t%d" % i, instr.target),
                              ("rs%d" % i, rs)],
                     ["return t{i} if value[rs{i}] != 0 else None"])
    if op is Op.CALL:
        return _Part("call", [("t%d" % i, instr.target),
                              ("r%d" % i, (pc + 1) & MASK32)],
                     ["value[%s] = r{i}" % _RA,
                      "rbase[%s] = %s" % (_RA, _MAX),
                      "rbound[%s] = %s" % (_RA, _MAX),
                      "return t{i}"])
    if op is Op.RET:
        lines = ["t = value[%s]" % _RA]
        if full_mode:
            lines += ["if rbase[%s] != %s or rbound[%s] != %s:"
                      % (_RA, _MAX, _RA, _MAX),
                      "    raise _icpe(t)"]
        lines += ["if t >= _n:",
                  "    raise _icpe(t)",
                  "return t"]
        return _Part("ret%d" % full_mode, [], lines)
    if op is Op.CALLR:
        lines = ["t = value[rs{i}]"]
        if full_mode:
            lines += ["if rbase[rs{i}] != %s or rbound[rs{i}] != %s:"
                      % (_MAX, _MAX),
                      "    raise _icpe(t)"]
        lines += ["if t >= _n:",
                  "    raise _icpe(t)",
                  "value[%s] = r{i}" % _RA,
                  "rbase[%s] = %s" % (_RA, _MAX),
                  "rbound[%s] = %s" % (_RA, _MAX),
                  "return t"]
        return _Part("callr%d" % full_mode,
                     [("rs%d" % i, rs), ("r%d" % i, (pc + 1) & MASK32)],
                     lines)
    return None


#: pseudo-filename of the generated fuser source (shows in tracebacks)
_FUSE_FILENAME = "<repro-block-fuse>"

#: shape signature -> (fuse function, names of the env values it takes)
_fuse_cache: Dict[Tuple[str, ...], tuple] = {}
#: block code object -> {line number -> instruction offset}
_line_maps: Dict[object, Dict[int, int]] = {}


class _CodeRef:
    """Spec marker: 'this argument is the run's closure for ``pc``'."""

    __slots__ = ("pc",)

    def __init__(self, pc: int):
        self.pc = pc


class _Plan:
    """Program-keyed fusion plan.

    The expensive parts of fusing a program — CFG discovery and
    template selection — depend only on the program and the
    template-selection context, not on the run.  A plan records their
    outcome per block as ``(start, length, signature, spec)``: the
    signature keys the compiled fuser in ``_fuse_cache``, the spec is
    the flat closure-argument vector with per-run decoded closures
    marked by :class:`_CodeRef`.  Re-running the same program (the
    sharded harness and the benchmarks do, constantly) then reduces
    fusion to re-binding.  ``fallback`` is the build's tally of
    instructions left to their decoded closures, by op name.
    """

    __slots__ = ("blocks", "fallback")

    def __init__(self):
        self.blocks = None
        self.fallback: Dict[str, int] = {}


#: Program -> {plan key: _Plan}; weak so plans die with their program
_plan_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _part_spec(parts: List[_Part]) -> list:
    """Flat closure-argument vector with closure slots marked."""
    spec: list = []
    for part in parts:
        values = [value for _, value in part.params]
        if part.closure_pc is not None:
            values[0] = _CodeRef(part.closure_pc)
        spec.extend(values)
    return spec


#: shared environment names a template may reference -> the
#: :func:`~repro.machine.decode.bind_env` field bound to each: the
#: register arrays and program length, the memory environment (arena
#: cells, segment bounds, raw spill entry points), the HardBound
#: metadata environment, the fast timing model's probes with their
#: composite-hit cells, and the generic entry points the generic
#: templates call (``sbrk``, the byte-level memory accessors, the
#: timing/temporal/observer hooks and the metadata-engine methods)
_ENV_FIELDS = {
    "value": "value", "rbase": "rbase", "rbound": "rbound",
    "_n": "n_instrs",
    "_mem": "memory", "_heap": "heap_cell", "_glob": "glob_cell",
    "_stk": "stack_cell", "_gl": "globals_limit", "_sb": "stack_base",
    "_rr": "raw_read", "_rw": "raw_write",
    "_hbs": "hb_stats", "_meta": "meta_map", "_mg": "meta_get",
    "_mp": "meta_pop", "_isc": "is_comp", "_sp": "sprobe",
    "_wp": "wprobe", "_wpm": "wp_mru", "_wps": "wp_shift",
    "_wdc": "wp_dctr", "_wtc": "wp_tctr",
    "_dp": "dprobe", "_dpm": "dp_mru", "_dps": "dp_shift",
    "_dpc": "dp_ctr",
    "_sbrk": "mem_sbrk", "_mr": "mem_read", "_mw": "mem_write",
    "_da": "data_access", "_tc": "temporal_check", "_ob": "observer",
    "_tmp": "temporal", "_hbc": "hb_check", "_hblw": "hb_load_word",
    "_hbls": "hb_load_sub", "_hbsw": "hb_store_word",
    "_hbss": "hb_store_sub",
}

#: environment names bound to the same object in every run: the trap
#: constructors the templates raise and ``to_signed``
_ENV_CONSTANTS = {
    "_icpe": InvalidCodePointerError, "_be": BoundsError,
    "_npe": NonPointerError, "_mf": MemoryFault,
    "_dbz": DivideByZeroError, "_tsg": to_signed,
}

#: every shared environment name, in fuser-signature order (``_cpu``
#: is the running CPU)
_ENV_NAMES = tuple(_ENV_FIELDS) + ("_cpu",) + tuple(_ENV_CONSTANTS)


def _compile_fuser(signature: Tuple[str, ...],
                   parts: List[_Part]) -> int:
    """Compile the fuser for a block shape signature into
    ``_fuse_cache``; returns the generated source's size in bytes.

    The fuser takes the parts' operand parameters followed by the
    shared environment names the block body references, and
    re-binds each as a default-valued parameter of the generated
    block function: CPython then reads it as a fast local instead of
    a closure cell on every access, at the cost of one default copy
    per call.
    """
    body: List[str] = []
    line_of: Dict[int, int] = {}
    names: List[str] = []
    for offset, part in enumerate(parts):
        names.extend(name for name, _ in part.params)
        for raw in part.lines:
            body.append("        " + raw.format(i=offset))
            # +2: the fuse and block headers precede the body
            line_of[len(body) + 2] = offset
    referenced = set(re.findall(r"[A-Za-z_]\w*", "\n".join(body)))
    env_names = tuple(name for name in _ENV_NAMES if name in referenced)
    bound = [name for name in names if name in referenced]
    bound += env_names
    source = "\n".join(
        ["def _fuse(%s):" % ", ".join(names + list(env_names)),
         "    def _block(pc%s):" % "".join(", %s=%s" % (name, name)
                                          for name in bound)]
        + body + ["    return _block"])
    namespace: dict = {}
    exec(compile(source, _FUSE_FILENAME, "exec"), namespace)
    fuse = namespace["_fuse"]
    block_code = next(const for const in fuse.__code__.co_consts
                      if isinstance(const, types.CodeType)
                      and const.co_name == "_block")
    _fuse_cache[signature] = (fuse, env_names)
    _line_maps[block_code] = line_of
    return len(source)


class _Fuser:
    """Per-run fusion state.

    Holds the decoded closures, the template-selection context and
    the run's environment values, turns blocks into parts and
    records, and binds compiled fusers into block-table entries.
    ``compiles`` / ``source_bytes`` count the fusers this run handed
    to CPython's ``compile()`` and the source they took,
    ``compile_s`` the seconds spent compiling pending blocks.
    """

    __slots__ = ("cpu", "code", "instrs", "ctx", "env_map",
                 "compiles", "source_bytes", "compile_s")

    def __init__(self, cpu, code: list, env):
        self.cpu = cpu
        self.code = code
        self.instrs = cpu.program.instrs
        self.ctx = _FuseCtx(env)
        self.env_map = {name: getattr(env, field)
                        for name, field in _ENV_FIELDS.items()}
        self.env_map.update(_ENV_CONSTANTS, _cpu=cpu)
        self.compiles = 0
        self.source_bytes = 0
        self.compile_s = 0.0

    def make_parts(self, start: int, end: int,
                   fallback: Dict[str, int]) -> List[_Part]:
        """Parts for the block ``[start, end)``; closure fallbacks are
        tallied by op name into ``fallback``."""
        instrs, ctx = self.instrs, self.ctx
        parts: List[_Part] = []
        for i, pc in enumerate(range(start, end)):
            instr = instrs[pc]
            part = _template_part(instr, i, pc, ctx)
            if part is None:
                key = instr.op.value
                fallback[key] = fallback.get(key, 0) + 1
                part = _closure_part(i, pc == end - 1, pc)
            parts.append(part)
        return parts

    def entry(self, record: tuple) -> tuple:
        """Bind a record's compiled fuser: the ``(fn, len, fall,
        last)`` block-table entry."""
        start, length, signature, spec = record
        fuse, env_names = _fuse_cache[signature]
        code, env_map = self.code, self.env_map
        args = [code[value.pc] if type(value) is _CodeRef else value
                for value in spec]
        args += [env_map[name] for name in env_names]
        return (fuse(*args), length, start + length, start + length - 1)

    def compile(self, record: tuple) -> tuple:
        """Table entry for a pending record, compiling its fuser
        unless a block of the same signature already did."""
        t0 = perf_counter()
        start, length, signature, _ = record
        if signature not in _fuse_cache:
            parts = self.make_parts(start, start + length, {})
            self.source_bytes += _compile_fuser(signature, parts)
            self.compiles += 1
        entry = self.entry(record)
        self.compile_s += perf_counter() - t0
        return entry

    def block_table(self, plan: _Plan) -> Tuple[list, dict]:
        """The pc-indexed ``(fn, len, fall, last)`` table (``None``
        at non-block pcs) and the ``{start: record}`` map of blocks
        left to compile on first dispatch.

        Records every CFG block into ``plan`` when it has none yet;
        blocks whose signature is already compiled bind now.
        """
        if plan.blocks is None:
            records = []
            for block in build_cfg(self.cpu.program):
                parts = self.make_parts(block.start, block.end,
                                        plan.fallback)
                records.append((block.start, block.length,
                                tuple(part.shape for part in parts),
                                _part_spec(parts)))
            plan.blocks = records
        table = [None] * len(self.code)
        pending = {}
        for record in plan.blocks:
            if record[2] in _fuse_cache:
                table[record[0]] = self.entry(record)
            else:
                pending[record[0]] = record
        return table, pending


def _trap_offset(exc: BaseException) -> Optional[int]:
    """Instruction offset within the dispatched block, if any.

    Walks the exception's traceback for a generated block frame and
    maps its line number through the block's line table to the
    instruction offset that raised.  Returns ``None`` when the
    exception did not pass through a block closure (single-step
    dispatch, or a fault in the driver itself).
    """
    tb = exc.__traceback__
    offset = None
    while tb is not None:
        line_of = _line_maps.get(tb.tb_frame.f_code)
        if line_of is not None:
            offset = line_of.get(tb.tb_lineno, offset)
        tb = tb.tb_next
    return offset


def _rewind(exc: BaseException, icount: int, lpc: int, blen: int):
    """Map a mid-block exception to ``(icount, pc)``.

    The dispatch loop charges a whole block up front; when an
    exception maps to an instruction offset inside the generated
    frame, the unexecuted tail is refunded and the faulting pc
    recovered.  Returns ``None`` when the exception did not pass
    through a generated frame (single-step dispatch or the driver
    itself).
    """
    offset = _trap_offset(exc)
    if offset is None:
        return None
    return icount - (blen - offset - 1), lpc - blen + 1 + offset


# -- block-threaded run loop -------------------------------------------------

def execute_blocks(cpu):
    """Run ``cpu`` to halt on fused basic blocks.

    Observable behaviour is bit-identical to the legacy and decoded
    engines: the same statistics, the same trap types/messages, the
    same faulting pc and instruction count on every exit path.  The
    fast path dispatches whole blocks; control transfers into
    non-leader pcs and blocks that could cross the instruction limit
    are single-stepped on the underlying decoded closures.  A block
    whose fuser is not compiled yet is compiled when the loop first
    reaches its leader; those seconds are charged to ``cfg_fusion``,
    not ``execute``.  The build's closure-fallback tally is left in
    ``cpu.closure_fallbacks``, this run's fuser compiles and their
    source bytes in ``cpu.fuser_compiles`` /
    ``cpu.fuser_source_bytes``.
    """
    from repro.machine.cpu import RunResult
    from repro.machine.decode import bind_env, decode_program

    env = bind_env(cpu)
    # lazy: the templates leave most closures to the single-step path
    code = decode_program(cpu, env, lazy=True)
    t0 = perf_counter()
    fuser = _Fuser(cpu, code, env)
    plans = _plan_cache.setdefault(cpu.program, {})
    plan = plans.setdefault(fuser.ctx.key(), _Plan())
    table, pending = fuser.block_table(plan)
    cpu.closure_fallbacks = dict(plan.fallback)
    fusion_s = perf_counter() - t0
    n = len(code)
    limit = cpu.config.max_instructions
    pc = cpu.pc
    lpc = pc
    icount = cpu.icount
    blen = 1
    t0 = perf_counter()
    timed = False
    try:
        while True:
            entry = table[pc]
            if entry is not None:
                fn, blen, fall, last = entry
                nic = icount + blen
                if nic <= limit:
                    icount = nic
                    lpc = last
                    npc = fn(pc)
                    pc = fall if npc is None else npc
                    continue
            elif pc in pending:
                # first dispatch of this block: compile, bind, retry
                table[pc] = fuser.compile(pending.pop(pc))
                continue
            # single-step: mid-block entry, or the limit may fire
            # within the block — mirror the decoded loop exactly
            lpc = pc
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(limit)
            npc = code[pc](pc)
            pc = pc + 1 if npc is None else npc
    except HaltSignal as halt:
        # the phases must land before RunResult snapshots them
        _charge(cpu, fuser, fusion_s, perf_counter() - t0)
        timed = True
        state = _rewind(halt, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = pc
        else:
            cpu.icount, cpu.pc = state
        return RunResult(cpu, halt.code)
    except IndexError as exc:
        state = _rewind(exc, icount, lpc, blen)
        if state is not None:
            # genuine IndexError inside a fused instruction
            cpu.icount, cpu.pc = state
            raise
        if 0 <= pc < n:
            # genuine IndexError in a single-stepped closure
            cpu.icount = icount
            cpu.pc = lpc
            raise
        # ``pc`` can never go negative (branch targets are label
        # indices, indirect targets masked-unsigned), so this is the
        # out-of-range fetch of the legacy loop
        cpu.icount = icount
        cpu.pc = lpc
        raise MemoryFault(pc, "fetch").at(lpc)
    except Trap as trap:
        state = _rewind(trap, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = lpc
            raise trap.at(lpc)
        cpu.icount, cpu.pc = state
        raise trap.at(cpu.pc)
    except BaseException as exc:
        state = _rewind(exc, icount, lpc, blen)
        if state is None:
            cpu.icount = icount
            cpu.pc = lpc
        else:
            cpu.icount, cpu.pc = state
        raise
    finally:
        if not timed:
            _charge(cpu, fuser, fusion_s, perf_counter() - t0)


def _charge(cpu, fuser: _Fuser, fusion_s: float, loop_s: float):
    """Charge a run's phases and leave its compile counts on ``cpu``.

    The first-dispatch compiles ran inside the loop's ``loop_s``;
    they count as ``cfg_fusion``, so ``execute`` is net of them.
    """
    cpu.timers.add("cfg_fusion", fusion_s + fuser.compile_s)
    cpu.timers.add("execute", loop_s - fuser.compile_s)
    cpu.fuser_compiles = fuser.compiles
    cpu.fuser_source_bytes = fuser.source_bytes
