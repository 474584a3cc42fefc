"""Instruction templates and the basic-block fusion engine.

Every instruction has a *template*: a few lines of Python source
with the instruction's operands as parameters.  ``legacy``
(:meth:`repro.machine.cpu.CPU._run_legacy`) stays the independent
executable spec; each inline template mirrors its legacy handler —
same statement order, same counter increments, same trap types and
messages — and every other template is one call of that handler.
The engine differential suite and the fuzz oracle check the two
against each other.

Both template-driven engines run *fusers*, generated functions that
execute a run of instructions in one call, on one run loop
(:func:`execute_blocks`).  The ``decoded`` engine has no fusion plan
and runs one-instruction fusers, one dispatch per instruction; the
``blocks`` engine amortizes that dispatch tax — a table lookup, a
limit compare, a faulting-pc store, a call and a next-pc select —
over straight-line runs:

1. **Block discovery** — a linear pass over the linked program finds
   block leaders (the entry point, branch/call targets, fallthrough
   points after control transfers, and ``setcode`` immediates, which
   are the ISA's function-pointer constants) and grows each leader
   into a maximal straight-line block, giving a CFG of
   :class:`BasicBlock` nodes.

2. **Superinstruction fusion** — each block is compiled into one
   fuser that inlines every instruction's template with its operands
   bound as fast locals.  Generated code objects are cached by the
   block's *shape signature*, so two blocks (or two one-instruction
   fusers) with the same instruction shapes share one compilation.

   The word memory templates inline the whole load/store: effective
   address arithmetic, the HardBound bounds check, the access, the
   timing charge and the pointer-metadata load/store.  The access
   inlines one arena, the one the operand form predicts (the stack
   for an ``sp``/``fp`` base, the heap for every other): one compare
   proves an aligned word mapped inside its backed part and selects
   its word view (see :mod:`repro.machine.memory`).  Every other
   address — globals, the other arena, unaligned words, stack words
   below the backed part, faults — calls ``Memory.read`` / ``write``,
   the legacy handler's own entry points.  The charge is one
   ``_lg`` line whatever the cache geometry:
   :data:`~repro.caches.fast.LOG_WORD` (the word, plus its tag byte in
   a HardBound run), and :data:`~repro.caches.fast.LOG_SHADOW` for an
   uncompressed pointer.  ``_lg`` appends to the
   :class:`~repro.caches.fast.FastMemorySystem` log the run loop
   drains (see :func:`execute_blocks`), charges the classic model at
   once, or is a functional run's no-op sink (see :func:`bind_env`),
   so every run of a context shares its fusers.

   Every instruction the inline templates do not cover compiles to
   one call of its legacy handler: sub-word loads and stores,
   index-only and absolute forms, memory ops of ablated or
   substituted metadata engines, ``setbound`` and ``add``/``sub``
   under an observer or the temporal tracker, and ``markfree``,
   ``sbrk``, printing and ``halt``/``abort`` always.

3. **Fusion plans** — CFG discovery and template selection depend
   only on the program and the template-selection context, so their
   outcome is recorded per program; a later run of the same program
   re-binds the recorded operand vectors instead of rebuilding.  The
   plan covers every block, but a fuser is compiled only when its
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
number in the fuser frame and the instruction count is rewound to
exactly what the per-instruction engines would report.  A control
transfer into the middle of a block (a computed ``callr`` into a
non-leader pc) dispatches the landing pc's one-instruction fuser, the
entry the ``decoded`` engine gives every pc, and any block that could
bust the instruction limit mid-flight is single-stepped, each
instruction rewound as a block of length 1.
"""

from __future__ import annotations

import collections
import functools
import re
import types
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.caches.fast import LOG_SHADOW, LOG_WORD, FastMemorySystem
from repro.hardbound.engine import HardBoundEngine
from repro.isa.opcodes import Op, REG_FP, REG_RA, REG_SP
from repro.isa.program import Program
from repro.layout import (
    HEAP_BASE,
    MASK32,
    MAXINT,
    STACK_TOP,
    TAG1_BASE,
    TAG1_SHIFT,
    TAG4_BASE,
    TAG4_SHIFT,
    to_signed,
)
from repro.machine.config import ENGINE_DECODED
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
from repro.machine.memory import NATIVE_LE
from repro.metadata.encodings import inline_compressible_expr

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

#: the run loop drains the fast timing model's log at least this
#: often, in instructions, which bounds the log at a few entries per
#: instruction; far above ``MAX_BLOCK_LEN``, so every block fits
#: between two drain stops
DRAIN_EVERY = 1 << 16


class BasicBlock:
    """One CFG node: a maximal straight-line instruction run."""

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int):
        self.start = start
        self.length = length

    @property
    def end(self) -> int:
        """pc one past the last instruction of the block."""
        return self.start + self.length

    def __repr__(self):
        return "BasicBlock(%d..%d)" % (self.start, self.end - 1)


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
            blocks.append(BasicBlock(start, j - start + 1))
        starts = sorted(next_starts)
    blocks.sort(key=lambda b: b.start)
    return blocks


# -- superinstruction templates ----------------------------------------------

# Each fused instruction is a *part*: a template id (the shape), the
# operand parameters the generated function binds, and its source
# lines.  Fusers with equal shape-id tuples share one compiled code
# object; operands travel as bound parameters, never as literals.

_M32 = str(MASK32)
_MSB = str(0x80000000)
_MAX = str(MAXINT)
_RA = str(REG_RA)

#: comparison expression templates, mirroring the legacy ``CPU._cmp``
#: handlers: for masked values, ``to_signed(a) < to_signed(b)`` iff
#: ``a ^ MSB < b ^ MSB``, so signed compares flip the sign bit
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
#: inline bodies for the non-propagating ALU ops whose semantics are
#: pure expressions (div/mod have their own templates — they raise).
#: The register forms mirror the legacy ``CPU._op_*`` lambdas over
#: masked register values (``to_signed(a)`` is ``(a ^ MSB) - MSB``
#: for masked ``a``); the immediate forms bake the constant's
#: transformation (sign-extension, shift masking) in at
#: template-build time.
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
    """The immediate exactly as the legacy handler's lambda consumes
    it."""
    if op is Op.MUL:
        return to_signed(k)
    if op in (Op.SHL, Op.SHR, Op.SRA):
        return k & 31
    return k


class _Part:
    """One fused instruction: shape id, operand params, source lines."""

    __slots__ = ("shape", "params", "lines")

    def __init__(self, shape: str, params: List[Tuple[str, object]],
                 lines: List[str]):
        self.shape = shape
        self.params = params
        self.lines = lines


class _FuseCtx:
    """Build-time facts that select and specialize templates.

    ``inline_mem`` holds exactly when the inline word templates apply:
    the stock metadata engine with paper-default knobs and a stock
    encoding (or no engine), the flat word views, and nothing
    ``watched`` — no observer, no temporal tracker.  Under
    ``watched``, ``setbound`` and ``add``/``sub`` call their legacy
    handlers too, which feed the observer and the tracker.  No fact
    tells the timing models or a functional run apart: every run
    charges through ``_lg`` (see :func:`bind_env`).
    """

    __slots__ = ("full_mode", "hb", "inline_mem", "watched",
                 "comp_expr", "comp_tag")

    def __init__(self, cpu):
        hb = cpu.hb
        self.full_mode = cpu.full_mode
        self.hb = hb is not None
        self.watched = cpu.observer is not None or cpu.temporal is not None
        # splice the stock encodings' compressibility decision
        # straight into the metadata templates; subclassed encodings
        # get None and never take the inline word templates
        self.comp_expr = None
        self.comp_tag = ""
        if hb is not None:
            self.comp_expr = inline_compressible_expr(hb.encoding,
                                                      "v", "mb", "mbd")
            if self.comp_expr is not None:
                self.comp_tag = "_c" + type(hb.encoding).__name__
        # word-view access needs native little-endian casts on the
        # two arenas the word templates inline (true everywhere but
        # big-endian hosts); ablations and substituted engines or
        # encodings call the legacy handlers
        self.inline_mem = (NATIVE_LE
                           and not self.watched
                           and (hb is None
                                or (type(hb) is HardBoundEngine
                                    and not hb.check_uop
                                    and not hb.check_access_extent
                                    and self.comp_expr is not None)))

    def key(self) -> tuple:
        """Everything template selection depends on (the plan key)."""
        return (self.full_mode, self.hb, self.inline_mem, self.watched,
                self.comp_tag)


# -- memory template fragments ----------------------------------------------

# The legacy ``CPU._op_load``/``_op_store`` with ``HardBoundEngine.check``
# and the metadata-engine word paths inlined: same statement order,
# same counter increments, same trap types/messages.  ``Memory.read`` /
# ``write`` is inlined for one arena only, the one the operand form
# predicts; every other address takes the legacy entry point itself.

#: per operand form (``frame``: an ``sp``/``fp`` base), the predicted
#: arena's test for an aligned, mapped word and its word-view element.
#: The heap test is ``Memory``'s segment compare; the stack test
#: compares against the arena's current base (``_stk[2]``), the part
#: of the reservation already backed.  An address that passes either
#: is mapped and inside the arena's buffer; a stack word below the
#: backed part takes ``Memory.read``/``write``, which backs it.
_ARENAS = {
    False: ("if %d <= ea and ea + 4 <= _mem.brk and not ea & 3:"
            % HEAP_BASE, "_heap[1][(ea - %d) >> 2]" % HEAP_BASE),
    True: ("if _stk[2] <= ea and ea <= %d and not ea & 3:"
           % (STACK_TOP - 4), "_stk[1][(ea - _stk[2]) >> 2]"),
}


def _word_read_lines(frame: bool) -> List[str]:
    """Word read into ``v``: the predicted arena inline, else
    ``Memory.read`` (other segments, unaligned words, faults)."""
    test, word = _ARENAS[frame]
    return [test, "    v = " + word, "else:", "    v = _mr(ea, 4)"]


def _word_write_lines(frame: bool) -> List[str]:
    """Word write of ``v``: the predicted arena inline, else
    ``Memory.write``."""
    test, word = _ARENAS[frame]
    return ["v = value[rd{i}]", test, "    %s = v" % word,
            "else:", "    _mw(ea, 4, v)"]


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


def _load_meta_lines(comp: str) -> List[str]:
    """HardBound word-load metadata path (``load_word_meta`` inlined).

    ``comp`` is the stock encoding's compressibility decision as an
    inline expression over ``v``, ``mb`` and ``mbd``.
    """
    return [
        "key = ea & -4",
        "meta = _mg(key)",
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
        "        " + LOG_SHADOW,
        "    value[rd{i}] = v",
        "    rbase[rd{i}] = mb",
        "    rbound[rd{i}] = mbd",
    ]


def _store_meta_lines(comp: str) -> List[str]:
    """HardBound word-store metadata path (``store_word_meta``
    inlined)."""
    return [
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
        "        " + LOG_SHADOW,
    ]


#: effective-address line per operand form (``si``: base + index,
#: ``s``: base, ``i``: index only, ``a``: absolute), as the legacy
#: ``_effective_address`` computes it
_EA_LINES = {
    "si": "ea = (value[rs{i}] + value[rt{i}] * sc{i} + k{i}) & " + _M32,
    "s": "ea = (value[rs{i}] + k{i}) & " + _M32,
    "i": "ea = (value[rt{i}] * sc{i} + k{i}) & " + _M32,
    "a": "ea = k{i}",
}


def _ea(instr) -> Tuple[list, str]:
    """A memory operand's effective-address params and form tag."""
    rs, rt = instr.rs, instr.rt
    if rt is None:
        if rs is None:
            return [("k", instr.disp & MASK32)], "a"
        return [("rs", rs), ("k", instr.disp)], "s"
    if rs is None:
        return [("rt", rt), ("sc", instr.scale), ("k", instr.disp)], "i"
    return [("rs", rs), ("rt", rt), ("sc", instr.scale),
            ("k", instr.disp)], "si"


# The memory templates' lines take the most building; they depend only
# on facts the shape id spells out, so they are built once per shape.

@functools.lru_cache(maxsize=None)
def _word_lines(load: bool, form: str, frame: bool, hb: bool,
                full: bool, comp: str) -> tuple:
    """Lines of an inline word load/store (with HardBound metadata
    when ``hb``)."""
    acc = "read" if load else "write"
    lines = [_EA_LINES[form]]
    if hb:
        lines += _hb_check_lines(acc, form == "si", frame, full)
    if load:
        lines += _word_read_lines(frame)
    else:
        lines += _word_write_lines(frame)
    # one charge of the word (and, with HardBound, its tag byte): an
    # append to the fast model's log, or the classic model's charger
    lines.append(LOG_WORD)
    if hb:
        meta_lines = _load_meta_lines if load else _store_meta_lines
        lines += meta_lines(comp)
    elif load:
        lines += ["value[rd{i}] = v",
                  "rbase[rd{i}] = 0",
                  "rbound[rd{i}] = 0"]
    return tuple(lines)


def _handler_part(instr, *_) -> _Part:
    """One call of the instruction's legacy handler, ``_h_<op>(ins)``;
    a trap it raises passes through the fuser frame, whose line map
    attributes it to this instruction."""
    op = instr.op.value
    return _Part("h_" + op, [("ins", instr)], ["_h_%s(ins{i})" % op])


def _mem_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """``load``/``store``: the inline word template for a word through
    a base register where the context allows it (``inline_mem``),
    else the legacy handler (sub-word sizes, index-only and absolute
    forms, ablated or substituted metadata engines, observers, the
    temporal tracker)."""
    rs = instr.rs
    if instr.size != 4 or rs is None or not ctx.inline_mem:
        return _handler_part(instr)
    load = instr.op is Op.LOAD
    ld = "ld" if load else "st"
    ea_params, form = _ea(instr)
    params = [("rd", instr.rd)] + ea_params
    frame = rs in (REG_SP, REG_FP)
    if ctx.hb:
        return _Part(
            "%shb_%s%d%d%s" % (ld, form, frame, ctx.full_mode,
                               ctx.comp_tag),
            params,
            _word_lines(load, form, frame, True, ctx.full_mode,
                        ctx.comp_expr))
    return _Part("%spl_%s%d" % (ld, form, frame), params,
                 _word_lines(load, form, frame, False, False, ""))


def _mov_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    if instr.rs is not None:
        return _Part("movrr", [("rd", instr.rd), ("rs", instr.rs)],
                     ["value[rd{i}] = value[rs{i}]",
                      "rbase[rd{i}] = rbase[rs{i}]",
                      "rbound[rd{i}] = rbound[rs{i}]"])
    return _Part("movri",
                 [("rd", instr.rd), ("k", (instr.imm or 0) & MASK32)],
                 ["value[rd{i}] = k{i}",
                  "rbase[rd{i}] = 0",
                  "rbound[rd{i}] = 0"])


def _lea_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """``lea``: the address, with the guarding register's metadata
    (base preferred, index as fallback, none for absolute forms)."""
    ea_params, form = _ea(instr)
    lines = [_EA_LINES[form]]
    if form == "si":
        lines += ["if rbase[rs{i}] or rbound[rs{i}]:",
                  "    rbase[rd{i}] = rbase[rs{i}]",
                  "    rbound[rd{i}] = rbound[rs{i}]",
                  "else:",
                  "    rbase[rd{i}] = rbase[rt{i}]",
                  "    rbound[rd{i}] = rbound[rt{i}]"]
    elif form == "a":
        lines += ["rbase[rd{i}] = 0", "rbound[rd{i}] = 0"]
    else:
        src = "rs{i}" if form == "s" else "rt{i}"
        lines += ["rbase[rd{i}] = rbase[%s]" % src,
                  "rbound[rd{i}] = rbound[%s]" % src]
    lines.append("value[rd{i}] = ea")
    return _Part("lea_" + form, [("rd", instr.rd)] + ea_params, lines)


def _xchg_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    return _Part("xchg", [("rd", instr.rd), ("rs", instr.rs)],
                 ["value[rd{i}], value[rs{i}] = value[rs{i}], value[rd{i}]",
                  "rbase[rd{i}], rbase[rs{i}] = rbase[rs{i}], rbase[rd{i}]",
                  "rbound[rd{i}], rbound[rs{i}] = "
                  "rbound[rs{i}], rbound[rd{i}]"])


def _addsub_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """Figure 3A/B ``add``/``sub``: the first input's bounds when it
    has any, else the second's; the legacy handler when ``watched``,
    whose observer sees every result that carries bounds.

    An immediate has no bounds, and an unbounded register's are
    (0, 0), so the immediate form copies the first input's bounds
    unconditionally: the same registers as the legacy handler's
    branch.
    """
    if ctx.watched:
        return _handler_part(instr)
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    if rt is None:
        k = instr.imm or 0
        if instr.op is Op.SUB:
            k = -k
        return _Part("addsubri", [("rd", rd), ("rs", rs), ("k", k)],
                     ["value[rd{i}] = (value[rs{i}] + k{i}) & " + _M32,
                      "rbase[rd{i}] = rbase[rs{i}]",
                      "rbound[rd{i}] = rbound[rs{i}]"])
    sign = "-" if instr.op is Op.SUB else "+"
    return _Part("addsubrr" + sign, [("rd", rd), ("rs", rs), ("rt", rt)],
                 ["v = (value[rs{i}] %s value[rt{i}]) & %s" % (sign, _M32),
                  "if rbase[rs{i}] or rbound[rs{i}]:",
                  "    value[rd{i}] = v",
                  "    rbase[rd{i}] = rbase[rs{i}]",
                  "    rbound[rd{i}] = rbound[rs{i}]",
                  "else:",
                  "    value[rd{i}] = v",
                  "    rbase[rd{i}] = rbase[rt{i}]",
                  "    rbound[rd{i}] = rbound[rt{i}]"])


def _cmp_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    op = instr.op
    if instr.rt is not None:
        expr = _CMP_RR[op]
        shape = "cmp_rr_" + op.value
        params = [("rd", instr.rd), ("rs", instr.rs), ("rt", instr.rt)]
    else:
        # the immediate as the legacy compare sees it: masked for
        # (in)equality, sign-flipped for signed orderings, raw for
        # the unsigned ones
        k = instr.imm or 0
        if op in (Op.SEQ, Op.SNE):
            k &= MASK32
        elif op in _SIGNED_CMPS:
            k = (k & MASK32) ^ 0x80000000
        expr = _CMP_RI[op]
        shape = "cmp_ri_" + op.value
        params = [("rd", instr.rd), ("rs", instr.rs), ("k", k)]
    return _Part(shape, params,
                 ["value[rd{i}] = 1 if " + expr + " else 0",
                  "rbase[rd{i}] = 0",
                  "rbound[rd{i}] = 0"])


def _nonprop_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    op = instr.op
    if instr.rt is not None:
        expr = _NP_RR_EXPR[op]
        params = [("rd", instr.rd), ("rs", instr.rs), ("rt", instr.rt)]
        shape = "npx_rr_" + op.value
    else:
        expr = _NP_RI_EXPR[op]
        params = [("rd", instr.rd), ("rs", instr.rs),
                  ("k", _np_imm(op, instr.imm or 0))]
        shape = "npx_ri_" + op.value
    return _Part(shape, params,
                 ["value[rd{i}] = (" + expr + ") & " + _M32,
                  "rbase[rd{i}] = 0",
                  "rbound[rd{i}] = 0"])


def _divmod_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """C truncating division/remainder: the legacy ``_op_div`` /
    ``_op_mod`` inline.

    Register values are always in [0, 2**32), so the sign test is the
    plain ``to_signed`` branch.  An immediate divisor's sign and
    magnitude are bind-time constants, and a zero immediate always
    raises the same trap.
    """
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    is_div = instr.op is Op.DIV
    head = ["sa = value[rs{i}]",
            "if sa >= 2147483648:",
            "    sa -= 4294967296"]
    meta = ["rbase[rd{i}] = 0", "rbound[rd{i}] = 0"]
    if rt is not None:
        compute = ("q = abs(sa) // abs(sb)" if is_div
                   else "q = abs(sa) % abs(sb)")
        result = ("(q if (sa < 0) == (sb < 0) else -q)" if is_div
                  else "(q if sa >= 0 else -q)")
        return _Part(
            ("divrr" if is_div else "modrr"),
            [("rd", rd), ("rs", rs), ("rt", rt)],
            head + ["sb = value[rt{i}]",
                    "if sb >= 2147483648:",
                    "    sb -= 4294967296",
                    "if sb == 0:",
                    "    raise _dbz()",
                    compute,
                    "value[rd{i}] = %s & %s" % (result, _M32)] + meta)
    sk = to_signed(instr.imm or 0)
    if sk == 0:
        return _Part("dbz", [], ["raise _dbz()"])
    if is_div:
        body = ["q = abs(sa) // ka{i}",
                "value[rd{i}] = (q if (sa < 0) == kn{i} else -q) & "
                + _M32]
    else:
        body = ["q = abs(sa) % ka{i}",
                "value[rd{i}] = (q if sa >= 0 else -q) & " + _M32]
    return _Part(("divri" if is_div else "modri"),
                 [("rd", rd), ("rs", rs), ("ka", abs(sk)),
                  ("kn", sk < 0)],
                 head + body + meta)


#: ``rd <- f(rs)`` ops: value expression, then the base and bound
#: written after it
_UNARY = {
    Op.NEG: ("(-value[rs{i}]) & " + _M32, "0", "0"),
    Op.NOT: ("(~value[rs{i}]) & " + _M32, "0", "0"),
    Op.READBASE: ("rbase[rs{i}]", "0", "0"),
    Op.READBOUND: ("rbound[rs{i}]", "0", "0"),
    Op.SETUNSAFE: ("value[rs{i}]", "0", _MAX),
    Op.CLRBND: ("value[rs{i}]", "0", "0"),
}


def _unary_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    expr, base, bound = _UNARY[instr.op]
    return _Part(instr.op.value, [("rd", instr.rd), ("rs", instr.rs)],
                 ["value[rd{i}] = " + expr,
                  "rbase[rd{i}] = " + base,
                  "rbound[rd{i}] = " + bound])


def _setcode_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """``setcode``: a code pointer, base = bound = MAXINT."""
    if instr.rs is not None:
        shape, params = "setcode_r", [("rd", instr.rd), ("rs", instr.rs)]
        src = "value[rs{i}]"
    else:
        shape, params = "setcode_i", [("rd", instr.rd),
                                      ("k", instr.imm & MASK32)]
        src = "k{i}"
    return _Part(shape, params, ["value[rd{i}] = " + src,
                                 "rbase[rd{i}] = " + _MAX,
                                 "rbound[rd{i}] = " + _MAX])


def _setbound_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """``setbound``, the legacy handler line for line; the handler
    itself when ``watched`` (it feeds the temporal tracker and the
    observer)."""
    if ctx.watched:
        return _handler_part(instr)
    params = [("rd", instr.rd), ("rs", instr.rs)]
    lines = ["v = value[rs{i}]"]
    if instr.rt is not None:
        params.append(("rt", instr.rt))
        lines.append("sz = value[rt{i}]")
        form = "r"
    else:
        params.append(("k", instr.imm or 0))
        lines.append("sz = k{i}")
        form = "i"
    lines += [
        "value[rd{i}] = v",
        "rbase[rd{i}] = v",
        "rbound[rd{i}] = (v + sz) & %s" % _M32,
        "_cpu.setbound_count += 1",
    ]
    if ctx.hb:
        lines.append("_hbs.setbound_uops += 1")
    return _Part("setbound_%s%d" % (form, ctx.hb), params, lines)


def _jmp_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    return _Part("jmp", [("t", instr.target)], ["return t{i}"])


def _branch_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    test = "==" if instr.op is Op.BEQZ else "!="
    return _Part(instr.op.value, [("t", instr.target), ("rs", instr.rs)],
                 ["return t{i} if value[rs{i}] %s 0 else None" % test])


def _call_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    return _Part("call", [("t", instr.target), ("r", (pc + 1) & MASK32)],
                 ["value[%s] = r{i}" % _RA,
                  "rbase[%s] = %s" % (_RA, _MAX),
                  "rbound[%s] = %s" % (_RA, _MAX),
                  "return t{i}"])


def _ret_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    lines = ["t = value[%s]" % _RA]
    if ctx.full_mode:
        lines += ["if rbase[%s] != %s or rbound[%s] != %s:"
                  % (_RA, _MAX, _RA, _MAX),
                  "    raise _icpe(t)"]
    lines += ["if t >= _n:",
              "    raise _icpe(t)",
              "return t"]
    return _Part("ret%d" % ctx.full_mode, [], lines)


def _callr_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    lines = ["t = value[rs{i}]"]
    if ctx.full_mode:
        lines += ["if rbase[rs{i}] != %s or rbound[rs{i}] != %s:"
                  % (_MAX, _MAX),
                  "    raise _icpe(t)"]
    lines += ["if t >= _n:",
              "    raise _icpe(t)",
              "value[%s] = r{i}" % _RA,
              "rbase[%s] = %s" % (_RA, _MAX),
              "rbound[%s] = %s" % (_RA, _MAX),
              "return t"]
    return _Part("callr%d" % ctx.full_mode,
                 [("rs", instr.rs), ("r", (pc + 1) & MASK32)], lines)


#: opcode -> template builder ``(instr, pc, ctx) -> _Part``; the rare
#: environment and stop ops always call their legacy handlers
_TEMPLATES = {
    Op.LOAD: _mem_part, Op.STORE: _mem_part,
    Op.MOV: _mov_part, Op.LEA: _lea_part, Op.XCHG: _xchg_part,
    Op.ADD: _addsub_part, Op.SUB: _addsub_part,
    Op.DIV: _divmod_part, Op.MOD: _divmod_part,
    Op.SETCODE: _setcode_part, Op.SETBOUND: _setbound_part,
    Op.JMP: _jmp_part, Op.BEQZ: _branch_part, Op.BNEZ: _branch_part,
    Op.CALL: _call_part, Op.CALLR: _callr_part, Op.RET: _ret_part,
}
_TEMPLATES.update(dict.fromkeys(_CMP_RR, _cmp_part))
_TEMPLATES.update(dict.fromkeys(_NP_RR_EXPR, _nonprop_part))
_TEMPLATES.update(dict.fromkeys(_UNARY, _unary_part))
_TEMPLATES.update(dict.fromkeys(
    (Op.MARKFREE, Op.SBRK, Op.PRINT, Op.PRINTC, Op.PRINTS, Op.HALT,
     Op.ABORT), _handler_part))


def _template_part(instr, pc: int, ctx: _FuseCtx) -> _Part:
    """The template for the instruction at ``pc``.

    Every template mirrors its legacy ``CPU._op_*`` handler (same
    statement order, same counter increments, same trap types), or is
    one call of it; the engine differential suite and the fuzz oracle
    check the equivalence.  Control flow never calls its handler:
    legacy ``call``/``callr`` link from ``cpu.pc``, which a fuser does
    not keep current.  A part's parameter names carry no block
    offset: the fuser compiler appends it, as it formats ``{i}`` in
    the lines.
    """
    return _TEMPLATES[instr.op](instr, pc, ctx)


#: pseudo-filename of the generated fuser source (shows in tracebacks)
_FUSE_FILENAME = "<repro-block-fuse>"

#: shape signature -> (fuser code, its globals, names of the env
#: values it takes)
_fuse_cache: Dict[Tuple[str, ...], tuple] = {}
#: fuser code object -> {line number -> instruction offset}
_line_maps: Dict[object, Dict[int, int]] = {}

#: Program -> {template-selection context key: fusion plan}; weak so
#: plans die with their program.  A plan is the program's block
#: records (see :func:`_record`): CFG discovery and template selection
#: depend only on the program and the context, not on the run, so
#: re-running the same program (the sharded harness and the
#: benchmarks do, constantly) reduces fusion to re-binding.
_plan_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _record(start: int, parts: List[_Part]) -> tuple:
    """A fuser's ``(start, length, signature, spec)``: the signature
    keys the compiled fuser in ``_fuse_cache``, the spec is the flat
    operand-argument vector it is bound with."""
    return (start, len(parts), tuple([part.shape for part in parts]),
            [value for part in parts for _, value in part.params])


#: a functional run's ``_lg``: a C-level append to a deque that keeps
#: nothing, so an inline word template's charge line costs one call
_NO_LOG = collections.deque(maxlen=0).append

#: the shared names in template source: the register arrays and every
#: name that begins with ``_`` (template locals and operand parameters
#: never do)
_ENV_NAME = re.compile(r"\b(?:value|rbase|rbound|_\w+)\b")


class _Env(dict):
    """A run's shared-name map.  A legacy handler ``_h_<op>`` is
    bound from the CPU's dispatch table the first time a fuser asks
    for it: a run's fusers call a handful of the opcodes' handlers."""

    __slots__ = ("dispatch",)

    def __missing__(self, name: str):
        handler = self[name] = self.dispatch[Op(name[3:])]
        return handler


def bind_env(cpu, ctx: _FuseCtx) -> dict:
    """Map every shared template name to this run's value.

    Every fuser of a run, block or one-instruction, binds its shared
    names from this one map, so all of them share the *same* timing
    log, counter cells and memory arena cells.  Besides the register
    arrays, arenas and metadata tables the inline templates touch, the
    map resolves each legacy handler as ``_h_<op>``.  The charge ``_lg``
    is the timing model's ``logger``, or a no-op sink in a functional
    run, so every run of a context shares its templates; ``ctx``
    decides what a word entry charges.  A run without a metadata
    engine leaves its names out: ``ctx`` never selects a template
    that references them.
    """
    regs, memory, memsys = cpu.regs, cpu.memory, cpu.memsys
    env = _Env({
        "value": regs.value, "rbase": regs.base, "rbound": regs.bound,
        "_n": len(cpu.program.instrs), "_cpu": cpu,
        # the word templates' inline arenas: the heap and stack cells
        # (stable across growth, see repro.machine.memory; templates
        # re-read the heap break from ``_mem`` and the stack's backed
        # base from its cell); every other address goes through
        # ``_mr`` / ``_mw``
        "_mem": memory, "_heap": memory.heap_cell,
        "_stk": memory.stack_cell,
        "_mr": memory.read, "_mw": memory.write,
        # the trap constructors the templates raise
        "_icpe": InvalidCodePointerError, "_be": BoundsError,
        "_npe": NonPointerError, "_dbz": DivideByZeroError,
    })
    env.dispatch = cpu._dispatch
    hb = cpu.hb
    if hb is not None:
        meta = hb.meta._meta
        env.update(_hbs=hb.stats, _meta=meta, _mg=meta.get,
                   _mp=meta.pop)
    # a HardBound word entry charges the word and its tag byte, a
    # plain one the word alone
    env["_lg"] = _NO_LOG if memsys is None else memsys.logger(
        None if not (ctx.hb and ctx.inline_mem)
        else (TAG4_BASE, TAG4_SHIFT) if hb.encoding.tag_bits == 4
        else (TAG1_BASE, TAG1_SHIFT))
    return env


def _compile_fuser(signature: Tuple[str, ...],
                   parts: List[_Part]) -> int:
    """Compile the fuser for a shape signature into ``_fuse_cache``;
    returns the generated source's size in bytes.

    The fuser's parameters after ``pc`` are the parts' operands
    followed by the shared names the body references.  Binding
    (:meth:`_Fuser.entry`) makes a function of the compiled code with
    their values as defaults: CPython then reads each as a fast local
    instead of a closure cell on every access, at the cost of one
    default copy per call.
    """
    body: List[str] = []
    line_of: Dict[int, int] = {}
    names = ["pc"]
    for offset, part in enumerate(parts):
        names.extend("%s%d" % (name, offset) for name, _ in part.params)
        for raw in part.lines:
            body.append("    " + raw.format(i=offset))
            # +1: the def header precedes the body
            line_of[len(body) + 1] = offset
    env_names = tuple(sorted(set(_ENV_NAME.findall("\n".join(body)))))
    source = "\n".join(
        ["def _block(%s):" % ", ".join(names + list(env_names))] + body)
    namespace: dict = {}
    exec(compile(source, _FUSE_FILENAME, "exec"), namespace)
    code = namespace["_block"].__code__
    _fuse_cache[signature] = (code, namespace, env_names)
    _line_maps[code] = line_of
    return len(source)


class _Fuser:
    """Per-run fusion state.

    Holds the template-selection context and the run's shared-name
    map (:func:`bind_env`), turns instruction runs into parts and
    records, and binds compiled fusers as ``(fn, len, fall, last)``
    dispatch-table entries: ``fn(pc)`` runs the instructions and
    returns the next pc or ``None`` (fall through to ``fall``), and
    ``last`` is the pc of the last instruction.  ``compiles`` /
    ``source_bytes`` count the fusers this run handed to CPython's
    ``compile()`` and the source they took, ``compile_s`` the seconds
    the run loop spent building, compiling and binding fusers.
    ``env_args`` memoizes the values each distinct set of shared names
    binds to.
    """

    __slots__ = ("instrs", "ctx", "env_map", "env_args", "compiles",
                 "source_bytes", "compile_s")

    def __init__(self, cpu):
        self.instrs = cpu.program.instrs
        self.ctx = _FuseCtx(cpu)
        self.env_map = bind_env(cpu, self.ctx)
        self.env_args: Dict[tuple, list] = {}
        self.compiles = 0
        self.source_bytes = 0
        self.compile_s = 0.0

    def make_parts(self, start: int, end: int) -> List[_Part]:
        """Parts for the instructions ``[start, end)``."""
        instrs, ctx = self.instrs, self.ctx
        return [_template_part(instrs[pc], pc, ctx)
                for pc in range(start, end)]

    def entry(self, record: tuple) -> tuple:
        """Bind a record's compiled fuser: the ``(fn, len, fall,
        last)`` block-table entry."""
        start, length, signature, spec = record
        code, namespace, env_names = _fuse_cache[signature]
        env_args = self.env_args.get(env_names)
        if env_args is None:
            env_map = self.env_map
            env_args = self.env_args[env_names] = [
                env_map[name] for name in env_names]
        fn = types.FunctionType(code, namespace, "_block",
                                (*spec, *env_args))
        return (fn, length, start + length, start + length - 1)

    def _bind(self, record: tuple, parts=None) -> tuple:
        """:meth:`entry`, compiling the fuser first unless a record
        of the same signature already did (from ``parts``, or parts
        rebuilt from the program)."""
        start, length, signature, _ = record
        if signature not in _fuse_cache:
            if parts is None:
                parts = self.make_parts(start, start + length)
            self.source_bytes += _compile_fuser(signature, parts)
            self.compiles += 1
        return self.entry(record)

    def compile(self, record: tuple) -> tuple:
        """Table entry for a pending block's first dispatch."""
        t0 = perf_counter()
        entry = self._bind(record)
        self.compile_s += perf_counter() - t0
        return entry

    def step(self, pc: int) -> tuple:
        """The one-instruction table entry for ``pc``."""
        t0 = perf_counter()
        parts = [_template_part(self.instrs[pc], pc, self.ctx)]
        entry = self._bind(_record(pc, parts), parts)
        self.compile_s += perf_counter() - t0
        return entry

    def block_table(self, program) -> Tuple[list, dict]:
        """The pc-indexed ``(fn, len, fall, last)`` table (``None``
        at non-block pcs) and the ``{start: record}`` map of blocks
        left to compile on first dispatch.

        Records every CFG block into the program's plan when it has
        none yet; blocks whose signature is already compiled bind now.
        """
        plans = _plan_cache.setdefault(program, {})
        key = self.ctx.key()
        records = plans.get(key)
        if records is None:
            records = plans[key] = [
                _record(block.start,
                        self.make_parts(block.start, block.end))
                for block in build_cfg(program)]
        table = [None] * len(self.instrs)
        pending = {}
        for record in records:
            if record[2] in _fuse_cache:
                table[record[0]] = self.entry(record)
            else:
                pending[record[0]] = record
        return table, pending


def _trap_offset(exc: BaseException) -> Optional[int]:
    """Instruction offset within the dispatched fuser, if any.

    Walks the exception's traceback for a generated fuser frame and
    maps its line number through the fuser's line table to the
    instruction offset that raised.  Returns ``None`` when the
    exception did not pass through a fuser (a fault in the driver
    itself).
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
    through a generated frame (the driver itself).
    """
    offset = _trap_offset(exc)
    if offset is None:
        return None
    return icount - (blen - offset - 1), lpc - blen + 1 + offset


# -- block-threaded run loop -------------------------------------------------

def execute_blocks(cpu):
    """Run ``cpu`` to halt on the instruction templates.

    Serves both template engines.  ``blocks`` dispatches the fused
    basic blocks of the program's fusion plan; ``decoded`` has no
    plan, so every pc it reaches gets a one-instruction entry.
    Observable behaviour is bit-identical to the legacy engine: the
    same statistics, the same trap types/messages, the same faulting
    pc and instruction count on every exit path.

    A pc without a table entry gets one on its first dispatch: its
    block's fuser if it leads a block still waiting to compile, else
    its one-instruction entry (a control transfer into the middle of
    a block on ``blocks``, every pc on ``decoded``).  An entry whose
    whole-length charge would cross the instruction limit is
    single-stepped instead, each instruction rewound as a block of
    length 1.

    With the fast timing model, the loop also stops every
    :data:`DRAIN_EVERY` instructions to drain the model's log: the
    stop is folded into the limit compare (``stop`` is the nearer of
    the two), so the dispatch path does no extra work, and a block
    that reaches a drain stop is dispatched whole after the drain.
    Every exit drains too.  Phases: :func:`bind_env` is ``decode``;
    the fusion plan and every fuser built, compiled and bound in the
    loop are ``cfg_fusion``; ``execute`` is net of them and includes
    the drains.  This run's fuser compiles and their source bytes are
    left in ``cpu.fuser_compiles`` / ``cpu.fuser_source_bytes``.
    """
    from repro.machine.cpu import RunResult

    t0 = perf_counter()
    fuser = _Fuser(cpu)
    t1 = perf_counter()
    cpu.timers.add("decode", t1 - t0)
    if cpu.config.engine == ENGINE_DECODED:
        table, pending = [None] * len(fuser.instrs), {}
    else:
        table, pending = fuser.block_table(cpu.program)
    fusion_s = perf_counter() - t1
    n = len(table)
    limit = cpu.config.max_instructions
    pc = cpu.pc
    lpc = pc
    icount = cpu.icount
    blen = 1
    drain = (cpu.memsys.drain
             if isinstance(cpu.memsys, FastMemorySystem) else None)
    stop = limit if drain is None else min(limit, icount + DRAIN_EVERY)
    t0 = perf_counter()
    timed = False
    try:
        while True:
            entry = table[pc]
            if entry is not None:
                fn, blen, fall, last = entry
                nic = icount + blen
                if nic <= stop:
                    icount = nic
                    lpc = last
                    npc = fn(pc)
                    pc = fall if npc is None else npc
                    continue
                if stop < limit:
                    drain()
                    stop = min(limit, icount + DRAIN_EVERY)
                    continue
            else:
                # first dispatch of this pc: build its entry, retry
                record = pending.pop(pc, None)
                table[pc] = (fuser.step(pc) if record is None
                             else fuser.compile(record))
                continue
            # the limit may fire within the entry: one instruction,
            # rewound as a block of length 1, its entry rebuilt rather
            # than stored over the block's
            lpc = pc
            blen = 1
            icount += 1
            if icount > limit:
                raise InstructionLimitExceeded(limit)
            npc = fuser.step(pc)[0](pc)
            pc = pc + 1 if npc is None else npc
    except HaltSignal as halt:
        # the phases must land before RunResult snapshots them
        _charge(cpu, fuser, fusion_s, t0, drain)
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
            # genuine IndexError in the driver
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
            _charge(cpu, fuser, fusion_s, t0, drain)


def _charge(cpu, fuser: _Fuser, plan_s: float, t0: float, drain):
    """Drain the timing log, then charge a run's phases and leave its
    compile counts on ``cpu``.

    The loop ran from ``t0`` until the drain ends.  The fusers built
    and compiled inside it count as ``cfg_fusion``, besides the
    table's ``plan_s``, so ``execute`` is net of them.
    """
    if drain is not None:
        drain()
    loop_s = perf_counter() - t0
    cpu.timers.add("cfg_fusion", plan_s + fuser.compile_s)
    cpu.timers.add("execute", loop_s - fuser.compile_s)
    cpu.fuser_compiles = fuser.compiles
    cpu.fuser_source_bytes = fuser.source_bytes
