"""Conservative peephole optimizer over emitted assembler text.

The MiniC code generator is a straightforward stack machine: every
expression leaf materializes through ``mov``, every local round-trips
through its frame slot, and every ``return`` jumps to a label that is
usually the next line.  This pass cleans up exactly those patterns —
textually, on the generated assembler — in the shape of the Mini32
compiler's post-pass:

* **immediate substitution** — ``mov rT, imm`` feeding an ALU op as
  its right operand becomes the op's immediate form, and the ``mov``
  dies when ``rT`` is overwritten before any later read;
* **constant folding** — ``mov rX, a`` + ``op rX, rX, b`` collapses
  to ``mov rX, fold(op, a, b)`` (``div``/``mod`` are exempt: folding
  may not erase a divide-by-zero trap);
* **store→load forwarding** — a word load from the address just
  stored to becomes a register ``mov`` (or disappears when it targets
  the stored register); word-word only, sub-word loads re-extend;
* **dead code** — ``jmp`` to the next line, instructions between an
  unconditional transfer and the next label, ``add/sub rX, rX, 0``
  and ``mov rX, rX``;
* **branch chaining** — a branch whose target label starts with
  ``jmp L`` retargets to ``L`` (cycle-safe).

Safety is by construction, not analysis depth:

* Every rewrite preserves the machine's *observable* results — exit
  code, output, trap class and final ``[0, brk)`` memory — across
  all three engines; ``tests/minic/test_optimizer.py`` holds the
  randomized differential that enforces it.  Cycle/µop/cache
  counters legitimately differ: the optimized binary is a different
  (shorter) program.
* Immediate forms are exact replacements: every ``op rd, rs, imm``
  decoder reproduces the register form's semantics bit-for-bit
  (including HardBound metadata flow — an immediate ``mov`` carries
  empty bounds, which is what the register operand held).
* Folding never crosses a label or control transfer, and any opcode
  this module does not recognize is an optimization barrier.
* A forwarded load cannot change trapping: the adjacent store to the
  same effective address (same base register and displacement, word
  size) either already trapped or proved the access legal for both
  directions.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.layout import MASK32, to_signed

#: ALU mnemonics with an immediate right-operand form whose decoded
#: semantics (value and metadata) exactly mirror the register form.
_IMM_OPS = frozenset({
    "add", "sub", "mul", "div", "mod", "and", "or", "xor",
    "shl", "shr", "sra", "seq", "sne", "slt", "sgt", "sle", "sge",
})

#: subset that is safe to fold to a constant at compile time
#: (``div``/``mod`` stay runtime ops so a zero divisor still traps
#: at the original instruction).
_FOLD_OPS = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (to_signed(a) * to_signed(b)) & MASK32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 31)) & MASK32,
    "shr": lambda a, b: (a & MASK32) >> (b & 31),
    "sra": lambda a, b: (to_signed(a) >> (b & 31)) & MASK32,
    "seq": lambda a, b: 1 if a == b else 0,
    "sne": lambda a, b: 1 if a != b else 0,
    "slt": lambda a, b: 1 if to_signed(a) < to_signed(b) else 0,
    "sgt": lambda a, b: 1 if to_signed(a) > to_signed(b) else 0,
    "sle": lambda a, b: 1 if to_signed(a) <= to_signed(b) else 0,
    "sge": lambda a, b: 1 if to_signed(a) >= to_signed(b) else 0,
}

#: opcodes that unconditionally leave the instruction: anything after
#: them up to the next label is unreachable
_TRANSFERS = frozenset({"jmp", "ret", "halt", "abort"})

#: opcodes ending a peephole window (control may leave or arrive)
_BLOCK_ENDS = _TRANSFERS | {"beqz", "bnez", "call", "callr"}

_REG = re.compile(r"\br(\d+)\b|\b(sp|fp|ra)\b")
_INT = re.compile(r"^-?\d+$")


class _Line:
    """One parsed assembler line.

    ``kind`` is ``"label"``, ``"instr"`` or ``"other"`` (directives,
    blanks, data).  Instructions keep their mnemonic and the operand
    field split on top-level commas; ``text`` always reproduces the
    emitted form.
    """

    __slots__ = ("kind", "op", "args", "label", "text")

    def __init__(self, raw: str):
        self.text = raw
        stripped = raw.strip()
        self.op = ""
        self.args: List[str] = []
        self.label = ""
        if stripped.endswith(":") and " " not in stripped:
            # dot-prefixed local labels (".L3:", ".ret_main:") must
            # classify as labels, not directives
            self.kind = "label"
            self.label = stripped[:-1]
        elif not stripped or stripped.startswith((".", "#", ";")) \
                or stripped.split()[0].endswith(":"):
            # directives, comments, and label-prefixed data lines
            # (``gv_x: .word 0``, ``str_0: .asciiz "..."``)
            self.kind = "other"
        else:
            self.kind = "instr"
            head, _, rest = stripped.partition(" ")
            self.op = head
            if rest:
                self.args = [a.strip() for a in rest.split(",")]

    def render(self) -> str:
        if self.kind != "instr":
            return self.text
        if not self.args:
            return "    " + self.op
        return "    %s %s" % (self.op, ", ".join(self.args))


def _regs(text: str) -> frozenset:
    """All register names appearing in an operand string."""
    found = []
    for m in _REG.finditer(text):
        found.append("r" + m.group(1) if m.group(1) else m.group(2))
    return frozenset(found)


def _reads_writes(line: _Line) -> Optional[Tuple[frozenset, frozenset]]:
    """``(reads, writes)`` register sets, or ``None`` for an opcode
    this pass does not model (treated as a full barrier)."""
    op, args = line.op, line.args
    if op in ("mov", "neg", "not", "setbound") or op in _IMM_OPS:
        reads = frozenset().union(*(_regs(a) for a in args[1:])) \
            if len(args) > 1 else frozenset()
        return reads, _regs(args[0])
    if op in ("load", "loadb", "loadh"):
        return _regs(args[1]), _regs(args[0])
    if op in ("store", "storeb", "storeh"):
        return _regs(args[0]) | _regs(args[1]), frozenset()
    if op in ("print", "printc", "halt", "markfree"):
        return _regs(args[0]) if args else frozenset(), frozenset()
    if op == "push":
        return _regs(args[0]) | {"sp"}, frozenset({"sp"})
    if op == "pop":
        return frozenset({"sp"}), _regs(args[0]) | {"sp"}
    if op in ("beqz", "bnez"):
        return _regs(args[0]), frozenset()
    if op in ("jmp", "ret", "abort", "call", "callr"):
        # block enders; liveness scans never cross them
        return frozenset(), frozenset()
    if op == "setcode":
        return frozenset(), _regs(args[0])
    return None


def _dead_after(lines: List[_Line], start: int, reg: str) -> bool:
    """True when ``reg`` is overwritten before any read, without an
    intervening label/branch/unknown op.  Conservative: reaching a
    window end means live."""
    for line in lines[start:]:
        if line.kind == "other":
            continue
        if line.kind == "label" or line.op in _BLOCK_ENDS:
            return False
        rw = _reads_writes(line)
        if rw is None:
            return False
        reads, writes = rw
        if reg in reads:
            return False
        if reg in writes:
            return True
    return False


def _mov_imm(line: _Line) -> Optional[int]:
    """The immediate of a ``mov rX, <int>`` line, else ``None``."""
    if line.op == "mov" and len(line.args) == 2 \
            and _INT.match(line.args[1]):
        return int(line.args[1])
    return None


def _next_instr(lines: List[_Line], i: int,
                same_block: bool = True) -> int:
    """Index of the next instruction after ``i`` (skipping blanks),
    or ``-1``; with ``same_block`` a label stops the scan."""
    for j in range(i + 1, len(lines)):
        kind = lines[j].kind
        if kind == "instr":
            return j
        if kind == "label" and same_block:
            return -1
    return -1


def _collapse_branches(lines: List[_Line],
                       labels: Dict[str, int]) -> bool:
    """Retarget ``jmp``/``beqz``/``bnez`` through ``jmp``-only labels
    and drop jumps to the immediately following line."""
    changed = False
    doomed: List[int] = []
    for i, line in enumerate(lines):
        if line.kind != "instr" or line.op not in ("jmp", "beqz",
                                                   "bnez"):
            continue
        target = line.args[-1]
        seen = set()
        while target in labels and target not in seen:
            seen.add(target)
            j = _next_instr(lines, labels[target], same_block=False)
            if j < 0 or lines[j].op != "jmp":
                break
            target = lines[j].args[0]
        if target != line.args[-1]:
            line.args[-1] = target
            changed = True
        if line.op == "jmp":
            # falls straight through to its own target?
            for j in range(i + 1, len(lines)):
                nxt = lines[j]
                if nxt.kind == "other":
                    continue
                if nxt.kind == "label":
                    if nxt.label == line.args[0]:
                        doomed.append(i)
                    else:
                        continue
                break
    for i in reversed(doomed):
        del lines[i]
    return changed or bool(doomed)


def _drop_unreachable(lines: List[_Line]) -> bool:
    """Delete instructions between an unconditional transfer and the
    next label."""
    doomed: List[int] = []
    dead = False
    for i, line in enumerate(lines):
        if line.kind == "label":
            dead = False
        elif line.kind == "instr":
            if dead:
                doomed.append(i)
            elif line.op in _TRANSFERS:
                dead = True
    for i in reversed(doomed):
        del lines[i]
    return bool(doomed)


def _peephole(lines: List[_Line]) -> bool:
    """One sweep of the adjacent-pair rewrites; True when changed.

    Local rewrites resume one instruction back so cascades (constant
    chains, freshly created ``mov``s) settle within the sweep.
    """
    changed = False
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.kind != "instr":
            i += 1
            continue
        op, args = line.op, line.args

        # mov rX, rX / add|sub rX, rX, 0: complete no-ops (the
        # immediate forms propagate rX's own metadata unchanged)
        if (op == "mov" and len(args) == 2 and args[0] == args[1]) \
                or (op in ("add", "sub") and len(args) == 3
                    and args[0] == args[1] and args[2] == "0"):
            del lines[i]
            changed = True
            i = max(i - 1, 0)
            continue

        j = _next_instr(lines, i)
        if j < 0:
            i += 1
            continue
        nxt = lines[j]

        imm = _mov_imm(line)
        if imm is not None:
            dst = args[0]
            # constant folding: mov rX, a ; op rX, rX, b
            if nxt.op in _FOLD_OPS and len(nxt.args) == 3 \
                    and nxt.args[0] == dst and nxt.args[1] == dst \
                    and _INT.match(nxt.args[2]):
                folded = _FOLD_OPS[nxt.op](imm & MASK32,
                                           int(nxt.args[2]) & MASK32)
                line.args = [dst, str(to_signed(folded))]
                del lines[j]
                changed = True
                i = max(i - 1, 0)
                continue
            # immediate substitution: mov rT, imm ; op rD, rS, rT
            # (the mov dies when rT is provably overwritten first —
            # the scan starts at the op itself, which no longer
            # reads rT after the substitution)
            if nxt.op in _IMM_OPS and len(nxt.args) == 3 \
                    and nxt.args[2] == dst and nxt.args[1] != dst:
                nxt.args[2] = str(to_signed(imm & MASK32))
                if _dead_after(lines, j, dst):
                    del lines[i]
                changed = True
                i = max(i - 1, 0)
                continue

        # store [X], rA ; load rB, [X]  (word-size both ways)
        if op == "store" and nxt.op == "load" \
                and nxt.args[1] == args[0]:
            src = args[1]
            dst = nxt.args[0]
            if not (_regs(args[0]) & _regs(dst)):
                if dst == src:
                    del lines[j]
                else:
                    nxt.op = "mov"
                    nxt.args = [dst, src]
                changed = True
                i = max(i - 1, 0)
                continue

        # load rA, [X] ; load rB, [X]  (second read forwards)
        if op == "load" and nxt.op == "load" \
                and nxt.args[1] == args[1] \
                and not (_regs(args[1]) & _regs(args[0])):
            if nxt.args[0] == args[0]:
                del lines[j]
            else:
                nxt.op = "mov"
                nxt.args = [nxt.args[0], args[0]]
            changed = True
            i = max(i - 1, 0)
            continue

        i += 1
    return changed


def optimize_asm(asm: str) -> str:
    """Run the peephole pipeline over assembler text to fixpoint."""
    lines = [_Line(raw) for raw in asm.splitlines()]
    for _ in range(100):
        labels = {line.label: i for i, line in enumerate(lines)
                  if line.kind == "label"}
        changed = _collapse_branches(lines, labels)
        changed |= _drop_unreachable(lines)
        changed |= _peephole(lines)
        if not changed:
            break
    return "\n".join(line.render() for line in lines) + "\n"
