"""Decoded instruction representation.

Instructions are plain Python objects (``__slots__`` for speed) rather
than packed words: the simulator is Harvard-style, with the program
counter indexing a list of :class:`Instruction`.  Code addresses are
therefore instruction indices; the paper's rule that code pointers
carry ``{base=MAXINT; bound=MAXINT}`` metadata (Section 6.1) is what
lets programs store them in data memory safely.
"""

from __future__ import annotations

from repro.isa.opcodes import reg_name


class Instruction:
    """One decoded instruction.

    Fields (unused ones are ``None``/defaults):

    ``op``
        The :class:`~repro.isa.opcodes.Op`.
    ``rd``
        Destination register index (source *value* register for STORE).
    ``rs``
        First source register / memory base register.
    ``rt``
        Second source register / memory index register.
    ``imm``
        Immediate operand (used when ``rt`` is ``None`` for ALU ops, as
        the size operand of ``setbound``, or the code of ``halt``).
    ``scale``
        Index scale for memory operands (1, 2, 4 or 8).
    ``disp``
        Displacement for memory operands.
    ``size``
        Access size in bytes for LOAD/STORE (1, 2 or 4).
    ``target``
        Branch/call destination as an instruction index (filled in by
        the assembler's link step).
    ``label``
        Original textual label of ``target``, kept for disassembly.
    """

    __slots__ = ("op", "rd", "rs", "rt", "imm", "scale", "disp",
                 "size", "target", "label")

    def __init__(self, op, rd=None, rs=None, rt=None, imm=None,
                 scale=1, disp=0, size=4, target=None, label=None):
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.scale = scale
        self.disp = disp
        self.size = size
        self.target = target
        self.label = label

    # -- convenience -----------------------------------------------------

    def mem_operand_str(self) -> str:
        """Render the memory operand as ``[rs + rt*scale + disp]``."""
        parts = []
        if self.rs is not None:
            parts.append(reg_name(self.rs))
        if self.rt is not None:
            term = reg_name(self.rt)
            if self.scale != 1:
                term += "*%d" % self.scale
            parts.append(term)
        if self.disp or not parts:
            parts.append(str(self.disp))
        return "[" + " + ".join(parts) + "]"

    def __repr__(self):
        from repro.isa.disasm import disassemble
        return "<Instruction %s>" % disassemble(self)

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__ if f != "label")

    def __hash__(self):
        return hash((self.op, self.rd, self.rs, self.rt, self.imm,
                     self.scale, self.disp, self.size, self.target))
