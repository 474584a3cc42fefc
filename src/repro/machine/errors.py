"""Traps and control-flow signals raised by the simulated machine.

The paper's hardware "raises an exception" on a failed bounds check or
a non-pointer dereference (Figure 3); "the runtime system handles the
exception by either terminating the process or invoking some other
language-specific exception".  We model traps as Python exceptions that
unwind out of :meth:`repro.machine.cpu.CPU.run`.
"""

from __future__ import annotations

from typing import Optional


class SimError(Exception):
    """Base class for everything the simulator can raise."""


class Trap(SimError):
    """A hardware exception delivered to the runtime system.

    ``pc`` is the instruction index that trapped (filled in by the CPU
    when the trap crosses the execute stage).
    """

    kind = "trap"

    def __init__(self, message: str, pc: Optional[int] = None):
        super().__init__(message)
        self.pc = pc

    def at(self, pc: int) -> "Trap":
        """Attach the faulting pc (idempotent)."""
        if self.pc is None:
            self.pc = pc
            self.args = ("%s (at pc=%d)" % (self.args[0], pc),)
        return self


class BoundsError(Trap):
    """Spatial safety violation: effective address outside [base, bound)."""

    kind = "bounds"

    def __init__(self, addr: int, base: int, bound: int, access: str,
                 pc: Optional[int] = None):
        super().__init__(
            "bounds check failed: %s of 0x%08x outside [0x%08x, 0x%08x)"
            % (access, addr, base, bound), pc)
        self.addr = addr
        self.base = base
        self.bound = bound
        self.access = access


class NonPointerError(Trap):
    """Dereference through a register with no bounds metadata (Fig 3C)."""

    kind = "non-pointer"

    def __init__(self, value: int, access: str, pc: Optional[int] = None):
        super().__init__(
            "non-pointer dereference: %s through raw value 0x%08x"
            % (access, value), pc)
        self.value = value
        self.access = access


class MemoryFault(Trap):
    """Access to an unmapped page (null guard, wild address)."""

    kind = "fault"

    def __init__(self, addr: int, access: str = "access",
                 pc: Optional[int] = None):
        super().__init__("memory fault: %s of unmapped 0x%08x"
                         % (access, addr), pc)
        self.addr = addr
        self.access = access


class DivideByZeroError(Trap):
    """Integer divide or modulo by zero."""

    kind = "divide"

    def __init__(self, pc: Optional[int] = None):
        super().__init__("integer divide by zero", pc)


class InvalidCodePointerError(Trap):
    """Indirect call through a value without code-pointer metadata.

    Section 6.1: code pointers carry ``{base=MAXINT; bound=MAXINT}``;
    anything else cannot be the target of an indirect call.
    """

    kind = "code-pointer"

    def __init__(self, value: int, pc: Optional[int] = None):
        super().__init__("invalid code pointer 0x%08x" % value, pc)
        self.value = value


class UseAfterFreeError(Trap):
    """Temporal extension (Section 6.2): access to a freed word."""

    kind = "use-after-free"

    def __init__(self, addr: int, pc: Optional[int] = None):
        super().__init__("use-after-free: access to freed 0x%08x"
                         % addr, pc)
        self.addr = addr


class DoubleFreeError(Trap):
    """Temporal extension (Section 6.2): markfree of a dead region."""

    kind = "double-free"

    def __init__(self, addr: int, pc: Optional[int] = None):
        super().__init__("double free of region at 0x%08x" % addr, pc)
        self.addr = addr


class AbortError(Trap):
    """Program executed ``abort`` (used by the test harness)."""

    kind = "abort"

    def __init__(self, code: int, pc: Optional[int] = None):
        super().__init__("program aborted with code %d" % code, pc)
        self.code = code


class InstructionLimitExceeded(SimError):
    """The configured instruction budget ran out (runaway program)."""

    def __init__(self, limit: int):
        super().__init__("instruction limit of %d exceeded" % limit)
        self.limit = limit


class HaltSignal(Exception):
    """Internal control flow: the program executed ``halt``."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code
