"""Machine model: memory, registers, traps and the in-order core."""

from repro.machine.errors import (
    SimError,
    Trap,
    BoundsError,
    NonPointerError,
    MemoryFault,
    DivideByZeroError,
    InvalidCodePointerError,
    UseAfterFreeError,
    DoubleFreeError,
    AbortError,
    InstructionLimitExceeded,
    HaltSignal,
)
from repro.machine.config import (
    ENGINE_BLOCKS,
    ENGINE_DECODED,
    ENGINE_LEGACY,
    ENGINES,
    MachineConfig,
    SafetyMode,
)
from repro.machine.memory import Memory
from repro.machine.registers import RegisterFile
from repro.machine.cpu import CPU, RunResult

__all__ = [
    "SimError",
    "Trap",
    "BoundsError",
    "NonPointerError",
    "MemoryFault",
    "DivideByZeroError",
    "InvalidCodePointerError",
    "UseAfterFreeError",
    "DoubleFreeError",
    "AbortError",
    "InstructionLimitExceeded",
    "HaltSignal",
    "ENGINE_BLOCKS",
    "ENGINE_DECODED",
    "ENGINE_LEGACY",
    "ENGINES",
    "MachineConfig",
    "SafetyMode",
    "Memory",
    "RegisterFile",
    "CPU",
    "RunResult",
]
