"""Compilation driver: source text to linked Program (and execution)."""

from __future__ import annotations

import functools
from typing import Optional

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.machine.config import MachineConfig, SafetyMode
from repro.machine.cpu import CPU, RunResult
from repro.minic.codegen import InstrumentMode, generate
from repro.minic.optimizer import optimize_asm
from repro.minic.parser import parse
from repro.minic.sema import analyze
from repro.minic.stdlib import STDLIB_SOURCE


@functools.lru_cache(maxsize=1)
def _front_end(source: str, mode: InstrumentMode, include_stdlib: bool,
               optimize_static: bool) -> str:
    """Parse, analyze and generate: the unoptimized assembler text.

    One entry is enough: callers that compile a source twice (the
    fuzz oracle's optimizer-off/on pair) do so back to back.
    """
    if include_stdlib:
        source = STDLIB_SOURCE + "\n" + source
    return generate(analyze(parse(source)), mode, optimize_static)


def compile_to_asm(source: str,
                   mode: InstrumentMode = InstrumentMode.HARDBOUND,
                   include_stdlib: bool = True,
                   optimize_static: bool = False,
                   optimize: bool = True) -> str:
    """Compile MiniC source to assembler text.

    ``optimize`` (default on) runs the textual peephole pass of
    :mod:`repro.minic.optimizer` over the generated assembler; it
    preserves observable results (output, traps, final memory) while
    shrinking the instruction stream.  ``optimize_static`` is the
    older AST-level constant folder; the two compose.
    """
    asm = _front_end(source, mode, include_stdlib, optimize_static)
    if optimize:
        asm = optimize_asm(asm)
    return asm


def compile_program(source: str,
                    mode: InstrumentMode = InstrumentMode.HARDBOUND,
                    include_stdlib: bool = True,
                    optimize_static: bool = False,
                    optimize: bool = True) -> Program:
    """Compile MiniC source to a linked :class:`Program`."""
    asm = compile_to_asm(source, mode, include_stdlib, optimize_static,
                         optimize)
    return assemble(asm)


def mode_for_config(config: MachineConfig) -> InstrumentMode:
    """The instrumentation matching a machine configuration.

    Full-safety HardBound runs need instrumented binaries; the plain
    baseline and the malloc-only legacy mode run binaries whose only
    instrumentation is inside ``malloc`` (kept by ``HARDBOUND`` mode;
    stripped entirely by ``NONE``).
    """
    if config.mode is SafetyMode.OFF:
        return InstrumentMode.NONE
    if config.mode is SafetyMode.MALLOC_ONLY:
        return InstrumentMode.HEAP_ONLY
    return InstrumentMode.HARDBOUND


def compile_and_run(source: str,
                    config: Optional[MachineConfig] = None,
                    mode: Optional[InstrumentMode] = None,
                    include_stdlib: bool = True,
                    optimize: bool = True) -> RunResult:
    """Compile and execute; returns the :class:`RunResult`.

    The instrumentation mode defaults to whatever matches the machine
    configuration (instrumented binaries for HardBound cores, plain
    binaries for the baseline core).
    """
    config = config or MachineConfig.hardbound(timing=False)
    if mode is None:
        mode = mode_for_config(config)
    program = compile_program(source, mode, include_stdlib,
                              optimize=optimize)
    return CPU(program, config).run()
