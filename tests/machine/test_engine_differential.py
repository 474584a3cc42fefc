"""Differential testing: every execution engine against the legacy one.

The decoded engine and the basic-block fusion engine must be
*bit-identical* to the legacy interpreter: same exit codes, program output, instruction/µop/cycle
counts, same HardBound and memory-system statistics, the same final
memory image, and the same traps (type, message, faulting pc) on
every violation.  These tests run real Olden workloads and the
violation scenarios under all three engines and compare everything
observable.  (``tests/machine/test_blocks.py`` extends the chain over
the full workload registry and the mid-block edge cases.)
"""

import pytest

from repro.harness.runner import compile_cached
from repro.machine import (
    CPU,
    BoundsError,
    InstructionLimitExceeded,
    MachineConfig,
    MemoryFault,
    NonPointerError,
    Trap,
)
from repro.minic.driver import compile_program, mode_for_config
from repro.workloads.registry import WORKLOADS

#: three Olden workloads exercising trees, graphs and linked lists
DIFF_WORKLOADS = ("treeadd", "em3d", "health")

ENGINES = ("legacy", "decoded", "blocks")
NEW_ENGINES = ("decoded", "blocks")


def memory_image(cpu):
    """Normalized final memory state: non-zero pages plus segments.

    ``Memory.nonzero_pages`` is backing-store independent, so this
    snapshot compares engines regardless of how the bytes are held.
    """
    return (cpu.memory.nonzero_pages(), cpu.memory.brk,
            cpu.memory.globals_limit)


def run_engines(program, **config_kw):
    """Run one program under every engine; return results and images."""
    results, images = {}, {}
    for engine in ENGINES:
        cpu = CPU(program, MachineConfig(engine=engine, **config_kw))
        results[engine] = cpu.run()
        images[engine] = memory_image(cpu)
    return results, images


def assert_identical(legacy, other):
    assert other.exit_code == legacy.exit_code
    assert other.output == legacy.output
    assert other.instructions == legacy.instructions
    assert other.uops == legacy.uops
    assert other.stall_cycles == legacy.stall_cycles
    assert other.cycles == legacy.cycles
    assert other.setbound_uops == legacy.setbound_uops
    if legacy.hb_stats is None:
        assert other.hb_stats is None
    else:
        assert other.hb_stats.as_dict() == legacy.hb_stats.as_dict()
    if legacy.mem_stats is None:
        assert other.mem_stats is None
    else:
        assert other.mem_stats.as_dict() == legacy.mem_stats.as_dict()


def assert_all_identical(results, images=None):
    for engine in NEW_ENGINES:
        assert_identical(results["legacy"], results[engine])
        if images is not None:
            assert images[engine] == images["legacy"], engine


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", DIFF_WORKLOADS)
    def test_hardbound_functional(self, name):
        config = MachineConfig.hardbound(timing=False)
        program = compile_cached(WORKLOADS[name].source,
                                 mode_for_config(config))
        results, images = run_engines(
            program, mode=config.mode, encoding=config.encoding,
            timing=False)
        assert_all_identical(results, images)

    @pytest.mark.parametrize("name", DIFF_WORKLOADS)
    def test_plain_functional(self, name):
        config = MachineConfig.plain(timing=False)
        program = compile_cached(WORKLOADS[name].source,
                                 mode_for_config(config))
        results, images = run_engines(
            program, mode=config.mode, timing=False)
        assert_all_identical(results, images)

    @pytest.mark.parametrize("name", DIFF_WORKLOADS)
    def test_hardbound_with_timing_model(self, name):
        """Full stats equality including stalls, cache and page counts.

        With timing on, the blocks engine runs the fast memory model,
        so this is also the whole-workload differential for
        :class:`repro.caches.fast.FastMemorySystem`.
        """
        config = MachineConfig.hardbound(encoding="intern11")
        program = compile_cached(WORKLOADS[name].source,
                                 mode_for_config(config))
        results, images = run_engines(
            program, mode=config.mode, encoding="intern11", timing=True)
        assert_all_identical(results, images)

    @pytest.mark.parametrize("encoding", ("extern4", "intern4"))
    def test_encodings_with_timing_model(self, encoding):
        config = MachineConfig.hardbound(encoding=encoding)
        program = compile_cached(WORKLOADS["em3d"].source,
                                 mode_for_config(config))
        results, images = run_engines(
            program, mode=config.mode, encoding=encoding, timing=True)
        assert_all_identical(results, images)

    def test_plain_with_timing_model(self):
        config = MachineConfig.plain()
        program = compile_cached(WORKLOADS["treeadd"].source,
                                 mode_for_config(config))
        results, images = run_engines(
            program, mode=config.mode, timing=True)
        assert_all_identical(results, images)


VIOLATIONS = {
    "heap-overflow": """
        int main() {
            int *p = (int*)malloc(4 * sizeof(int));
            p[4] = 1;
            return 0;
        }""",
    "heap-read-overflow": """
        int main() {
            int *p = (int*)malloc(8);
            return p[2];
        }""",
    "heap-underflow": """
        int main() {
            int *p = (int*)malloc(8);
            p[-1] = 3;
            return 0;
        }""",
}


class TestTrapEquivalence:
    @pytest.mark.parametrize("name", sorted(VIOLATIONS))
    def test_violations_trap_identically(self, name):
        config = MachineConfig.hardbound(timing=False)
        program = compile_program(VIOLATIONS[name],
                                  mode_for_config(config))
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=False, engine=engine))
            with pytest.raises(BoundsError) as exc:
                cpu.run()
            traps[engine] = (type(exc.value), str(exc.value),
                             exc.value.pc, cpu.icount, cpu.pc)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    def test_nonpointer_trap_identical(self):
        from repro.isa import assemble
        program = assemble("""
        main:
            mov r1, 0x2000000
            load r2, [r1]
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=False, engine=engine))
            with pytest.raises(NonPointerError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc, cpu.icount)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    def test_fetch_fault_identical(self):
        """Falling off the end faults with the same pc annotation."""
        from repro.isa import assemble
        program = assemble("main:\n  mov r1, 1\n")
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(MemoryFault) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    def test_instruction_limit_identical(self):
        from repro.isa import assemble
        program = assemble("main:\n  jmp main\n")
        states = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine, max_instructions=1000))
            with pytest.raises(InstructionLimitExceeded):
                cpu.run()
            states[engine] = (cpu.icount, cpu.pc)
        for engine in NEW_ENGINES:
            assert states[engine] == states["legacy"]

    def test_limit_mid_block_identical(self):
        """The limit can fire inside a fused straight-line run."""
        from repro.isa import assemble
        body = "\n".join("  add r1, r1, 1" for _ in range(20))
        program = assemble("main:\n%s\n  halt r1\n" % body)
        for limit in (1, 5, 19, 20, 21, 22):
            states = {}
            for engine in ENGINES:
                cpu = CPU(program, MachineConfig.plain(
                    timing=False, engine=engine,
                    max_instructions=limit))
                try:
                    result = cpu.run()
                    states[engine] = ("halt", result.exit_code,
                                      result.instructions, cpu.pc)
                except InstructionLimitExceeded:
                    states[engine] = ("limit", cpu.icount, cpu.pc)
            for engine in NEW_ENGINES:
                assert states[engine] == states["legacy"], limit

    def test_divide_by_zero_identical(self):
        from repro.isa import assemble
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 10
            mov r2, 0
            div r3, r1, r2
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(DivideByZeroError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc, cpu.icount)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    def test_divide_by_zero_mid_block_identical(self):
        """A trap from a fused ALU template attributes the right pc."""
        from repro.isa import assemble
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 10
            mov r2, 0
            add r3, r1, 5
            div r4, r3, r2
            add r5, r3, 1
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(DivideByZeroError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    @pytest.mark.parametrize("mode_fn", (MachineConfig.plain,
                                         MachineConfig.hardbound),
                             ids=("plain", "hardbound"))
    def test_subword_fault_mid_block_identical(self, mode_fn):
        """A byte store past the heap break, in the middle of a block,
        faults inside its legacy handler: the same trap, pc, count and
        memory-system counters on every engine."""
        from repro.isa import assemble
        program = assemble("""
        main:
            mov r1, 64
            sbrk r1
            setbound r2, r1, 128
            mov r3, 7
            storeb [r2 + 100], r3
            add r4, r3, 1
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, mode_fn(engine=engine))
            with pytest.raises(MemoryFault) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc, cpu.icount,
                             cpu.pc, cpu.memsys.stats.as_dict())
        assert traps["legacy"][1] == 4
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    def test_bad_return_identical(self):
        """The fused ret template raises the same code-pointer trap."""
        from repro.isa import assemble
        from repro.machine import InvalidCodePointerError
        program = assemble("""
        main:
            mov r1, 12345
            mov r15, r1
            ret
        """)
        for mode_fn in (MachineConfig.plain, MachineConfig.hardbound):
            traps = {}
            for engine in ENGINES:
                cpu = CPU(program, mode_fn(timing=False, engine=engine))
                with pytest.raises(InvalidCodePointerError) as exc:
                    cpu.run()
                traps[engine] = (str(exc.value), exc.value.pc,
                                 cpu.icount, cpu.pc)
            for engine in NEW_ENGINES:
                assert traps[engine] == traps["legacy"]


class TestTemporalEquivalence:
    def test_use_after_free_identical(self):
        from repro.machine.errors import UseAfterFreeError
        from repro.minic.driver import compile_program
        source = """
        int main() {
            int *p = (int*)malloc(4 * sizeof(int));
            p[1] = 7;
            free((void*)p);
            return p[1];             // dangling read
        }"""
        config = MachineConfig.hardbound(timing=False, temporal=True)
        program = compile_program(source, mode_for_config(config))
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=False, temporal=True, engine=engine))
            with pytest.raises(UseAfterFreeError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc, cpu.icount)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]

    @pytest.mark.parametrize("timing", (False, True))
    @pytest.mark.parametrize("size", ("r3", "16"))
    def test_markfree_forms_identical(self, size, timing):
        """``markfree`` with a register or an immediate size poisons
        the same range on every engine, and the load's trap, raised
        inside its legacy handler mid-block, leaves the same state
        under either timing model."""
        from repro.isa import assemble
        from repro.machine.errors import UseAfterFreeError
        program = assemble("""
        main:
            mov r1, 64
            sbrk r1
            setbound r2, r1, 16
            mov r3, 16
            store [r2 + 4], r3
            markfree r2, %s
            load r4, [r2 + 4]
            halt 0
        """ % size)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=timing, temporal=True, engine=engine))
            with pytest.raises(UseAfterFreeError) as exc:
                cpu.run()
            stats = cpu.memsys.stats.as_dict() if timing else None
            traps[engine] = (str(exc.value), exc.value.pc, cpu.icount,
                             cpu.pc, stats)
        for engine in NEW_ENGINES:
            assert traps[engine] == traps["legacy"]
