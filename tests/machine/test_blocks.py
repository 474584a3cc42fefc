"""Unit tests for the basic-block discovery pass and fusion engine.

The blocks engine must be bit-identical to the other engines on every
exit path — including traps raised mid-block, control transfers into
the middle of a block, and instruction limits that would fire inside
one.  The full-registry sweep at the bottom closes the equivalence
chain over all nine Olden workloads (``blocks`` vs ``decoded`` vs
``legacy``, timed).
"""

import pytest

from repro.fuzz.oracle import run_once
from repro.harness.runner import compile_cached, run_workload
from repro.isa import assemble
from repro.layout import (
    HEAP_BASE,
    NULL_GUARD,
    PAGE_SIZE,
    STACK_BASE,
    STACK_TOP,
)
from repro.machine import CPU, MachineConfig
from repro.machine.blocks import (
    MAX_BLOCK_LEN,
    BasicBlock,
    build_cfg,
    find_leaders,
)
from repro.minic.driver import compile_program, mode_for_config
from repro.workloads.registry import WORKLOADS

ENGINES = ("legacy", "decoded", "blocks")


def blocks_by_start(program):
    return {block.start: block for block in build_cfg(program)}


def run_all(program, mode_fn, timing=False, **kw):
    """Run under every engine; assert identical, return the blocks CPU."""
    results = {}
    cpus = {}
    for engine in ENGINES:
        cpu = CPU(program, mode_fn(timing=timing, engine=engine, **kw))
        r = cpu.run()
        results[engine] = (r.exit_code, r.instructions, r.uops,
                           r.stall_cycles, r.cycles, cpu.pc,
                           cpu.memory.nonzero_pages())
        cpus[engine] = cpu
    for engine in ENGINES[1:]:
        assert results[engine] == results["legacy"], engine
    return cpus["blocks"]


def trap_states(program, mode_fn, error, **kw):
    """Run every engine into ``error``; assert identical attribution.

    Returns the shared ``(message, trap pc, icount, final pc)``.
    """
    traps = {}
    for engine in ENGINES:
        cpu = CPU(program, mode_fn(timing=False, engine=engine, **kw))
        with pytest.raises(error) as exc:
            cpu.run()
        traps[engine] = (str(exc.value), exc.value.pc, cpu.icount,
                         cpu.pc)
    for engine in ENGINES[1:]:
        assert traps[engine] == traps["legacy"], engine
    return traps["legacy"]


LOOP = """
main:
    mov r1, 0
    mov r2, 200
head:
    beqz r2, done
    add r1, r1, 3
    jmp step
step:
    sub r2, r2, 1
    jmp head
done:
    halt r1
"""


#: a hot loop whose second pass enters the "step" block through a
#: computed call into its interior (pc 7, the "jmp head")
HOT_LOOP_ENTRY = """
main:
    mov r1, 0
    mov r2, 40
    mov r7, 0
head:
    beqz r2, after
    add r1, r1, 3
    jmp step
step:
    sub r2, r2, 1
    jmp head
after:
    bnez r7, fin
    mov r7, 1
    mov r2, 5
    setcode r5, step
    add r5, r5, 1
    callr r5
fin:
    halt r1
"""


class TestLeaderDiscovery:
    def test_straight_line_has_single_leader(self):
        program = assemble("""
        main:
            mov r1, 1
            add r1, r1, 2
            halt r1
        """)
        assert find_leaders(program) == {0}
        [block] = build_cfg(program)
        assert (block.start, block.length) == (0, 3)

    def test_branch_targets_and_fallthroughs_are_leaders(self):
        program = assemble("""
        main:
            mov r1, 5
        loop:
            sub r1, r1, 1
            bnez r1, loop
            mov r2, 7
            halt r2
        """)
        # leaders: entry, loop target, fallthrough after bnez
        assert find_leaders(program) == {0, 1, 3}
        blocks = blocks_by_start(program)
        assert blocks[0].length == 1          # mov feeds the loop head
        assert blocks[1].length == 2          # sub + bnez
        assert blocks[3].length == 2          # mov + halt

    def test_self_loop_is_its_own_block(self):
        program = assemble("main:\n  jmp main\n")
        assert find_leaders(program) == {0}
        [block] = build_cfg(program)
        assert (block.start, block.length) == (0, 1)

    def test_call_creates_target_and_return_leaders(self):
        program = assemble("""
        main:
            call fn
            halt 0
        fn:
            mov r0, 3
            ret
        """)
        assert find_leaders(program) == {0, 1, 2}
        blocks = blocks_by_start(program)
        assert blocks[2].length == 2          # mov + ret

    def test_setcode_immediate_is_a_leader(self):
        program = assemble("""
        main:
            setcode r1, fn
            callr r1
            halt 0
        fn:
            mov r0, 1
            ret
        """)
        leaders = find_leaders(program)
        assert 3 in leaders                   # the setcode target
        assert 2 in leaders                   # callr return point

    def test_branchy_program_blocks_partition_the_code(self):
        program = assemble("""
        main:
            mov r1, 10
            mov r2, 0
        head:
            beqz r1, done
            add r2, r2, r1
            sub r1, r1, 1
            jmp head
        done:
            halt r2
        """)
        blocks = build_cfg(program)
        covered = sorted(pc for block in blocks
                         for pc in range(block.start, block.end))
        assert covered == list(range(len(program.instrs)))

    def test_long_run_is_capped_and_chained(self):
        body = "\n".join("  add r1, r1, 1"
                         for _ in range(MAX_BLOCK_LEN + 10))
        program = assemble("main:\n%s\n  halt r1\n" % body)
        blocks = build_cfg(program)
        assert len(blocks) == 2
        first, second = blocks
        assert first.length == MAX_BLOCK_LEN
        assert second.start == MAX_BLOCK_LEN

    def test_basicblock_repr_and_end(self):
        block = BasicBlock(4, 3)
        assert block.end == 7
        assert "4..6" in repr(block)


class TestBlockExecution:
    def test_computed_entry_into_block_middle(self):
        """A callr into a non-leader pc falls back to single-stepping."""
        program = assemble("""
        main:
            setcode r1, target
            add r1, r1, 1
            callr r1
        target:
            mov r0, 7
            add r0, r0, 1
            add r0, r0, 1
            halt r0
        """)
        results = {}
        for engine in ("legacy", "blocks"):
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            result = cpu.run()
            results[engine] = (result.exit_code, result.instructions,
                               cpu.pc)
        assert results["blocks"] == results["legacy"]
        # entry skipped the mov, so r0 counts up from its initial 0
        assert results["blocks"][0] == 2

    def test_functional_loop_result(self):
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 100
        loop:
            add r1, r1, 3
            sub r2, r2, 1
            bnez r2, loop
            halt r1
        """)
        cpu = CPU(program, MachineConfig.plain(timing=False,
                                               engine="blocks"))
        result = cpu.run()
        assert result.exit_code == 300
        assert result.instructions == 2 + 3 * 100 + 1

    def test_blocks_engine_uses_fast_memory_system(self):
        from repro.caches.fast import FastMemorySystem
        program = assemble("main:\n  halt 0\n")
        cpu = CPU(program, MachineConfig.hardbound(engine="blocks",
                                                   timing=True))
        assert isinstance(cpu.memsys, FastMemorySystem)
        cpu_decoded = CPU(program, MachineConfig.hardbound(
            engine="decoded", timing=True))
        assert not isinstance(cpu_decoded.memsys, FastMemorySystem)

    def test_engine_name_is_validated(self):
        with pytest.raises(ValueError):
            MachineConfig(engine="warp")


#: the slow-path grid's targets: name -> (lines leaving the word's
#: address in r2, whether the word at it is mapped, whether a word one
#: byte above it crosses its segment's end, whether the words at and
#: below it are filled through r3 first).  One sbrk maps 4096 heap
#: bytes; the data segment holds four words at ``tbl``.  A fresh
#: ``Memory`` backs one stack page below ``STACK_TOP``: a stack target
#: below it that is not filled first is backed by the op under test,
#: and for an ``fp`` base that op is the stack word template itself,
#: which backs the arena mid-block.
SLOW_PATH_TARGETS = {
    "globals": (["mov r2, =tbl", "add r2, r2, 4"], True, False, True),
    "heap": (["mov r2, %d" % (HEAP_BASE + 64)], True, False, True),
    "heap_end": (["mov r2, %d" % (HEAP_BASE + 4092)], True, True, True),
    "past_brk": (["mov r2, %d" % (HEAP_BASE + 4096 + 64)], False, True,
                 False),
    "stack": (["mov r2, %d" % (STACK_TOP - 64)], True, False, True),
    "stack_top": (["mov r2, %d" % (STACK_TOP - 4)], True, True, True),
    "stack_low": (["mov r2, %d" % (STACK_TOP - 2 * PAGE_SIZE + 64)],
                  True, False, True),
    "stack_seam": (["mov r2, %d" % (STACK_TOP - PAGE_SIZE - 4)], True,
                   False, False),
    "stack_base": (["mov r2, %d" % STACK_BASE], True, False, False),
    "above_stack": (["mov r2, %d" % STACK_TOP], False, True, False),
    "null_guard": (["mov r2, %d" % (NULL_GUARD - 64)], False, True,
                   False),
}


class TestFusedMemoryTemplates:
    """The word memory templates: load/store bodies generated into
    the block closures (segment check + flat-arena access + tag probe
    + timing charge), bit-identical to the other engines."""

    def run_all(self, program, mode_fn, timing):
        results = {}
        for engine in ENGINES:
            cpu = CPU(program, mode_fn(timing=timing, engine=engine))
            r = cpu.run()
            results[engine] = (r.exit_code, r.instructions, r.uops,
                               r.stall_cycles, r.cycles,
                               cpu.memory.nonzero_pages())
        assert results["blocks"] == results["legacy"]
        assert results["decoded"] == results["legacy"]
        return results["blocks"]

    @pytest.mark.parametrize("timing", (False, True))
    def test_indexed_forms_fuse_identically(self, timing):
        """[base + index*scale + disp] loads and stores in a block."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r4, 2
            mov r5, 777
            store [r3 + r4*4 + 8], r5
            load r6, [r3 + r4*4 + 8]
            halt r6
        """)
        for mode_fn in (MachineConfig.hardbound, MachineConfig.plain):
            out = self.run_all(program, mode_fn, timing)
            assert out[0] == 777

    @pytest.mark.parametrize("timing", (False, True))
    def test_si_bounds_trap_mid_template(self, timing):
        """A BoundsError raised inside a fused si-form load keeps the
        per-instruction pc/icount attribution."""
        from repro.machine import BoundsError
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 16
            mov r4, 5
            load r6, [r3 + r4*4]
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.hardbound(
                timing=timing, engine=engine))
            with pytest.raises(BoundsError) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        assert traps["blocks"] == traps["legacy"]
        assert traps["decoded"] == traps["legacy"]

    @pytest.mark.parametrize("timing", (False, True))
    def test_unaligned_word_spills_identically(self, timing):
        """Unaligned fused words go through ``Memory.read``/``write``."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            add r3, r3, 1
            mov r5, 31337
            store [r3 + 4], r5
            load r6, [r3 + 4]
            halt r6
        """)
        out = self.run_all(program, MachineConfig.hardbound, timing)
        assert out[0] == 31337

    def test_memory_fault_mid_block_attribution(self):
        """A MemoryFault from the fused segment check points at the
        faulting instruction, not the block end."""
        from repro.machine import MemoryFault
        program = assemble("""
        main:
            mov r1, 0x2000000
            mov r2, 1
            mov r3, 2
            load r4, [r1]
            mov r5, 3
            halt 0
        """)
        traps = {}
        for engine in ENGINES:
            cpu = CPU(program, MachineConfig.plain(
                timing=False, engine=engine))
            with pytest.raises(MemoryFault) as exc:
                cpu.run()
            traps[engine] = (str(exc.value), exc.value.pc,
                             cpu.icount, cpu.pc)
        assert traps["blocks"] == traps["legacy"]
        assert traps["decoded"] == traps["legacy"]

    @pytest.mark.parametrize("timing", (False, True),
                             ids=("functional", "timed"))
    @pytest.mark.parametrize("mode_fn", (MachineConfig.plain,
                                         MachineConfig.hardbound),
                             ids=("plain", "hardbound"))
    @pytest.mark.parametrize("load", (True, False), ids=("load", "store"))
    @pytest.mark.parametrize("offset", (0, 1), ids=("aligned", "plus1"))
    @pytest.mark.parametrize("target", sorted(SLOW_PATH_TARGETS))
    @pytest.mark.parametrize("base", ("fp", "r4"))
    def test_word_outside_the_predicted_arena(self, base, target, offset,
                                              load, mode_fn, timing):
        """Each word template inlines one arena (the stack for an
        ``fp`` base, the heap for a general register); every other
        address — globals, the other arena, unaligned words, stack
        words below the backed part, the break, the null guard — goes
        through ``Memory.read`` / ``write``, with the same value,
        trap, counters and image as ``legacy``."""
        lines, mapped, straddles, filled = SLOW_PATH_TARGETS[target]
        fill = ["mov r7, 0x44332211",
                "setunsafe r3, r2",
                "store [r3 + -4], r7",
                "store [r3], r7"] if filled else []
        op = ["load r6, [%s + %d]" % (base, offset)]
        if not load:
            op = ["store [%s + %d], r5" % (base, offset)] + op
        program = assemble("\n    ".join(
            ["main:", "mov r1, 4096", "sbrk r1", "setbound r5, r1, 16"]
            + lines + fill + ["setunsafe %s, r2" % base] + op
            + ["halt r6", ".data",
               "tbl: .word 0x11223344, 0x55667788, 0x99aabbcc, "
               "0x7eeff00d"]))
        outcomes = {engine: run_once(program, mode_fn(engine=engine,
                                                      timing=timing))
                    for engine in ENGINES}
        legacy = outcomes["legacy"]
        assert legacy.status == ("exit" if mapped and not
                                 (offset and straddles) else "trap")
        for engine in ENGINES[1:]:
            assert legacy.diff_fields(outcomes[engine]) == [], engine

    @pytest.mark.parametrize("timing", (False, True))
    def test_stack_growth_mid_block_rebases_the_stack_template(self,
                                                               timing):
        """An ``fp`` word below the backed stack backs the arena down
        to ``STACK_BASE`` inside a fused block; the frame words after
        it, above and below the old base, index the grown arena."""
        program = assemble("""
        main:
            mov r5, 1234
            store [sp + -4], r5
            mov r2, %d
            setunsafe fp, r2
            store [fp + 8], r5
            load r6, [sp + -4]
            load r7, [fp + 8]
            add r6, r6, r7
            halt r6
        """ % STACK_BASE)
        for mode_fn in (MachineConfig.hardbound, MachineConfig.plain):
            out = self.run_all(program, mode_fn, timing)
            assert out[0] == 2468
        cpu = CPU(program, MachineConfig.hardbound(timing=timing))
        cpu.run()
        assert len(cpu.memory.stack_cell[0]) == STACK_TOP - STACK_BASE
        assert cpu.memory.stack_cell[2] == STACK_BASE

    def test_memory_templates_emitted(self):
        """The hot word shapes really fuse (no silent fallback)."""
        import repro.machine.blocks as blocks_mod
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r5, 5
            store [r3], r5
            load r6, [r3]
            halt r6
        """)
        CPU(program, MachineConfig.hardbound(
            engine="blocks", timing=True)).run()
        shapes = {shape for sig in blocks_mod._fuse_cache
                  for shape in sig}
        assert any(shape.startswith("ldhb_") for shape in shapes)
        assert any(shape.startswith("sthb_") for shape in shapes)


class TestMidBlockTraps:
    def test_mid_block_trap_attribution(self):
        """A trap firing inside a fused block reports the faulting
        instruction's pc and count, not the block boundary's."""
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 100
        head:
            beqz r2, done
            add r1, r1, 3
            sub r2, r2, 1
            jmp step
        step:
            sub r3, r2, 50
            div r4, r1, r3
            jmp head
        done:
            halt r1
        """)
        trap_states(program, MachineConfig.plain, DivideByZeroError)

    def test_single_step_trap_right_after_a_block(self):
        """A trap in a single-stepped instruction dispatched right
        after a whole block rewinds as a block of length 1: it is
        attributed to its own pc and count, not to the block before
        it."""
        from repro.machine import DivideByZeroError
        program = assemble("""
        main:
            mov r1, 10
            mov r2, 0
            mov r7, 0
            setcode r5, tgt
            add r5, r5, 1
            callr r5
        tgt:
            mov r3, 1
            div r4, r1, r2
            halt 0
        """)
        # the callr lands on pc 7, inside the block at tgt
        assert 7 not in find_leaders(program)
        _, pc, icount, final_pc = trap_states(
            program, MachineConfig.plain, DivideByZeroError)
        assert (pc, icount, final_pc) == (7, 7, 7)

    def test_mid_block_bounds_trap(self):
        """A HardBound violation inside a fused memory template keeps
        per-instruction attribution."""
        from repro.machine import BoundsError
        source = """
        int main() {
            int *p = (int*)malloc(32 * sizeof(int));
            int i;
            for (i = 0; i < 100; i = i + 1) {
                p[i] = i;              // overruns at i == 32
            }
            return 0;
        }"""
        config = MachineConfig.hardbound(timing=False)
        program = compile_program(source, mode_for_config(config))
        trap_states(program, MachineConfig.hardbound, BoundsError)

    def test_instruction_limit_inside_block(self):
        """When the whole-block charge would overrun the instruction
        limit, the dispatch single-steps, landing on exactly the
        legacy pc/icount."""
        from repro.machine import InstructionLimitExceeded
        program = assemble(LOOP)
        for limit in (50, 101, 202, 303, 500, 799, 800, 801):
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
            for engine in ENGINES[1:]:
                assert states[engine] == states["legacy"], (engine,
                                                            limit)

    def test_entry_into_hot_loop_block_middle(self):
        """A computed call into a pc interior to a hot loop's block
        single-steps to the next leader, then dispatches blocks
        again."""
        program = assemble(HOT_LOOP_ENTRY)
        # the callr lands on pc 7, the "jmp head" inside the step
        # block, skipping its decrement once, then re-enters the loop
        assert 7 not in find_leaders(program)
        run_all(program, MachineConfig.plain)

    def test_instruction_limit_at_every_offset_of_a_capped_run(self):
        """Every limit from the first instruction to past the halt,
        across a capped block and its fallthrough tail, lands all
        engines on the same status, count, pc and register."""
        from repro.machine import InstructionLimitExceeded
        program = assemble("main:\n    mov r1, 0\n"
                           + "    add r1, r1, 1\n" * (MAX_BLOCK_LEN + 6)
                           + "    halt r1\n")
        n = len(program.instrs)
        assert [b.length for b in build_cfg(program)] == \
            [MAX_BLOCK_LEN, n - MAX_BLOCK_LEN]
        for limit in range(1, n + 2):
            states = {}
            for engine in ENGINES:
                cpu = CPU(program, MachineConfig.plain(
                    timing=False, engine=engine,
                    max_instructions=limit))
                try:
                    cpu.run()
                    status = "halt"
                except InstructionLimitExceeded:
                    status = "limit"
                states[engine] = (status, cpu.icount, cpu.pc,
                                  cpu.regs.value[1])
            for engine in ENGINES[1:]:
                assert states[engine] == states["legacy"], (engine,
                                                            limit)
            assert states["legacy"][0] == ("halt" if limit >= n
                                           else "limit"), limit

    def test_mid_block_entry_builds_only_its_landing_pc(
            self, monkeypatch):
        """On ``blocks``, a computed call into a block's interior gives
        one-instruction entries only to the non-leader pcs it lands
        on; the loop's leaders keep dispatching their blocks."""
        import repro.machine.blocks as blocks_mod
        stepped, bound = [], {}
        real_step = blocks_mod._Fuser.step
        real_entry = blocks_mod._Fuser.entry

        def step(fuser, pc):
            stepped.append(pc)
            return real_step(fuser, pc)

        def entry(fuser, record):
            bound.setdefault(record[0], set()).add(record[1])
            return real_entry(fuser, record)

        monkeypatch.setattr(blocks_mod._Fuser, "step", step)
        monkeypatch.setattr(blocks_mod._Fuser, "entry", entry)
        program = assemble(HOT_LOOP_ENTRY)
        cpu = CPU(program, MachineConfig.plain(timing=False,
                                               engine="blocks"))
        assert cpu.run().exit_code == 135
        assert stepped == [7]
        # the loop body's two-instruction blocks, at 4 and at step
        blocks = blocks_by_start(program)
        for leader in (4, 6):
            assert bound[leader] == {blocks[leader].length} == {2}


class TestFullCoverageTemplates:
    def test_subword_and_env_ops_fuse(self):
        """Sub-word load/store and setbound/sbrk fused into a hot
        loop's block match every engine, timed."""
        program = assemble("""
        main:
            mov r1, 4096
            sbrk r1
            setbound r3, r1, 64
            mov r2, 50
        loop:
            beqz r2, done
            storeb [r3 + 1], r2
            loadb r4, [r3 + 1]
            storeh [r3 + 4], r4
            loadh r5, [r3 + 4]
            sub r2, r2, 1
            jmp loop
        done:
            halt r5
        """)
        run_all(program, MachineConfig.hardbound, timing=True)

    @pytest.mark.parametrize("timing", (False, True))
    def test_subword_traffic_identical(self, timing):
        """Byte/halfword traffic through the fused handler calls
        matches every engine, stats included."""
        source = """
        int main() {
            char *s = (char*)malloc(64);
            int i;
            int acc = 0;
            for (i = 0; i < 60; i = i + 1) {
                s[i] = i * 7;
            }
            for (i = 0; i < 60; i = i + 1) {
                acc = acc + s[i];
            }
            return acc;
        }"""
        config = MachineConfig.hardbound(timing=timing)
        program = compile_cached(source, mode_for_config(config))
        run_all(program, MachineConfig.hardbound, timing=timing)

    def test_nonprop_expression_templates_identical(self):
        program = assemble("""
        main:
            mov r1, 0
            mov r2, 30
        loop:
            beqz r2, done
            mul r3, r2, -3
            and r4, r3, 255
            xor r5, r4, r2
            shl r6, r5, 2
            sra r7, r3, 1
            add r1, r1, r7
            sub r2, r2, 1
            jmp loop
        done:
            halt r1
        """)
        run_all(program, MachineConfig.plain)


DEAD_PRINT = """
main:
    mov r1, 7
    jmp done
    print r1
    mov r2, 1
    jmp done
done:
    halt r1
"""


#: word stores and loads of a pointer and a sub-word store and load
#: in a loop
MIXED_MEMORY = """
main:
    mov r1, 4096
    sbrk r1
    setbound r3, r1, 64
    mov r5, 20
loop:
    store [r3 + 8], r3
    load r6, [r3 + 8]
    storeb [r3 + 1], r5
    loadb r7, [r3 + 1]
    sub r5, r5, 1
    bnez r5, loop
    halt r7
"""


#: handler-only ops (sbrk, a sub-word store and load, halt) and a dead
#: print
HANDLER_OPS = """
main:
    mov r1, 4096
    sbrk r1
    mov r2, 7
    storeb [r1 + 1], r2
    loadb r4, [r1 + 1]
    jmp done
    print r4
done:
    halt r4
"""


def slow_compiles(monkeypatch, nap):
    """Fresh fuser cache; every fuser compile sleeps ``nap`` s."""
    import time

    import repro.machine.blocks as blocks_mod
    monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
    real = blocks_mod._compile_fuser

    def slow(signature, parts):
        time.sleep(nap)
        return real(signature, parts)

    monkeypatch.setattr(blocks_mod, "_compile_fuser", slow)


class TestFirstDispatchCompile:
    """Fusers compile when their block (or, one-instruction, their
    pc) is first dispatched, and the compile seconds count as
    ``cfg_fusion`` on both template engines."""

    def test_never_entered_block_is_not_compiled(self, monkeypatch):
        import repro.machine.blocks as blocks_mod
        compiled = []
        real = blocks_mod._compile_fuser

        def spy(signature, parts):
            compiled.append(signature)
            return real(signature, parts)

        monkeypatch.setattr(blocks_mod, "_compile_fuser", spy)
        program = assemble(DEAD_PRINT)
        # the block after the jmp is a leader nothing jumps to
        dead = blocks_by_start(program)[2]
        assert dead.length == 3
        run_all(program, MachineConfig.plain)
        # each engine's count, from a cold fuser cache, on its own CPU:
        # blocks compiles its two entered blocks, decoded the three
        # instructions that run
        for engine, runs in (("blocks", 2), ("decoded", 3)):
            monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
            del compiled[:]
            cpu = CPU(program, MachineConfig.plain(timing=False,
                                                   engine=engine))
            cpu.run()
            assert len(compiled) == cpu.fuser_compiles == runs, engine
            assert ("print", "movri", "jmp") not in compiled, compiled
            assert ("print",) not in compiled, compiled
            assert cpu.fuser_source_bytes > 0
            # a rerun binds the compiled fusers
            rerun = CPU(program, MachineConfig.plain(timing=False,
                                                     engine=engine))
            rerun.run()
            assert rerun.fuser_compiles == 0

    def test_other_engines_leave_counts_unset(self):
        cpu = CPU(assemble(DEAD_PRINT),
                  MachineConfig.plain(timing=False, engine="legacy"))
        cpu.run()
        assert cpu.fuser_compiles is None
        assert cpu.fuser_source_bytes is None

    def test_handlers_bind_on_first_use(self, monkeypatch):
        """``bind_env`` binds no legacy handler up front; a run's map
        holds ``_h_<op>``, taken from the CPU's dispatch table, for
        exactly the handlers of the fusers it binds.  From a cold
        fuser cache that is the fusers the run dispatches."""
        import repro.machine.blocks as blocks_mod
        from repro.isa.opcodes import Op
        envs = []
        real = blocks_mod.bind_env

        def spy(cpu, ctx):
            env = real(cpu, ctx)
            assert not [name for name in env if name.startswith("_h_")]
            envs.append(env)
            return env

        monkeypatch.setattr(blocks_mod, "bind_env", spy)
        program = assemble(HANDLER_OPS)
        for engine in ("blocks", "decoded"):
            monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
            del envs[:]
            cpu = CPU(program, MachineConfig.plain(timing=False,
                                                   engine=engine))
            assert cpu.run().exit_code == 7
            (env,) = envs
            bound = {name for name in env if name.startswith("_h_")}
            # sub-word load and store, sbrk and halt run; the print
            # after the jmp never does
            assert bound == {"_h_sbrk", "_h_store", "_h_load",
                             "_h_halt"}, engine
            for name in bound:
                assert env[name] is cpu._dispatch[Op(name[3:])]

    @staticmethod
    def run_slow(monkeypatch, engine, nap=0.05):
        slow_compiles(monkeypatch, nap)
        cpu = CPU(assemble(LOOP), MachineConfig.plain(timing=False,
                                                      engine=engine))
        result = cpu.run()
        slept = nap * cpu.fuser_compiles
        assert result.phases["cfg_fusion"] >= slept
        assert result.phases["execute"] < slept / 2
        assert result.phases["decode"] < slept / 2
        return cpu

    def test_compile_seconds_charge_cfg_fusion(self, monkeypatch):
        cpu = self.run_slow(monkeypatch, "blocks")
        # five blocks; "add r1, r1, 3; jmp" and "sub r2, r2, 1; jmp"
        # share a shape signature, hence one fuser
        assert cpu.fuser_compiles == 4

    def test_compile_seconds_charge_decode(self, monkeypatch):
        """``decoded``'s one-instruction fusers are its build: their
        compile seconds land in ``cfg_fusion`` as on ``blocks``, and
        ``decode`` keeps only binding the environment."""
        cpu = self.run_slow(monkeypatch, "decoded")
        # mov r1/r2 share "movri", the two jmps "jmp", and "add r1,
        # r1, 3" / "sub r2, r2, 1" the add-immediate shape
        assert cpu.fuser_compiles == 5

    def test_cache_geometries_share_fusers(self):
        """Templates no longer depend on the cache geometry: blocks
        matches decoded under associativity 1, 2 and 8 (8 takes the
        probes' bounded-scan path), and a second geometry reuses the
        first one's fusers."""
        from repro.caches.hierarchy import CacheParams
        compiles = []
        for assoc in (1, 2, 8):
            params = CacheParams(l1_assoc=assoc, l2_assoc=assoc,
                                 tag_cache_assoc=assoc, tlb_assoc=assoc)
            snaps = {}
            for engine in ("decoded", "blocks"):
                r = run_workload("treeadd", MachineConfig.hardbound(
                    engine=engine, retain_cpu=True), params)
                snaps[engine] = (
                    r.exit_code, r.output, r.instructions, r.uops,
                    r.stall_cycles, r.cycles, r.setbound_uops,
                    r.hb_stats.as_dict(), r.mem_stats.as_dict(),
                    r.cpu.memory.nonzero_pages())
            assert snaps["blocks"] == snaps["decoded"], assoc
            compiles.append(r.cpu.fuser_compiles)
        assert compiles[1:] == [0, 0], compiles

    @pytest.mark.parametrize("first", (False, True),
                             ids=("functional_first", "timed_first"))
    @pytest.mark.parametrize("mode_fn, kw", (
        (MachineConfig.plain, {}),
        (MachineConfig.hardbound, {"encoding": "uncompressed"}),
    ), ids=("plain", "hardbound"))
    def test_memory_models_share_plan_and_fusers(self, monkeypatch,
                                                 first, mode_fn, kw):
        """A program's functional and fast-timed ``blocks`` runs share
        one fusion plan and one set of fusers, in either order: the
        second run compiles nothing.  The program takes the inline
        word templates (with a shadow charge under HardBound) and the
        sub-word handler calls."""
        import weakref

        import repro.machine.blocks as blocks_mod
        monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
        monkeypatch.setattr(blocks_mod, "_plan_cache",
                            weakref.WeakKeyDictionary())
        program = assemble(MIXED_MEMORY)
        compiles, plans = [], []
        for timing in (first, not first):
            cpu = CPU(program, mode_fn(engine="blocks", timing=timing,
                                       **kw))
            assert cpu.run().exit_code == 1
            compiles.append(cpu.fuser_compiles)
            plans.append(dict(blocks_mod._plan_cache[program]))
        assert compiles[0] > 0 and compiles[1] == 0, compiles
        (key, records), = plans[0].items()
        assert plans[1] == {key: records}
        assert plans[1][key] is records


#: one program holding every op in every operand form: memory ops in
#: base, frame, base+index, index-only and absolute form at every
#: size, ALU ops in reg and imm form (div/mod by immediate 0 too), and
#: setcode/halt/abort in reg and imm form
_OPERANDS = ("[r3 + 4]", "[sp + 8]", "[r3 + r2*4 + 4]", "[fp + r2*4]",
             "[r2*4 + 4]", "[4096]")
_ALU = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl",
        "shr", "sra", "seq", "sne", "slt", "sle", "sgt", "sge", "sltu",
        "sgeu")
EVERY_OP = "\n".join(
    ["main:",
     "    mov r1, 4096", "    mov r2, r1", "    xchg r1, r2",
     "    sbrk r1", "    setbound r3, r1, 64", "    setbound r4, r1, r2"]
    + ["    lea r5, %s" % operand for operand in _OPERANDS]
    + ["    %s r6, r5, %s" % (op, rt) for op in _ALU
       for rt in ("r4", "7", "-3")]
    + ["    div r6, r5, 0", "    mod r6, r5, 0"]
    + ["    %s r6, r5" % op for op in ("neg", "not", "readbase",
                                       "readbound", "setunsafe",
                                       "clrbnd")]
    + ["    setcode r7, tgt", "    setcode r7, r6",
       "    markfree r3, r2", "    markfree r3, 64"]
    + ["    %s r6, %s" % (op, operand) for op in ("load", "loadh", "loadb")
       for operand in _OPERANDS]
    + ["    %s %s, r6" % (op, operand)
       for op in ("store", "storeh", "storeb") for operand in _OPERANDS]
    + ["    print r6", "    printc r6", "    prints r6",
       "    beqz r6, tgt", "    bnez r6, tgt", "    call tgt",
       "    callr r7", "    jmp tgt", "    abort r6", "    abort 3",
       "    halt r6",
       "tgt:", "    ret", "    halt 0", ""])


def template_contexts():
    """``(label, config, observer)`` for every template-selection
    context a run can reach."""
    from repro.baselines.fatptr import SoftBoundEngine
    from repro.baselines.objtable import ObjectTableModel
    from repro.metadata.encodings import ENCODINGS

    # functional, classic-timed (decoded) and fast-timed (blocks)
    engines = (("blocks", False), ("decoded", True), ("blocks", True))
    safety = [("plain", MachineConfig.plain, {}),
              ("malloc-only", MachineConfig.malloc_only, {})]
    safety += [(name, MachineConfig.hardbound, {"encoding": name})
               for name in sorted(ENCODINGS)]
    knobs = [("temporal", {"temporal": True}),
             ("check_uop", {"check_uop": True}),
             ("check_access_extent", {"check_access_extent": True}),
             ("engine_factory", {"engine_factory": SoftBoundEngine})]
    for engine, timing in engines:
        where = "%s timing=%s" % (engine, timing)
        for name, mode_fn, kw in safety:
            yield (name + " " + where,
                   mode_fn(engine=engine, timing=timing, **kw), None)
        for name, kw in knobs:
            yield (name + " " + where, MachineConfig.hardbound(
                engine=engine, timing=timing, **kw), None)
        for name, mode_fn in (("plain", MachineConfig.plain),
                              ("full", MachineConfig.hardbound)):
            yield ("observer/%s %s" % (name, where),
                   mode_fn(engine=engine, timing=timing),
                   ObjectTableModel())


class TestTemplateCoverage:
    def test_every_instruction_has_a_compiling_template(
            self, monkeypatch):
        """Under every template-selection context, every instruction
        of :data:`EVERY_OP` has a template, and both its
        one-instruction fuser and its block's fuser compile and bind
        — no instruction is left without generated code."""
        import repro.machine.blocks as blocks_mod
        from repro.isa.opcodes import Op
        monkeypatch.setattr(blocks_mod, "_fuse_cache", {})
        program = assemble(EVERY_OP)
        missing = set(Op) - {instr.op for instr in program.instrs}
        assert not missing, missing
        contexts = 0
        for label, config, observer in template_contexts():
            cpu = CPU(program, config)
            cpu.observer = observer
            fuser = blocks_mod._Fuser(cpu)
            for pc, instr in enumerate(program.instrs):
                part = blocks_mod._template_part(instr, pc, fuser.ctx)
                assert isinstance(part, blocks_mod._Part), (label, instr)
                assert callable(fuser.step(pc)[0]), (label, instr)
            _, pending = fuser.block_table(program)
            for record in pending.values():
                assert callable(fuser.compile(record)[0]), label
            contexts += 1
        assert contexts == 3 * 12

    def test_word_templates_inline_one_predicted_arena(self):
        """Under every context, an inline word template holds one
        arena's word view: the stack's for an ``sp``/``fp`` base, the
        heap's for any other."""
        import repro.machine.blocks as blocks_mod
        from repro.isa.opcodes import Op, REG_FP, REG_SP
        program = assemble(EVERY_OP)
        seen = set()
        for label, config, observer in template_contexts():
            cpu = CPU(program, config)
            cpu.observer = observer
            ctx = blocks_mod._FuseCtx(cpu)
            for pc, instr in enumerate(program.instrs):
                if instr.op not in (Op.LOAD, Op.STORE):
                    continue
                part = blocks_mod._template_part(instr, pc, ctx)
                if part.shape.startswith("h_"):
                    continue
                views = [view for view in ("_heap[1]", "_stk[1]")
                         if any(view in line for line in part.lines)]
                frame = instr.rs in (REG_SP, REG_FP)
                assert views == ["_stk[1]" if frame else "_heap[1]"], (
                    label, part.shape)
                seen.add((instr.op, ctx.hb, frame))
        # loads and stores, plain and HardBound, frame or not
        assert len(seen) == 8, seen

    def test_memory_models_share_a_plan_key(self):
        """Every functional ``blocks`` context has the template
        selection key of its fast-timed ``blocks`` twin and of its
        classic-timed ``decoded`` twin: template selection depends on
        no timing model."""
        import repro.machine.blocks as blocks_mod
        program = assemble(EVERY_OP)
        keys = {}
        for label, config, observer in template_contexts():
            cpu = CPU(program, config)
            cpu.observer = observer
            keys[label] = blocks_mod._FuseCtx(cpu).key()
        functional = [label for label in keys
                      if label.endswith("blocks timing=False")]
        assert len(functional) == 12
        for label in functional:
            for twin in ("blocks timing=True", "decoded timing=True"):
                timed = label.replace("blocks timing=False", twin)
                assert keys[label] == keys[timed], (label, twin)


class TestInlineCompressibleExpr:
    def test_expr_matches_methods(self):
        """The spliced compressibility expressions agree with the
        stock encodings' is_compressible on a value grid."""
        from repro.metadata.encodings import (
            ENCODINGS,
            inline_compressible_expr,
        )
        cases = []
        for base in (0, 0x1000, 0x7FFF0000, 0xFFFFFF00):
            for size in (0, 4, 8, 56, 60, 8192, 8196, 10000):
                bound = (base + size) & 0xFFFFFFFF
                for value in (base, base + 4, 0):
                    cases.append((value, base, bound))
        for name, cls in ENCODINGS.items():
            enc = cls()
            expr = inline_compressible_expr(enc, "v", "b", "bd")
            assert expr is not None, name
            fn = eval("lambda v, b, bd: bool(%s)" % expr)
            for v, b, bd in cases:
                assert fn(v, b, bd) == bool(enc.is_compressible(v, b, bd)), \
                    (name, v, b, bd)

    def test_subclassed_encoding_returns_none(self):
        from repro.metadata.encodings import (
            Internal11Encoding,
            inline_compressible_expr,
        )

        class Odd(Internal11Encoding):
            def is_compressible(self, value, base, bound):
                return False

        assert inline_compressible_expr(Odd(), "v", "b", "bd") is None


class TestFullRegistryEquivalence:
    """Acceptance: bit-identity on the full Olden registry.

    ``blocks`` vs ``decoded`` vs ``legacy`` here on every workload,
    timed, so cache/TLB counters are in play.  ``blocks`` and
    ``decoded`` run the same templates, on the fast and the classic
    memory model, so their pair checks fusion and proves the two
    models counter-identical on one access stream; ``legacy``, on the
    classic model, checks that the templates charge in the legacy
    handlers' order.  Every trap scenario in
    ``test_engine_differential`` closes the chain to the reference
    interpreter.
    """

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_blocks_matches_decoded_timed(self, name):
        snaps = {}
        for engine in ENGINES:
            config = MachineConfig.hardbound(engine=engine,
                                             retain_cpu=True)
            r = run_workload(name, config)
            snaps[engine] = (
                r.exit_code, r.output, r.instructions, r.uops,
                r.stall_cycles, r.cycles, r.setbound_uops,
                r.hb_stats.as_dict(), r.mem_stats.as_dict(),
                r.cpu.memory.nonzero_pages())
        assert snaps["blocks"] == snaps["decoded"] == snaps["legacy"]

    def test_plain_core_matches_decoded_timed(self):
        for name in ("em3d", "health"):
            snaps = {}
            for engine in ("decoded", "blocks"):
                r = run_workload(name, MachineConfig.plain(
                    engine=engine, retain_cpu=True))
                snaps[engine] = (r.exit_code, r.output,
                                 r.instructions, r.cycles,
                                 r.mem_stats.as_dict(),
                                 r.cpu.memory.nonzero_pages())
            assert snaps["blocks"] == snaps["decoded"]


#: a heap pointer stored and reloaded every iteration (one word and
#: one shadow entry each, under the uncompressed encoding), then a
#: plain word; ``r5`` counts the iterations down
DRAIN_LOOP = """main:
    mov r1, 4096
    sbrk r1
    setbound r3, r1, 64
    mov r5, %d
loop:
    store [r3 + 8], r3
    load r6, [r3 + 8]
    store [r3 + 4], r5
    load r7, [r3 + 4]
    sub r5, r5, 1
    bnez r5, loop
    halt r7
"""


class TestTimingLogDrain:
    """The run loop drains the fast model's log at fixed instruction
    stops and on every exit, without moving the limit or a counter."""

    @staticmethod
    def spy_drains(monkeypatch, probe=lambda: None):
        """Record the log length, and what ``probe()`` returns, at
        every drain of every model."""
        from repro.caches.fast import FastMemorySystem
        calls = []
        make = FastMemorySystem._make_drain

        def spying(model, tag):
            drain = make(model, tag)

            def spy():
                calls.append((len(model._log), probe()))
                drain()
            return spy
        monkeypatch.setattr(FastMemorySystem, "_make_drain", spying)
        return calls

    def test_long_run_drains_mid_run(self, monkeypatch):
        import repro.machine.blocks as blocks_mod
        interval = blocks_mod.DRAIN_EVERY
        program = assemble(DRAIN_LOOP % (interval * 4 // 6))
        config = MachineConfig.hardbound(encoding="uncompressed",
                                         engine="blocks")
        cpus = []
        calls = self.spy_drains(
            monkeypatch, lambda: "execute" in cpus[0].timers.seconds)
        cpus.append(CPU(program, config))
        result = cpus[0].run()
        busy = [(n, charged) for n, charged in calls if n]
        assert len(busy) >= 4
        # two word entries and one shadow entry per three instructions
        assert max(n for n, _ in busy) <= interval + MAX_BLOCK_LEN
        # the exit drained what the last stop left before the phases
        # were charged, so the drain's seconds are the loop's
        assert busy[-1] == (busy[-1][0], False)
        monkeypatch.setattr(blocks_mod, "DRAIN_EVERY", 1 << 40)
        whole = CPU(program, config).run()
        assert result.mem_stats.as_dict() == whole.mem_stats.as_dict()
        assert result.cycles == whole.cycles

    def test_instruction_limit_around_drain_points(self, monkeypatch):
        """Every limit within a block's length of a drain stop lands
        all engines on the same status, count, pc, registers and
        memory-system counters."""
        from repro.machine import InstructionLimitExceeded
        import repro.machine.blocks as blocks_mod
        monkeypatch.setattr(blocks_mod, "DRAIN_EVERY", 100)
        program = assemble(DRAIN_LOOP % 40)
        calls = self.spy_drains(monkeypatch)
        for stop in (100, 200):
            for limit in range(stop - 12, stop + 13):
                states = {}
                for engine in ENGINES:
                    cpu = CPU(program, MachineConfig.hardbound(
                        encoding="uncompressed", engine=engine,
                        max_instructions=limit))
                    with pytest.raises(InstructionLimitExceeded):
                        cpu.run()
                    states[engine] = (cpu.icount, cpu.pc,
                                      tuple(cpu.regs.value),
                                      cpu.memsys.stats.as_dict())
                for engine in ENGINES[1:]:
                    assert states[engine] == states["legacy"], (
                        engine, limit)
        assert any(n for n, _ in calls)

    def test_power_takes_few_full_walks(self):
        """The drain's exit ledger on a real workload: almost every
        word charge is a repeat or a hot granule (0.6% full walks
        when the ledger was added; 56% of the word charges left the
        fused block for an out-of-line probe before the log)."""
        result = run_workload("power", MachineConfig.hardbound(
            encoding="intern11", engine="blocks", retain_cpu=True))
        exits = result.cpu.memsys.exits
        # sub-word accesses charge data and tag through ``access``
        assert 0 < exits["word_charges"] \
            <= result.mem_stats["data"].accesses
        assert exits["full_walks"] <= 0.05 * exits["word_charges"]
