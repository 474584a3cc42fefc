"""The textual peephole optimizer (``repro.minic.optimizer``).

Unit cases pin each rewrite on hand-written assembler; the
differential sweep is the real contract: an optimized program must
produce identical *observable* results — exit code, output, trap
class and live final memory — to its unoptimized twin under all three
engines.  Cycle/µop counters legitimately differ (the optimized
binary is a shorter program), and so does the dead stack residue
below the final ``sp`` (it holds stale return addresses, which shift
when instruction indices change), so the memory comparison stops at
the stack region.
"""

import pytest

from repro.fuzz.rng import fuzz_rng, seed_banner
from repro.isa import assemble
from repro.layout import PAGE_SHIFT, STACK_BASE
from repro.machine import CPU, DivideByZeroError, MachineConfig
from repro.minic.driver import compile_program, compile_to_asm
from repro.minic.optimizer import optimize_asm

ENGINES = ("legacy", "decoded", "blocks")

#: first page of the stack region; pages at or above hold dead
#: residue after main returns and are excluded from the comparison
STACK_PAGE = STACK_BASE >> PAGE_SHIFT


def ops(text):
    """Mnemonic list of the instruction lines in assembler text."""
    out = []
    for raw in text.splitlines():
        s = raw.strip()
        if not s or s.endswith(":") or s.startswith("."):
            continue
        if s.split()[0].endswith(":"):
            continue
        out.append(s.split()[0])
    return out


def opt(body):
    return optimize_asm("main:\n" + body + "    halt r1\n")


class TestRewrites:
    def test_const_fold_chain(self):
        text = opt("    mov r1, 3\n"
                   "    add r1, r1, 4\n"
                   "    mul r1, r1, 2\n")
        assert ops(text) == ["mov", "halt"]
        assert "mov r1, 14" in text

    def test_immediate_substitution_kills_dead_temp(self):
        text = opt("    mov r1, 5\n"
                   "    mov r2, 7\n"
                   "    add r1, r1, r2\n"
                   "    mov r2, 0\n")
        # the temp mov dies (r2 is overwritten before any read) and
        # the fold then collapses the chain to a single constant
        assert "add" not in ops(text)
        assert "mov r1, 12" in text

    def test_immediate_substitution_keeps_live_temp(self):
        text = opt("    mov r2, 7\n"
                   "    add r1, r1, r2\n"
                   "    sub r3, r2, 1\n")
        assert "add r1, r1, 7" in text
        assert "mov r2, 7" in text  # r2 still read by the sub

    def test_div_mod_never_folded(self):
        text = opt("    mov r1, 8\n"
                   "    div r1, r1, 2\n")
        assert "div" in ops(text)

    def test_store_load_forwarding(self):
        text = opt("    store [fp - 4], r1\n"
                   "    load r1, [fp - 4]\n")
        assert ops(text) == ["store", "halt"]
        text = opt("    store [fp - 4], r1\n"
                   "    load r2, [fp - 4]\n")
        assert ops(text) == ["store", "mov", "halt"]
        assert "mov r2, r1" in text

    def test_forwarding_blocked_by_base_clobber(self):
        # the load's base register is the stored register: forwarding
        # would read a different address than the store wrote
        text = opt("    store [r2], r1\n"
                   "    load r2, [r2]\n")
        assert ops(text) == ["store", "load", "halt"]

    def test_subword_load_not_forwarded(self):
        text = opt("    storeb [fp - 4], r1\n"
                   "    loadb r1, [fp - 4]\n")
        assert ops(text) == ["storeb", "loadb", "halt"]

    def test_redundant_load_pair(self):
        text = opt("    load r1, [fp - 8]\n"
                   "    load r2, [fp - 8]\n")
        assert ops(text) == ["load", "mov", "halt"]

    def test_self_mov_and_add_zero_deleted(self):
        text = opt("    mov r1, r1\n"
                   "    add r2, r2, 0\n"
                   "    sub r3, r3, 0\n")
        assert ops(text) == ["halt"]

    def test_jmp_to_next_line_deleted(self):
        text = opt("    jmp next\n"
                   "next:\n"
                   "    mov r1, 1\n")
        assert "jmp" not in ops(text)

    def test_branch_chain_collapses(self):
        text = opt("    beqz r1, hop\n"
                   "    mov r1, 2\n"
                   "hop:\n"
                   "    jmp fin\n"
                   "fin:\n"
                   "    mov r1, 3\n")
        assert "beqz r1, fin" in text

    def test_unreachable_after_transfer_dropped(self):
        text = optimize_asm("main:\n"
                            "    jmp out\n"
                            "    mov r1, 9\n"
                            "    mov r2, 9\n"
                            "out:\n"
                            "    halt r1\n")
        assert ops(text) == ["halt"]

    def test_unknown_op_is_a_barrier(self):
        # setbound's imm form reads rs; a temp feeding it must survive
        text = opt("    mov r2, 7\n"
                   "    mul r1, r3, r2\n"
                   "    sbrk r2\n")
        assert "mov r2, 7" in text

    def test_data_and_directives_untouched(self):
        src = ("main:\n    halt r1\n    .data\n    .align 4\n"
               "    gv_g: .word 42\n    gv_a: .space 16\n"
               "    str_0: .asciiz \"x:\"\n")
        out = optimize_asm(src)
        for line in ("gv_g: .word 42", "gv_a: .space 16",
                     "str_0: .asciiz \"x:\""):
            assert line in out

    def test_fixpoint_on_large_program(self):
        body = "    mov r1, 0\n" + \
            "".join("    mov r2, %d\n    add r1, r1, r2\n" % i
                    for i in range(500))
        text = opt(body)
        # every pair but the last folds away within the fixpoint
        # budget (the final temp ``mov`` survives: the conservative
        # liveness scan stops at ``halt``, so it stays adjacent to —
        # and blocks — the very last fold)
        assert len(ops(text)) <= 4
        assert "mov r1, %d" % sum(range(499)) in text
        assert "add r1, r1, 499" in text


class TestObservableEquivalence:
    def run_both(self, source, config_fn, **kw):
        """(exit, output, live pages) per optimize setting/engine."""
        obs = {}
        for optimize in (False, True):
            per_engine = {}
            for engine in ENGINES:
                program = compile_program(
                    source, optimize=optimize)
                cpu = CPU(program, config_fn(
                    timing=False, engine=engine, retain_cpu=True,
                    **kw))
                r = cpu.run()
                pages = {p: d for p, d
                         in cpu.memory.nonzero_pages().items()
                         if p < STACK_PAGE}
                per_engine[engine] = (r.exit_code, r.output, pages)
            for engine in ENGINES[1:]:
                assert per_engine[engine] == per_engine["legacy"], \
                    (engine, optimize)
            obs[optimize] = per_engine["legacy"]
        assert obs[True] == obs[False]

    def test_arith_and_memory_program(self):
        self.run_both("""
        int acc;
        int main() {
            int *p = (int*)malloc(16 * sizeof(int));
            int i;
            for (i = 0; i < 16; i = i + 1) {
                p[i] = i * 3 + 1;
            }
            for (i = 0; i < 16; i = i + 1) {
                acc = acc + p[i];
            }
            print(acc);
            return acc & 255;
        }""", MachineConfig.hardbound)

    def test_trap_preserved_at_same_class(self):
        source = """
        int main() {
            int d = 4;
            int n = 20;
            while (d >= 0) {
                n = n / d;
                d = d - 1;
            }
            return n;
        }"""
        for optimize in (False, True):
            program = compile_program(source, optimize=optimize)
            cpu = CPU(program, MachineConfig.hardbound(timing=False))
            with pytest.raises(DivideByZeroError):
                cpu.run()

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_differential(self, seed):
        """Random straight-line+loop programs, optimized vs not,
        through all three engines.

        ``REPRO_FUZZ_SEED`` overrides the per-case seed (all eight
        cases then replay the same program — the reproduction
        contract of :mod:`repro.fuzz.rng`); failures print the seed
        to re-run with.
        """
        rng, effective = fuzz_rng(0xC0DE + seed)
        binops = ["+", "-", "*", "&", "|", "^"]
        lines = ["int g;", "int main() {",
                 "    int a = %d;" % rng.randrange(-50, 50),
                 "    int b = %d;" % rng.randrange(1, 50),
                 "    int c = 0;",
                 "    int *p = (int*)malloc(8 * sizeof(int));",
                 "    int i;"]
        for _ in range(rng.randrange(4, 10)):
            v = rng.choice("abc")
            kind = rng.randrange(5)
            if kind == 0:
                lines.append("    %s = %s %s %d;" % (
                    v, rng.choice("abc"), rng.choice(binops),
                    rng.randrange(-9, 10)))
            elif kind == 1:
                lines.append("    %s = %s %s %s;" % (
                    v, rng.choice("abc"), rng.choice(binops),
                    rng.choice("abc")))
            elif kind == 2:
                lines.append("    p[%d] = %s;" % (
                    rng.randrange(8), rng.choice("abc")))
            elif kind == 3:
                lines.append("    %s = p[%d];" % (
                    v, rng.randrange(8)))
            else:
                lines.append("    %s = %s / %d;" % (
                    v, rng.choice("abc"), rng.randrange(1, 7)))
        lines += ["    for (i = 0; i < 20; i = i + 1) {",
                  "        c = c + a - b + p[i & 7];",
                  "    }",
                  "    g = c;",
                  "    print(c);",
                  "    return c & 255;",
                  "}"]
        try:
            self.run_both("\n".join(lines), MachineConfig.hardbound)
        except AssertionError as err:
            raise AssertionError(
                "%s\n%s" % (err, seed_banner(
                    effective, "differential program"))) from err

    def test_assembled_text_unaffected_by_knob(self):
        """`optimize=` only touches minic output; hand-written
        assembler (the machine-test corpus) never goes through it."""
        program = assemble("main:\n    mov r1, 7\n    halt r1\n")
        r = CPU(program, MachineConfig.plain(timing=False)).run()
        assert r.exit_code == 7
        assert r.instructions == 2

    def test_static_instruction_count_shrinks(self):
        source = """
        int main() {
            int x = 2;
            int y = x * 8 + 1;
            return y;
        }"""
        plain = compile_to_asm(source, optimize=False)
        tight = compile_to_asm(source, optimize=True)
        assert len(ops(tight)) < len(ops(plain))
