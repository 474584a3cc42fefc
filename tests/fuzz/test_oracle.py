"""The differential oracle: outcome capture and diffing."""

import dataclasses

import pytest

import repro.fuzz.oracle as oracle
import repro.minic.driver as driver
from repro.fuzz.oracle import (
    Divergence,
    config_for_seed,
    diff_engines,
    diff_minic,
    fuzz_one,
    run_once,
)
from repro.isa.assembler import assemble
from repro.machine.config import MachineConfig, SafetyMode
from repro.minic.codegen import InstrumentMode


def outcome_of(asm, **config_kw):
    config_kw.setdefault("engine", "legacy")
    config_kw.setdefault("timing", False)
    return run_once(assemble(asm), MachineConfig(**config_kw))


class TestRunOnce:
    def test_exit_outcome(self):
        outcome = outcome_of("main:\n    mov r1, 7\n    print r1\n"
                             "    halt r1\n")
        assert outcome.status == "exit"
        assert outcome.exit_code == 7
        assert outcome.output == "7\n"
        assert outcome.image is not None
        assert outcome.trap is None

    def test_trap_outcome(self):
        outcome = outcome_of(
            "main:\n    mov r1, 64\n    sbrk r1\n"
            "    setbound r2, r1, 8\n    load r3, [r2 + 8]\n"
            "    halt r3\n",
            mode=SafetyMode.FULL, encoding="intern11")
        assert outcome.status == "trap"
        assert outcome.trap[0] == "BoundsError"
        assert outcome.trap[2] is not None     # faulting pc
        assert outcome.exit_code is None

    def test_limit_outcome(self):
        outcome = outcome_of("main:\nL:\n    jmp L\n",
                             max_instructions=100)
        assert outcome.status == "limit"
        assert outcome.icount >= 100

    def test_timed_trap_outcome_carries_counters_and_image(self):
        """A trap is compared on its counters and memory image too."""
        for engine in ("legacy", "decoded", "blocks"):
            outcome = outcome_of(
                "main:\n    mov r1, 64\n    sbrk r1\n"
                "    setbound r2, r1, 8\n    mov r3, 5\n"
                "    store [r2], r3\n    load r3, [r2 + 8]\n"
                "    halt r3\n",
                engine=engine, timing=True, mode=SafetyMode.FULL,
                encoding="intern11")
            assert outcome.status == "trap", engine
            assert outcome.hb["checks"] == 2, engine
            assert outcome.mem["data"]["accesses"] == 1, engine
            nonzero, brk, _ = outcome.image
            assert nonzero and brk > 0, engine
            assert outcome.cycles == outcome.uops + outcome.stall_cycles
            # the optimizer promises identical live memory only at exit
            assert outcome.observable()[4] is None, engine


class TestOutcomeDiff:
    def test_identical_outcomes_have_no_diff(self):
        a = outcome_of("main:\n    mov r1, 3\n    halt r1\n")
        b = outcome_of("main:\n    mov r1, 3\n    halt r1\n")
        assert a.diff_fields(b) == []

    def test_differing_fields_are_named(self):
        a = outcome_of("main:\n    mov r1, 3\n    halt r1\n")
        b = outcome_of("main:\n    mov r1, 4\n    halt r1\n")
        fields = a.diff_fields(b)
        assert "exit_code" in fields

    def test_observable_filters_stack_pages(self):
        outcome = outcome_of("main:\n    mov r1, 3\n    halt r1\n")
        status, exit_code, output, trap_kind, pages = \
            outcome.observable()
        assert (status, exit_code, trap_kind) == ("exit", 3, None)
        assert pages is not None


class TestDiffEngines:
    def test_clean_program_has_no_divergence(self):
        program = assemble("main:\n    mov r1, 5\n    mov r2, 3\n"
                           "    add r1, r1, r2\n    print r1\n"
                           "    halt r1\n")
        assert diff_engines(program) == []

    def test_trap_agreement_across_engines(self):
        program = assemble(
            "main:\n    mov r1, 64\n    sbrk r1\n"
            "    setbound r2, r1, 8\n    load r3, [r2 + 16]\n"
            "    halt r3\n")
        assert diff_engines(program, {
            "mode": SafetyMode.FULL, "encoding": "extern4"}) == []

    def test_functional_only_timing_subset(self):
        program = assemble("main:\n    mov r1, 1\n    halt r1\n")
        assert diff_engines(program, timings=(False,)) == []


class TestDiffMinic:
    def test_clean_source(self):
        source = ("int main() {\n"
                  "    int *p = (int*)malloc(4 * sizeof(int));\n"
                  "    p[1] = 5;\n"
                  "    print(p[1]);\n"
                  "    return p[1];\n"
                  "}\n")
        assert diff_minic(source, {
            "mode": SafetyMode.FULL, "encoding": "intern11"},
            timings=(False,)) == []


@pytest.fixture
def work(monkeypatch):
    """Counts of the CPU runs and MiniC compiles the oracle makes."""
    counts = {"runs": 0, "compiles": 0}

    class CountingCPU(oracle.CPU):
        def run(self):
            counts["runs"] += 1
            return super().run()

    compile_program = oracle.compile_program

    def counting_compile(*args, **kwargs):
        counts["compiles"] += 1
        return compile_program(*args, **kwargs)

    monkeypatch.setattr(oracle, "CPU", CountingCPU)
    monkeypatch.setattr(oracle, "compile_program", counting_compile)
    return counts


@pytest.fixture
def parses(monkeypatch):
    """Calls to the MiniC parser, from an empty front-end memo."""
    calls = []
    parse = driver.parse

    def counting_parse(source):
        calls.append(source)
        return parse(source)

    driver._front_end.cache_clear()
    monkeypatch.setattr(driver, "parse", counting_parse)
    yield calls
    driver._front_end.cache_clear()


class TestFuzzOne:
    def test_isa_seed_verdict(self):
        result = fuzz_one(1, "isa", timings=(False,))
        assert result.ok
        assert result.level == "isa"
        record = result.as_dict()
        assert record["seed"] == 1
        assert isinstance(record["config"]["mode"], str)

    def test_minic_seed_verdict(self):
        result = fuzz_one(0, "minic", timings=(False,))
        assert result.ok
        assert result.status == "exit"

    def test_isa_seed_runs_each_engine_once_per_model(self, work):
        assert fuzz_one(1, "isa").ok
        assert work == {"runs": 6, "compiles": 0}

    def test_minic_seed_compiles_each_binary_once(self, work):
        assert fuzz_one(0, "minic").ok
        assert work == {"runs": 12, "compiles": 2}

    def test_minic_seed_parses_once(self, work, parses):
        """The optimize-off/on pair shares one front-end pass."""
        assert fuzz_one(0, "minic").ok
        assert work["compiles"] == 2
        assert len(parses) == 1

    def test_timed_only_isa_seed_runs_its_reference(self, work):
        result = fuzz_one(2, "isa", timings=(True,))
        assert result.ok
        assert work["runs"] == 4
        config = MachineConfig(engine="legacy", timing=False,
                               **config_for_seed(2, "isa"))
        ref = run_once(assemble(result.program), config)
        assert ref.trap[0] == "BoundsError"
        assert (result.status, result.trap) == (ref.status, ref.trap[0])

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            fuzz_one(0, "fortran")

    def test_config_for_seed_is_deterministic(self):
        assert config_for_seed(9, "isa") == config_for_seed(9, "isa")
        draws = {str(config_for_seed(seed, "isa"))
                 for seed in range(40)}
        assert len(draws) >= 4   # modes and encodings both vary


def test_front_end_memo_is_keyed_by_mode(parses):
    """Two instrumentation modes of one source parse twice, and each
    gets its own mode's text."""
    source = "int main() { int a[2]; a[1] = 3; return a[1]; }\n"
    texts = {mode: driver.compile_to_asm(source, mode, optimize=False)
             for mode in (InstrumentMode.HARDBOUND, InstrumentMode.NONE)}
    assert len(parses) == 2
    assert texts[InstrumentMode.HARDBOUND] != texts[InstrumentMode.NONE]
    for mode, text in texts.items():
        assert text == driver._front_end.__wrapped__(
            source, mode, True, False)


def test_divergence_serializes():
    d = Divergence("engine", "blocks", True, ["cycles"], "detail")
    assert dataclasses.asdict(d)["engine"] == "blocks"
    assert "blocks" in str(d)
