"""Violation corpus: generator shape and a fast detection sample.

The full 288-pair run lives in benchmarks/bench_violations.py; here
we verify the generator's coverage and run a representative sample.
"""

import itertools

import pytest

from repro.harness.violations import (
    ACCESSES,
    ADDRESSING,
    BOUNDS,
    CONTAINERS,
    MAGNITUDES,
    REGIONS,
    ViolationCase,
    generate_corpus,
    run_case,
    run_corpus,
)
from repro.machine import MachineConfig

FULL = MachineConfig.hardbound(timing=False)


def test_corpus_has_288_pairs():
    corpus = generate_corpus()
    assert len(corpus) == 288
    names = {case.name for case in corpus}
    assert len(names) == 288


def test_corpus_covers_every_dimension_combination():
    corpus = generate_corpus()
    seen = {(c.access, c.bound, c.region, c.container, c.addressing)
            for c in corpus}
    expected = set(itertools.product(ACCESSES, BOUNDS, REGIONS,
                                     CONTAINERS, ADDRESSING))
    assert seen == expected


def test_magnitudes_per_addressing():
    corpus = generate_corpus()
    for mode, mags in MAGNITUDES.items():
        have = {c.magnitude for c in corpus if c.addressing == mode}
        assert have == set(mags)


def test_sources_differ_between_variants():
    for case in generate_corpus()[:20]:
        assert case.bad_source != case.ok_source


@pytest.mark.parametrize("stride_offset", range(6))
def test_sampled_detection(stride_offset):
    """Every 36th pair, staggered: 48 distinct pairs across the six
    parametrized runs, all detected with no false positives."""
    cases = generate_corpus()[stride_offset::36]
    result = run_corpus(FULL, cases)
    assert result.detected == result.total
    assert not result.false_positives
    assert not result.errors


def test_malloc_only_mode_is_incomplete_by_design():
    """Footnote 2's mode protects heap objects at *per-allocation*
    granularity: whole-allocation overflows are caught, sub-object
    overflows inside a struct are not (they need the compiler's
    narrowing), and stack objects are wholly unprotected."""
    cfg = MachineConfig.malloc_only(timing=False)
    corpus = generate_corpus()
    heap_alloc = [c for c in corpus if c.region == "heap"
                  and c.container != "struct_member"][::4]
    heap_member = [c for c in corpus if c.region == "heap"
                   and c.container == "struct_member"
                   and c.magnitude == "one"
                   and c.addressing == "var_index"]
    stack = [c for c in corpus
             if c.region == "stack" and c.container != "struct_member"
             and c.magnitude == "one"][::4]

    alloc_result = run_corpus(cfg, heap_alloc)
    assert alloc_result.detected == alloc_result.total
    assert not alloc_result.false_positives

    member_result = run_corpus(cfg, heap_member)
    assert member_result.detected < member_result.total, \
        "sub-object overflows need compiler narrowing"
    assert not member_result.false_positives

    stack_result = run_corpus(cfg, stack)
    assert stack_result.detected < stack_result.total
    assert not stack_result.false_positives


def test_run_case_reports_errors_for_broken_source():
    case = generate_corpus()[0]
    case.bad_source = "int main() { syntax error"
    detected, fp, error = run_case(case, FULL)
    assert not detected and not fp
    assert error is not None


def test_case_names_are_stable():
    case = ViolationCase("read", "upper", "heap", "char_array",
                         "const_index", "one")
    assert case.name == "read-upper-heap-char_array-const_index-one"


# -- every engine, not just the default ------------------------------------

ENGINES = ("legacy", "decoded", "blocks")


@pytest.mark.parametrize("engine", ENGINES)
def test_sampled_detection_under_every_engine(engine):
    """The detection contract holds per engine, not just under the
    default blocks engine: a staggered 6-pair sample per engine
    (18 distinct pairs across the parametrized runs via the engine
    index) detects everything with zero false positives."""
    offset = ENGINES.index(engine) * 12
    cases = generate_corpus()[offset::48]
    config = MachineConfig.hardbound(timing=False, engine=engine)
    result = run_corpus(config, cases)
    assert result.detected == result.total
    assert not result.false_positives
    assert not result.errors


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_full_corpus_under_every_engine(engine):
    """All 288 pairs under every engine (the exhaustive version of
    the sample above; ~minutes per engine, hence the slow marker)."""
    config = MachineConfig.hardbound(timing=False, engine=engine)
    result = run_corpus(config)
    assert result.total == 288
    assert result.detected == 288
    assert not result.false_positives
    assert not result.errors
