"""The geometry axis of the fuzz smoke (``pytest -m fuzz``).

Under the default cache geometry every L1 miss of the smoke corpus
and of the Olden sweep is also an L2 miss, so the differential
oracle never sees an eviction come back, an L2 hit or a deep-way hit:
only the synthetic streams of ``tests/caches/test_fast.py`` would
check the fast model's drain there.  This smoke replays a fixed slice
of the smoke's ISA and MiniC seeds under three small geometries and
compares the ``blocks`` and ``legacy`` timed outcomes field by field,
through the oracle's own ``run_once`` with ``CPU`` rebound to carry
the geometry (``fuzz_one``'s work per seed stays as it is).  It also
asserts that the slice does what it is for: L2 hits on the data, tag
and shadow kinds, and demotions above misses (deep-way hits) in the
set-associative geometries.
"""

import pytest

from repro.caches.fast import FastMemorySystem
from repro.caches.hierarchy import CacheParams
from repro.fuzz import oracle
from repro.fuzz.isagen import generate_isa_program
from repro.fuzz.minicgen import generate_minic_program
from repro.isa.assembler import assemble
from repro.machine.config import MachineConfig
from repro.machine.cpu import CPU
from repro.minic.driver import compile_program, mode_for_config

pytestmark = pytest.mark.fuzz

#: the first seeds of the smoke's ISA and MiniC ranges
ISA_SEEDS = 48
MINIC_SEEDS = 8

#: small geometries where blocks come back from the L2 and ways
#: reorder: direct-mapped; 2-way with a 4-entry TLB and a one-set tag
#: cache; 8-way with a one-set L1 and tag cache
GEOMETRIES = {
    "direct": CacheParams(l1_size=128, l1_assoc=1, l2_size=4096,
                          l2_assoc=1, tag_cache_size=128,
                          tag_cache_assoc=1, tlb_entries=8,
                          tlb_assoc=1),
    "2way": CacheParams(l1_size=256, l1_assoc=2, l2_size=8192,
                        l2_assoc=2, tag_cache_size=64,
                        tag_cache_assoc=2, tlb_entries=4, tlb_assoc=2),
    "8way": CacheParams(l1_size=256, l1_assoc=8, l2_size=16384,
                        l2_assoc=8, tag_cache_size=256,
                        tag_cache_assoc=8, tlb_entries=16,
                        tlb_assoc=8),
}


@pytest.fixture(scope="module")
def programs():
    """``(program, config keywords)`` of the slice, as ``fuzz_one``
    builds them (MiniC with the default optimizer pass)."""
    out = []
    for seed in range(ISA_SEEDS):
        out.append((assemble(generate_isa_program(seed)),
                    oracle.config_for_seed(seed, "isa")))
    for seed in range(MINIC_SEEDS):
        config_kw = oracle.config_for_seed(seed, "minic")
        mode = mode_for_config(MachineConfig(**config_kw))
        out.append((compile_program(generate_minic_program(seed),
                                    mode=mode), config_kw))
    return out


def test_blocks_matches_legacy_under_small_geometries(programs,
                                                      monkeypatch):
    l1_misses = dict.fromkeys(("data", "tag", "shadow"), 0)
    l2_misses = dict(l1_misses)
    for name, params in sorted(GEOMETRIES.items()):
        models = []

        def geometry_cpu(program, config, params=params):
            cpu = CPU(program, config, params)
            if isinstance(cpu.memsys, FastMemorySystem):
                models.append(cpu.memsys)
            return cpu

        monkeypatch.setattr(oracle, "CPU", geometry_cpu)
        misses = demotions = 0
        for program, config_kw in programs:
            outcomes = {engine: oracle.run_once(program, MachineConfig(
                            engine=engine, timing=True, **config_kw))
                        for engine in ("legacy", "blocks")}
            fields = outcomes["legacy"].diff_fields(outcomes["blocks"])
            assert not fields, (name, config_kw, fields)
            for kind, stats in outcomes["blocks"].mem.items():
                misses += (stats["tlb_misses"] + stats["l1_misses"]
                           + stats["l2_misses"])
                if kind in l1_misses:
                    l1_misses[kind] += stats["l1_misses"]
                    l2_misses[kind] += stats["l2_misses"]
            demotions += models.pop().exits["demotions"]
        # a direct-mapped structure has no deeper ways to hit
        if name != "direct":
            assert demotions > misses, name
    for kind in l1_misses:
        assert l1_misses[kind] > l2_misses[kind], kind
