"""Differential fuzzing at scale (the ROADMAP's crown-jewel item).

The three-way engine-equivalence contract — legacy / decoded /
blocks, under both the functional and the timed memory model — is
this repo's strongest correctness property.  This package
weaponizes it:

* :mod:`repro.fuzz.isagen` — random well-formed assembly over the
  full instruction registry (ALU, branches, call/ret, sub-word
  load/store, ``setbound``/``sbrk``, bounded loops, fuel-guaranteed
  termination);
* :mod:`repro.fuzz.minicgen` — random typed, pointer-heavy MiniC
  source, so the compiler and its peephole optimizer are fuzzed too;
* :mod:`repro.fuzz.oracle` — runs one program through all three
  engines × both memory models (× ``optimize`` on/off for MiniC) and
  diffs everything observable;
* :mod:`repro.fuzz.attacks` — randomized violation corpus (sub-object,
  intra-allocation and temporal attacks HardBound must trap);
* :mod:`repro.fuzz.minimize` — delta-debugging shrinker that reduces
  a divergent program to a committable regression test;
* :mod:`repro.fuzz.cli` — ``python -m repro.fuzz``: seed-range
  sharded fuzzing over harness worker processes with JSONL results
  through the obs event log.

Every randomized entry point threads its seed through
:func:`repro.fuzz.rng.fuzz_rng`, so any failure reproduces with
``REPRO_FUZZ_SEED=<seed>``.
"""

from repro.fuzz.rng import FUZZ_SEED_ENV, fuzz_rng, resolve_seed
from repro.fuzz.oracle import (
    Divergence,
    Outcome,
    diff_engines,
    diff_minic,
    fuzz_one,
    run_once,
)
from repro.fuzz.isagen import generate_isa_program
from repro.fuzz.minicgen import generate_minic_program

__all__ = [
    "FUZZ_SEED_ENV",
    "Divergence",
    "Outcome",
    "diff_engines",
    "diff_minic",
    "fuzz_one",
    "fuzz_rng",
    "generate_isa_program",
    "generate_minic_program",
    "resolve_seed",
    "run_once",
]
