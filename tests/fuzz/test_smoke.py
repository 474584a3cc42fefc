"""The fuzz smoke suite (``pytest -m fuzz``): the CI acceptance bar.

Fixed seed ranges, >= 200 generated programs, every one through all
three engines x both memory models (x optimize on/off for MiniC),
zero divergences.  Excluded from tier-1 by the ``fuzz`` marker; CI
runs it as its own job with a junit record the bench gate requires.
"""

import os

import pytest

from repro.fuzz.cli import run_fuzz
from repro.fuzz.rng import FUZZ_SEED_ENV

pytestmark = pytest.mark.fuzz

#: fixed smoke ranges: 168 ISA + 40 MiniC = 208 programs
ISA_SEEDS = 168
MINIC_SEEDS = 40

WORKERS = min(4, os.cpu_count() or 1)


def _assert_clean(records, expected):
    assert len(records) == expected
    bad = [r for r in records if not r["ok"]]
    assert not bad, (
        "divergent seeds %s — reproduce with %s=<seed>"
        % ([(r["level"], r["seed"]) for r in bad], FUZZ_SEED_ENV))


def test_isa_smoke_all_engines_both_models():
    records = run_fuzz(("isa",), seeds=ISA_SEEDS, workers=WORKERS,
                       timings=(False, True))
    _assert_clean(records, ISA_SEEDS)
    # the corpus must exercise both sides of the trap boundary
    statuses = {r["status"] for r in records}
    assert "exit" in statuses and "trap" in statuses


def test_minic_smoke_all_engines_both_models():
    records = run_fuzz(("minic",), seeds=MINIC_SEEDS,
                       workers=WORKERS, timings=(False, True))
    _assert_clean(records, MINIC_SEEDS)


def test_smoke_covers_200_programs():
    assert ISA_SEEDS + MINIC_SEEDS >= 200
