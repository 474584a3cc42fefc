"""Replay every committed corpus entry through the full oracle.

``tests/fuzz/corpus/`` holds historically-tricky program shapes
(mid-block traps, alternating call/ret edges, an instruction limit
firing inside a block) plus any minimized divergence a fuzzing
session commits: each entry must diff clean across all three
engines × both memory models forever after.
"""

import os

import pytest

from repro.fuzz.minimize import load_corpus
from repro.fuzz.oracle import diff_engines, diff_minic
from repro.isa.assembler import assemble
from repro.machine.config import SafetyMode

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
ENTRIES = load_corpus(CORPUS_DIR)


def config_kw_of(meta: dict) -> dict:
    """Rebuild MachineConfig keywords from a JSON sidecar."""
    out = dict(meta.get("config") or {})
    if "mode" in out:
        out["mode"] = SafetyMode(out["mode"])
    return out


def test_corpus_is_committed():
    names = {name for name, _prog, _meta in ENTRIES}
    assert {"isa-mid-trace-trap", "isa-ret-mispredict",
            "isa-instruction-limit"} <= names


@pytest.mark.parametrize(
    "name,program,meta", ENTRIES,
    ids=[name for name, _p, _m in ENTRIES])
def test_corpus_entry_diffs_clean(name, program, meta):
    config_kw = config_kw_of(meta)
    if meta.get("level") == "minic":
        divergences = diff_minic(program, config_kw)
    else:
        divergences = diff_engines(assemble(program), config_kw)
    assert divergences == [], \
        "committed regression %s diverged again: %s" \
        % (name, [str(d) for d in divergences])
