"""Doc tables that quote the committed benchmark record match it."""

import json
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def time_table_rows(record: dict) -> list:
    """The rows of ARCHITECTURE's "Where the time goes" table."""
    rows = []
    for sweep in ("functional", "timed"):
        seconds = record["seconds"][sweep]
        rows.append("| %s | %.2f s | %.2f s | %.2f s | %.2fx |"
                    % (sweep, seconds["legacy"], seconds["decoded"],
                       seconds["blocks"],
                       record["speedups"][sweep]["blocks_vs_decoded"]))
    cold = record["cold"]
    rows.append("| cold (timed, one-shot) | — | %.2f s | %.2f s | %.2fx |"
                % (cold["decoded_seconds"], cold["blocks_seconds"],
                   cold["blocks_vs_decoded"]))
    return rows


def test_architecture_time_table_matches_the_record():
    with open(os.path.join(ROOT, "results", "BENCH_engine.json")) as fh:
        record = json.load(fh)
    with open(os.path.join(ROOT, "docs", "ARCHITECTURE.md"),
              encoding="utf-8") as fh:
        doc = fh.read()
    expected = time_table_rows(record)
    assert all(row in doc for row in expected), (
        "docs/ARCHITECTURE.md's \"Where the time goes\" rows should "
        "read, from results/BENCH_engine.json:\n" + "\n".join(expected))
