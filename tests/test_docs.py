"""Doc tables that quote the committed benchmark record match it."""

import json
import os
import re

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


def record_and_architecture() -> tuple:
    """The committed benchmark record and ARCHITECTURE's text."""
    with open(os.path.join(ROOT, "results", "BENCH_engine.json")) as fh:
        record = json.load(fh)
    with open(os.path.join(ROOT, "docs", "ARCHITECTURE.md"),
              encoding="utf-8") as fh:
        return record, fh.read()


def test_architecture_time_table_matches_the_record():
    record, doc = record_and_architecture()
    expected = time_table_rows(record)
    assert all(row in doc for row in expected), (
        "docs/ARCHITECTURE.md's \"Where the time goes\" rows should "
        "read, from results/BENCH_engine.json:\n" + "\n".join(expected))


def test_architecture_timing_share_matches_the_record():
    record, doc = record_and_architecture()
    quoted = re.findall(r"`timing_share`[^%]*?\sreads\s+(\d+\.\d)%", doc)
    expected = "%.1f" % (100.0 * record["timing_share"])
    assert quoted == [expected], (
        "docs/ARCHITECTURE.md should quote `timing_share` once, as "
        "%s%% from results/BENCH_engine.json; it quotes %s"
        % (expected, quoted))


def test_architecture_generated_source_matches_the_record():
    record, doc = record_and_architecture()
    quoted = re.findall(
        r"`cold\.fuser_source_bytes`[^%]*?\sreads\s+([\d,]+)\s+bytes",
        doc)
    expected = "{:,}".format(record["cold"]["fuser_source_bytes"])
    assert quoted == [expected], (
        "docs/ARCHITECTURE.md should quote `cold.fuser_source_bytes` "
        "once, as %s bytes from results/BENCH_engine.json; it quotes %s"
        % (expected, quoted))


def test_architecture_service_ratio_matches_the_record():
    record, doc = record_and_architecture()
    quoted = re.findall(
        r"`service_warm_vs_cold\.ratio`[^`]*?\sreads\s+(\d+\.\d+)x", doc)
    expected = "%.2f" % record["service_warm_vs_cold"]["ratio"]
    assert quoted == [expected], (
        "docs/ARCHITECTURE.md should quote `service_warm_vs_cold.ratio` "
        "once, as %sx from results/BENCH_engine.json; it quotes %s"
        % (expected, quoted))


def test_readme_quotes_no_hand_typed_speedup():
    """README points to ARCHITECTURE's record-tied table instead of
    typing measured speedups (``measured ~4.2x``) that go stale."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        quoted = re.findall(r"~\s*\d+(?:\.\d+)?x\b", fh.read())
    assert not quoted, (
        "README.md should quote no measured speedup; point to "
        "docs/ARCHITECTURE.md's \"Where the time goes\" table instead "
        "(it quotes %s)" % quoted)
