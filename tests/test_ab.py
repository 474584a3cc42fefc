"""The summary arithmetic of ``benchmarks/ab.py``."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

_spec = importlib.util.spec_from_file_location(
    "ab", os.path.join(ROOT, "benchmarks", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_lower_is_better_medians_quartiles_and_wins():
    pairs = [(10.0, 9.0), (12.0, 12.0), (11.0, 11.5), (13.0, 10.0),
             (14.0, 13.0)]
    s = ab.summarize(pairs, "lower")
    assert s["n"] == 5
    assert s["base_median"] == 12.0
    assert s["head_median"] == 11.5
    # statistics.quantiles' default ("exclusive") method on 10..14
    assert s["base_q1"] == pytest.approx(10.5)
    assert s["base_q3"] == pytest.approx(13.5)
    # the tie (12.0, 12.0) counts for neither side
    assert s["head_wins"] == 3


def test_higher_is_better_flips_the_win_count():
    pairs = [(25.0, 26.0), (24.0, 22.0), (23.0, 21.0), (25.5, 25.5)]
    assert ab.summarize(pairs, "higher")["head_wins"] == 1
    assert ab.summarize(pairs, "lower")["head_wins"] == 2


def test_one_pair_is_its_own_quartiles():
    s = ab.summarize([(3.0, 2.0)], "lower")
    assert (s["base_q1"], s["base_q3"]) == (3.0, 3.0)
    assert s["head_wins"] == 1


def test_directions_cover_every_benchmark_metric():
    better = ab.directions(ab.benchmark_spec())
    assert better["latency_ms"] == "lower"
    assert better["throughput"] == "higher"
    assert better["trace_coverage"] == "higher"
    assert set(better.values()) == {"lower", "higher"}
