"""The summary arithmetic and verdicts of ``benchmarks/ab.py``."""

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


def summary(base, head, wins, n=10, q1=None, q3=None):
    return {"n": n, "base_median": base, "head_median": head,
            "base_q1": base - 0.5 if q1 is None else q1,
            "base_q3": base + 0.5 if q3 is None else q3,
            "head_wins": wins}


def test_verdict_gain_needs_nine_wins_in_ten_and_a_gap_past_the_iqr():
    # lower is better: 13.6 -> 10.6 ms, base IQR 13.1..13.7
    s = summary(13.6, 10.6, 10, q1=13.1, q3=13.7)
    assert ab.verdict(s, "lower", 0.25) == "gain"
    assert ab.verdict(dict(s, head_wins=9), "lower", 0.25) == "gain"
    # 8 of 10 wins is not enough, however large the gap
    assert ab.verdict(dict(s, head_wins=8), "lower", 0.25) == "same"
    # 10 wins, but the gap (0.3) is inside the IQR (0.6)
    assert ab.verdict(summary(13.6, 13.3, 10, q1=13.1, q3=13.7),
                      "lower", 0.25) == "same"
    # higher is better: the gap counts upward
    assert ab.verdict(summary(27.0, 30.0, 10), "higher", 0.25) == "gain"
    assert ab.verdict(summary(27.0, 24.0, 0), "higher", 0.25) == "same"


def test_verdict_worse_past_the_bound():
    # lower is better: 10.0 -> 12.6 is 26% worse
    assert ab.verdict(summary(10.0, 12.6, 0), "lower", 0.25) == "worse"
    assert ab.verdict(summary(10.0, 12.4, 0), "lower", 0.25) == "same"
    # higher is better: 20.0 -> 14.9 is 25.5% worse
    assert ab.verdict(summary(20.0, 14.9, 0), "higher", 0.25) == "worse"
    assert ab.verdict(summary(20.0, 15.1, 0), "higher", 0.25) == "same"


def test_verdict_unresolved_when_the_base_spreads_past_the_bound():
    # base IQR 2.6 on a median of 10: 26% > 25%
    s = summary(10.0, 10.5, 3, q1=8.6, q3=11.2)
    assert ab.verdict(s, "lower", 0.25) == "unresolved"
    assert ab.verdict(s, "lower", 0.30) == "same"
    # a regression past the bound is still worse
    assert ab.verdict(dict(s, head_median=13.0), "lower",
                      0.25) == "worse"


def test_verdict_same_otherwise():
    assert ab.verdict(summary(55.4, 55.7, 3, n=6), "lower", 0.25) == "same"
    assert ab.verdict(summary(5.0, 5.0, 0, n=1, q1=5.0, q3=5.0),
                      "lower", 0.25) == "same"


def test_bounds_cover_the_end_to_end_metrics():
    bound = ab.bounds(ab.benchmark_spec())
    assert {"latency_ms", "throughput", "setup_s"} <= set(bound)
    assert "execute_ms" not in bound
    assert all(0 < value < 1 for value in bound.values())
