"""Shared fixtures for the figure-regeneration benchmarks.

The full measurement matrix (9 Olden workloads x {baseline, three
encodings, CCured-sim, object-table}) is computed once per pytest
session and shared by every figure benchmark.  Each benchmark writes
its regenerated table to ``results/`` so EXPERIMENTS.md can point at
concrete artifacts.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.parallel import run_benchmark_matrix
from repro.harness.runner import BenchmarkRun, ENCODINGS, run_workload
from repro.machine.config import MachineConfig
from repro.workloads.registry import WORKLOADS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "results")

_cache = {}


def write_result(name: str, text: str) -> str:
    """Persist a regenerated table under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


@pytest.fixture(scope="session")
def matrix():
    """The full Section-5 measurement matrix (computed once)."""
    if "matrix" not in _cache:
        _cache["matrix"] = run_benchmark_matrix(with_baselines=True)
    return _cache["matrix"]


@pytest.fixture(scope="session")
def matrix_check_uop():
    """The Section 5.4 ablation matrix (check costs an explicit µop)."""
    if "check_uop" not in _cache:
        out = {}
        for name, wl in WORKLOADS.items():
            bench = BenchmarkRun(wl)
            bench.base = run_workload(wl, MachineConfig.plain())
            for enc in ENCODINGS:
                bench.encodings[enc] = run_workload(
                    wl, MachineConfig.hardbound(encoding=enc,
                                                check_uop=True))
            out[name] = bench
        _cache["check_uop"] = out
    return _cache["check_uop"]
