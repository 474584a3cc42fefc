"""Experiment harness: violation corpus, runners and figure tables.

The names in ``__all__`` are the harness's stable public surface
(documented in docs/SERVICE.md and README; guarded by
``tests/service/test_public_api.py`` so it cannot silently shrink):
one workload under one configuration (:func:`run_workload`), the
figure matrix (:func:`run_benchmark_matrix`), declarative sweeps
(:class:`SweepSpec`, :func:`run_sweep`), the pool idiom and result
cache they share (:func:`map_jobs`, :class:`ResultCache`) and the
figure tables.  The matrix and every sweep run through one cell
runner: in process, on a pool, or on the service fleet, with or
without the cache.
"""

from repro.harness.violations import (
    ViolationCase,
    generate_corpus,
    run_corpus,
    CorpusResult,
)
from repro.harness.runner import (
    BenchmarkRun,
    run_workload,
)
from repro.harness.parallel import (
    ResultCache,
    map_jobs,
    run_benchmark_matrix,
)
from repro.harness.sweep_api import (
    SweepSpec,
    run_sweep,
)
from repro.harness.figures import (
    figure5_table,
    figure6_table,
    figure7_table,
    check_uop_ablation_table,
    format_table,
)

__all__ = [
    "ViolationCase",
    "generate_corpus",
    "run_corpus",
    "CorpusResult",
    "BenchmarkRun",
    "run_workload",
    "run_benchmark_matrix",
    "ResultCache",
    "map_jobs",
    "SweepSpec",
    "run_sweep",
    "figure5_table",
    "figure6_table",
    "figure7_table",
    "check_uop_ablation_table",
    "format_table",
]
