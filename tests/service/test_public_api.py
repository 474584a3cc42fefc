"""The stable public surface must not silently shrink.

These lists are the contract documented in docs/SERVICE.md and the
package docstrings: removing (or renaming) any of these names is an
API break and must be a deliberate, test-updating decision.
"""

import repro.harness
import repro.service

HARNESS_SURFACE = (
    "run_workload",
    "run_benchmark_matrix",
    "map_jobs",
    "ResultCache",
    "SweepSpec",
    "run_sweep",
    "BenchmarkRun",
    "ViolationCase",
    "generate_corpus",
    "run_corpus",
    "CorpusResult",
    "figure5_table",
    "figure6_table",
    "figure7_table",
    "check_uop_ablation_table",
    "format_table",
)

SERVICE_SURFACE = (
    "Client",
    "connect",
    "Service",
    "JobSpec",
    "ServiceError",
    "ServiceClosed",
    "JobFailed",
    "JobTimeout",
)


class TestPublicSurface:
    def test_harness_exports_do_not_shrink(self):
        missing = set(HARNESS_SURFACE) - set(repro.harness.__all__)
        assert not missing, \
            "repro.harness.__all__ lost: %s" % sorted(missing)

    def test_service_exports_do_not_shrink(self):
        missing = set(SERVICE_SURFACE) - set(repro.service.__all__)
        assert not missing, \
            "repro.service.__all__ lost: %s" % sorted(missing)

    def test_every_export_resolves(self):
        for module in (repro.harness, repro.service):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, \
                    "%s.%s exported but unresolvable" \
                    % (module.__name__, name)
