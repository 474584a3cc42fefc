"""E9 (extension) — tag-metadata-cache size sensitivity.

Section 4.2 sizes the tag cache at 2KB (1-bit tags) / 8KB (4-bit
tags) on the argument that a 2KB tag cache covers a 64KB L1's worth
of data.  This ablation sweeps the tag cache size and shows the
knee: halving below the paper's choice costs cycles, growing beyond
it buys little.
"""

from conftest import write_result

from repro.caches.hierarchy import CacheParams
from repro.harness.runner import run_workload
from repro.machine.config import MachineConfig
from repro.harness.figures import format_table

SIZES = (512, 1024, 2048, 8192, 32768)
BENCHES = ("em3d", "health", "treeadd")


def test_tag_cache_sweep(benchmark):
    def sweep():
        rows = []
        results = {}
        for name in BENCHES:
            cycles_by_size = {}
            for size in SIZES:
                params = CacheParams(tag_cache_size=size)
                run = run_workload(
                    name, MachineConfig.hardbound(encoding="extern4"),
                    cache_params=params)
                cycles_by_size[size] = run.cycles
                # a tag access is one byte and never spans, so the
                # tag kind's miss rate is the tag cache's own
                tag = run.mem_stats.kinds["tag"]
                rows.append([name, "%dB" % size, "%d" % run.cycles,
                             "%.4f" % (tag.l1_misses / tag.accesses
                                       if tag.accesses else 0.0)])
            results[name] = cycles_by_size
        return rows, results

    rows, results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(["benchmark", "tag-cache", "cycles",
                          "tag-miss-rate"], rows,
                         "E9: tag cache size sensitivity (extern4)")
    print("\n" + table)
    write_result("tagcache_sweep.txt", table)

    for name, by_size in results.items():
        # a larger tag cache never makes things slower
        assert by_size[32768] <= by_size[512], name
        # the paper's 8KB choice (for 4-bit tags) captures most of the
        # benefit: growing 4x further changes cycles by < 2%
        assert abs(by_size[32768] - by_size[8192]) \
            <= 0.02 * by_size[8192], name
