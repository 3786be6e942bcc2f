"""Benchmark E6 -- the campaign engine: cache reuse and parallel scaling.

Two measurements on the ``figure2`` scenario's grid, run through the
scenario planner (``REPRO_SWEEP``/``REPRO_SCALE`` reduced by default, like
the other benchmarks):

* cold vs. warm cache: the first campaign simulates every grid point and
  persists the summaries; the second run of the identical grid must perform
  **zero** simulator invocations.  The benchmark reports both wall-clocks and
  their ratio -- the speedup every figure regeneration after the first enjoys.
* parallel speedup: the same cold grid executed with 1, 2 and 4 workers
  (no cache), checking that fan-out preserves bit-identical records.  The
  measured scaling is whatever the host grants -- on a single-core CI
  machine the interesting number is the (small) fan-out overhead, on a
  workstation the speedup.

Results land in ``benchmarks/results/campaign.md``.
"""

import time

import pytest

from repro.campaign import CampaignRunner, ResultCache
from repro.scenarios import REGISTRY

from benchmarks.conftest import sweep_result, write_result

KERNELS = ("vecadd", "relu")


def _run(runner):
    return sweep_result(REGISTRY.get("figure2"), KERNELS, runner=runner)


@pytest.mark.benchmark(group="campaign")
def test_campaign_cold_vs_warm_cache(benchmark, tmp_path):
    cold_started = time.perf_counter()
    cold_runner = CampaignRunner(cache=ResultCache(tmp_path))
    cold = _run(cold_runner)
    cold_seconds = time.perf_counter() - cold_started

    # benchmark the warm path: every point must come out of the cache.
    warm_runner = CampaignRunner(cache=ResultCache(tmp_path))
    warm = benchmark.pedantic(_run, args=(warm_runner,),
                              rounds=1, iterations=1, warmup_rounds=0)
    assert warm_runner.cache.misses == 0, "warm run must be fully cache-served"
    assert [r.as_dict() for r in warm.records] == [r.as_dict() for r in cold.records]

    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    write_result("campaign.md", "\n".join([
        "# Campaign engine: cold vs. warm cache (figure-2 grid)",
        "",
        f"jobs               : {len(cold.records)}",
        f"cold (simulated)   : {cold_seconds:.3f} s",
        f"warm (cache-served): {warm_seconds:.4f} s",
        f"speedup            : {speedup:.1f}x",
    ]))


@pytest.mark.benchmark(group="campaign")
def test_campaign_parallel_speedup(benchmark):
    timings = {}
    baseline = None
    for workers in (1, 2, 4):
        started = time.perf_counter()
        result = _run(CampaignRunner(workers=workers))
        timings[workers] = time.perf_counter() - started
        rows = [r.as_dict() for r in result.records]
        if baseline is None:
            baseline = rows
        else:
            assert rows == baseline, "parallel campaigns must match the serial records"

    # benchmark entry: the 4-worker run (re-executed for a clean measurement).
    benchmark.pedantic(_run, args=(CampaignRunner(workers=4),),
                       rounds=1, iterations=1, warmup_rounds=0)
    lines = ["# Campaign engine: parallel scaling (figure-2 grid, no cache)", ""]
    for workers, seconds in timings.items():
        speedup = timings[1] / seconds if seconds else float("inf")
        benchmark.extra_info[f"workers_{workers}_seconds"] = round(seconds, 3)
        lines.append(f"{workers} worker(s): {seconds:.3f} s  "
                     f"(speedup {speedup:.2f}x vs serial)")
    write_result("campaign_parallel.md", "\n".join(lines))
