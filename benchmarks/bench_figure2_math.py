"""Benchmark E2 (math kernels) -- Figure 2: mapping comparison across machines.

Runs the ``figure2`` scenario for the five stand-alone math kernels
(vecadd, relu, saxpy, sgemm, kNN): the hardware grid under the three
mappings of the paper.  Writes the per-kernel violin statistics
(average / %-worse / worst) to ``benchmarks/results/figure2_math.md``.

The default grid is the 36-configuration ``bench`` grid with ``bench``-scale
problem sizes; set ``REPRO_SWEEP=paper`` and ``REPRO_SCALE=paper`` to run the
full 450-configuration, paper-sized sweep.
"""

import pytest

from repro.experiments.report import render_figure2_table, render_speedup_summary
from repro.scenarios import REGISTRY

from benchmarks.conftest import sweep_result, write_result

MATH_KERNELS = ("vecadd", "relu", "saxpy", "knn")
#: sgemm is separated out: its inner K-loop makes it the slowest math kernel
#: to simulate, and keeping it in its own benchmark entry keeps timings legible.
SGEMM = ("sgemm",)


def _run_sweep(problem_names):
    return sweep_result(REGISTRY.get("figure2"), problem_names)


@pytest.mark.benchmark(group="figure2-math")
def test_figure2_elementwise_math_kernels(benchmark):
    result = benchmark.pedantic(_run_sweep, args=(MATH_KERNELS,),
                                rounds=1, iterations=1, warmup_rounds=0)
    table = render_figure2_table(result)
    summary = render_speedup_summary(result)
    write_result("figure2_math.md", table + "\n\n" + summary)

    for problem in MATH_KERNELS:
        lws1 = result.stats(problem, "lws=1")
        lws32 = result.stats(problem, "lws=32")
        # Figure-2 shape: the hardware-aware mapping wins on average against
        # both baselines and is never catastrophically worse anywhere.
        assert lws1.average >= 1.0
        assert lws32.average >= 1.0
        assert lws1.worst >= 0.7
        assert lws32.worst >= 0.7
        benchmark.extra_info[problem] = {
            "lws1_avg": round(lws1.average, 2), "lws1_worst": round(lws1.worst, 2),
            "lws32_avg": round(lws32.average, 2), "lws32_worst": round(lws32.worst, 2),
        }


@pytest.mark.benchmark(group="figure2-math")
def test_figure2_sgemm(benchmark):
    result = benchmark.pedantic(_run_sweep, args=(SGEMM,),
                                rounds=1, iterations=1, warmup_rounds=0)
    write_result("figure2_sgemm.md", render_figure2_table(result))
    stats1 = result.stats("sgemm", "lws=1")
    stats32 = result.stats("sgemm", "lws=32")
    assert stats1.average >= 1.0
    assert stats32.average >= 1.0
    benchmark.extra_info["lws1_avg"] = round(stats1.average, 2)
    benchmark.extra_info["lws32_avg"] = round(stats32.average, 2)
