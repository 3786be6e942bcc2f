"""Benchmark E2 (ML layers) -- Figure 2: GCN and CNN workloads.

Sweeps the Gaussian filter and the ML layers of the paper (GCN aggregation,
GCN layer, ResNet20 conv layer) over a reduced hardware grid (the smoke grid
plus the two largest machines -- see ``benchmarks/conftest.py``) and writes
the Figure-2 statistics to ``benchmarks/results/figure2_ml.md``.  The grid
is an unregistered scenario: the registered ``figure2`` one with this
machine list.

These are the kernels the paper singles out as showing "atypical trends"
(Gaussian blur, nearest-neighbour search and GCN aggregation), so unlike the
math kernels only weak shape assertions are made: the hardware-aware mapping
must not lose on average, but individual configurations may favour a baseline.
"""

import pytest

from repro.core.mapper import PAPER_STRATEGIES
from repro.experiments.report import render_figure2_table, render_speedup_summary
from repro.scenarios import REGISTRY, GridAxes, Scenario

from benchmarks.conftest import call_limit_from_env, ml_sweep_from_env, sweep_result, write_result

STENCIL_KERNELS = ("gaussian", "gcn_aggregate")
LAYER_KERNELS = ("conv2d", "gcn_layer")

FIGURE2_ML = Scenario(
    name="figure2-ml",
    description="the Figure-2 strategy sweep on the ML benchmark grid",
    grid=lambda context: GridAxes(
        problems=context.problems,
        configs=tuple(ml_sweep_from_env()),
        strategies=tuple(PAPER_STRATEGIES),
        call_simulation_limit=call_limit_from_env(),
    ),
    analyze=REGISTRY.get("figure2").analyze,
)


def _run_sweep(problem_names):
    return sweep_result(FIGURE2_ML, problem_names)


@pytest.mark.benchmark(group="figure2-ml")
def test_figure2_gaussian_and_gcn_aggregate(benchmark):
    result = benchmark.pedantic(_run_sweep, args=(STENCIL_KERNELS,),
                                rounds=1, iterations=1, warmup_rounds=0)
    write_result("figure2_stencil.md", render_figure2_table(result))
    for problem in STENCIL_KERNELS:
        for baseline in ("lws=1", "lws=32"):
            stats = result.stats(problem, baseline)
            assert stats.average >= 0.95
            benchmark.extra_info[f"{problem}/{baseline}"] = round(stats.average, 2)


@pytest.mark.benchmark(group="figure2-ml")
def test_figure2_conv2d_and_gcn_layer(benchmark):
    result = benchmark.pedantic(_run_sweep, args=(LAYER_KERNELS,),
                                rounds=1, iterations=1, warmup_rounds=0)
    table = render_figure2_table(result)
    write_result("figure2_ml.md", table + "\n\n" + render_speedup_summary(result))
    for problem in LAYER_KERNELS:
        for baseline in ("lws=1", "lws=32"):
            stats = result.stats(problem, baseline)
            assert stats.average >= 0.95
            benchmark.extra_info[f"{problem}/{baseline}"] = round(stats.average, 2)
