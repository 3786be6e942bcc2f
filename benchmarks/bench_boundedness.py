"""Benchmark A2 -- memory-bound vs compute-bound workload classification.

The paper annotates its Figure 2 with a compute-bound / memory-bound split of
the workloads and notes that memory-bound kernels benefit less from extra
parallelism.  This benchmark classifies every workload from its performance
counters on a reference machine (2c4w8t, runtime Eq.-1 mapping; an
unregistered scenario run through the planner) and writes the table to
``benchmarks/results/boundedness.md``.
"""

import pytest

from repro.experiments.ablation import boundedness_record_from_job
from repro.experiments.report import render_table
from repro.scenarios import RUNTIME_STRATEGY, GridAxes, Planner, Scenario, ScenarioContext
from repro.sim.config import ArchConfig
from repro.workloads.problems import PAPER_PROBLEM_NAMES

from benchmarks.conftest import scale_from_env, write_result

REFERENCE = ArchConfig.from_name("2c4w8t")

BOUNDEDNESS = Scenario(
    name="boundedness",
    description="every paper workload under the runtime mapping on 2c4w8t",
    grid=GridAxes(problems=tuple(PAPER_PROBLEM_NAMES), configs=(REFERENCE,),
                  strategies=(RUNTIME_STRATEGY,)),
    analyze=lambda run: "",
)


def _classify():
    run = Planner().run(BOUNDEDNESS, ScenarioContext(scale=scale_from_env()))
    return [boundedness_record_from_job(job) for job in run.results()]


@pytest.mark.benchmark(group="ablation")
def test_boundedness_classification(benchmark):
    records = benchmark.pedantic(_classify, rounds=1, iterations=1, warmup_rounds=0)
    table = render_table(
        ["workload", "category", "classification", "memory instr share", "L1 hit rate"],
        [[r.problem, r.category, r.boundedness, f"{r.memory_intensity:.2f}",
          f"{r.l1_hit_rate:.2f}"] for r in records],
    )
    write_result("boundedness.md", table)

    by_name = {r.problem: r for r in records}
    # The element-wise streaming kernels are memory bound; the convolution
    # layer amortises every load over many MACs and is compute bound.  (The
    # remaining kernels sit close to the boundary and their label depends on
    # the problem scale, so they are reported but not asserted.)
    for name in ("vecadd", "relu", "saxpy"):
        assert by_name[name].boundedness == "memory-bound"
    assert by_name["conv2d"].boundedness == "compute-bound"
    benchmark.extra_info["classification"] = {r.problem: r.boundedness for r in records}
