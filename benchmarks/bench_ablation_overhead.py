"""Benchmark A1 -- launch-overhead sensitivity ablation.

The penalty of the naive lws=1 mapping is driven by the per-call launch
overhead, a micro-architecture/runtime parameter of the simulated platform
and the main calibration knob of the reproduction.  This ablation sweeps the
overhead from 0 to 1024 cycles on 4c4w8t and records the lws=1-vs-ours ratio
at each point; the ratio must grow monotonically with the overhead and stay
at (or above) 1.0 even for a free launch.  The grid is an unregistered
scenario with one sub-grid per overhead, like the registered ``ablation``.
Results land in ``benchmarks/results/ablation_overhead.md``.
"""

from dataclasses import replace

import pytest

from repro.experiments.ablation import overhead_records
from repro.experiments.figure2 import DEFAULT_CALL_SIMULATION_LIMIT
from repro.experiments.report import render_table
from repro.scenarios import GridAxes, Planner, Scenario, ScenarioContext
from repro.sim.config import ArchConfig

from benchmarks.conftest import scale_from_env, write_result

OVERHEADS = (0, 16, 32, 64, 256, 1024)
CONFIG = ArchConfig.from_name("4c4w8t")

OVERHEAD_SWEEP = Scenario(
    name="ablation-overhead",
    description="vecadd lws=1 vs ours across launch overheads on 4c4w8t",
    grid=[
        GridAxes(
            problems=("vecadd",),
            configs=(replace(CONFIG, kernel_launch_overhead=overhead),),
            strategies=("naive-lws1", "hardware-aware"),
            call_simulation_limit=DEFAULT_CALL_SIMULATION_LIMIT,
        )
        for overhead in OVERHEADS
    ],
    analyze=lambda run: "",
)


def _sweep():
    jobs = Planner().run(OVERHEAD_SWEEP, ScenarioContext(scale=scale_from_env())).results()
    return overhead_records(OVERHEADS, [
        (naive.cycles, ours.cycles) for naive, ours in zip(jobs[::2], jobs[1::2])])


@pytest.mark.benchmark(group="ablation")
def test_launch_overhead_ablation(benchmark):
    records = benchmark.pedantic(_sweep, rounds=1, iterations=1, warmup_rounds=0)
    table = render_table(
        ["launch overhead (cycles)", "lws=1 cycles", "ours cycles", "lws=1 / ours"],
        [[str(r.launch_overhead), str(r.naive_cycles), str(r.ours_cycles),
          f"{r.ratio:.2f}"] for r in records],
    )
    write_result("ablation_overhead.md", table)

    ratios = [r.ratio for r in records]
    assert all(later >= earlier - 1e-9 for earlier, later in zip(ratios, ratios[1:])), \
        "the lws=1 penalty must grow with the launch overhead"
    assert ratios[0] >= 0.95          # even a free launch does not make lws=1 win
    assert ratios[-1] > ratios[0] * 1.5
    benchmark.extra_info["ratios"] = {r.launch_overhead: round(r.ratio, 2) for r in records}
