"""Benchmarks of the substrate itself: simulator throughput and Eq.-1 cost.

Two things matter for the reproduction's usability:

* the **simulator throughput** (simulated warp-instructions per host second)
  bounds how large a sweep fits in a given time budget.  Both engines are
  measured -- ``reference`` (the oracle) and ``fast`` (event-skipping +
  vectorized lanes, the default), bit-identical -- and each record carries
  ``engine`` and ``warp_instructions_per_second`` in ``extra_info`` so the
  BENCH_*.json history tracks the speedup trajectory per engine;
* the **runtime cost of the technique**: Equation 1 is a handful of integer
  operations evaluated at launch time.  The paper's pitch is that the mapping
  decision is effectively free compared to a kernel launch; this benchmark
  measures it directly (it is nanoseconds against a launch overhead of tens of
  simulated cycles / milliseconds of real driver time).
"""

import pytest

from repro.core.optimizer import optimal_local_size
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.sim.engine import ENGINES


def _throughput_run(benchmark, problem_name: str, engine: str):
    """Measure one (kernel, engine) point and annotate the record."""
    from repro.workloads.problems import make_problem

    problem = make_problem(problem_name, scale="bench")
    device = Device(ArchConfig.from_name("4c4w8t"), engine=engine)

    def run():
        return launch_kernel(device, problem.kernel, problem.arguments,
                             problem.global_size, local_size=None)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    instructions = result.counters.warp_instructions
    assert instructions > 0
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["kernel"] = problem_name
    benchmark.extra_info["warp_instructions"] = instructions
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["warp_instructions_per_second"] = (
        instructions / benchmark.stats["mean"]
    )
    return result


@pytest.mark.benchmark(group="simulator")
@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_throughput_vecadd(benchmark, engine):
    """Simulated warp-instructions per second on a mid-sized machine."""
    _throughput_run(benchmark, "vecadd", engine)


@pytest.mark.benchmark(group="simulator")
@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_throughput_sgemm(benchmark, engine):
    """Throughput on a compute-heavy kernel (inner-loop dominated)."""
    _throughput_run(benchmark, "sgemm", engine)


@pytest.mark.benchmark(group="simulator")
def test_fast_engine_speedup_target():
    """The fast engine's reason to exist: >=3x reference throughput.

    Measured outside pytest-benchmark so the acceptance gate lives next to
    the numbers it gates: rounds interleave the two engines (A/B/A/B) so
    background-load drift hits both equally, and each engine keeps its best
    (minimum) launch time.  Counters are also compared, so a fast-but-wrong
    engine cannot pass.
    """
    import time

    from repro.workloads.problems import make_problem

    per_kernel = {}
    total_best = dict.fromkeys(ENGINES, 0.0)
    for problem_name in ("vecadd", "sgemm"):
        problem = make_problem(problem_name, scale="bench")
        devices = {engine: Device(ArchConfig.from_name("4c4w8t"), engine=engine)
                   for engine in ENGINES}
        counters = {}
        best = dict.fromkeys(ENGINES, float("inf"))
        for engine, device in devices.items():  # warm-up, plus the oracle check
            result = launch_kernel(device, problem.kernel, problem.arguments,
                                   problem.global_size)
            counters[engine] = result.counters.as_dict()
        assert counters["fast"] == counters["reference"]
        for _ in range(15):
            for engine, device in devices.items():
                started = time.perf_counter()
                launch_kernel(device, problem.kernel, problem.arguments,
                              problem.global_size)
                elapsed = time.perf_counter() - started
                if elapsed < best[engine]:
                    best[engine] = elapsed
        per_kernel[problem_name] = best["reference"] / best["fast"]
        for engine in ENGINES:
            total_best[engine] += best[engine]
    # Gate on aggregate warp-instructions/sec across the measured kernels:
    # both engines retire identical instruction counts, so the throughput
    # ratio reduces to total time -- and the longer, steadier sgemm run
    # dominates, keeping the gate insensitive to millisecond-scale noise on
    # the short vecadd launches.
    aggregate = total_best["reference"] / total_best["fast"]
    assert aggregate >= 3.0, (
        f"fast engine reaches only {aggregate:.2f}x the reference "
        f"warp-instructions/sec (target: >=3x; per kernel: "
        + ", ".join(f"{k}={v:.2f}x" for k, v in per_kernel.items()) + ")"
    )


@pytest.mark.benchmark(group="mapping-overhead")
def test_equation1_evaluation_cost(benchmark):
    """The runtime mapping decision itself: microseconds, not milliseconds."""
    config = ArchConfig.from_name("64c32w32t")

    def decide():
        total = 0
        for gws in (4096, 42764, 360 * 360, 2708 * 16, 16 * 32 * 32):
            total += optimal_local_size(gws, config)
        return total

    total = benchmark(decide)
    assert total > 0
    # five launch decisions comfortably under a millisecond
    assert benchmark.stats["mean"] < 1e-3


@pytest.mark.benchmark(group="mapping-overhead")
def test_dispatch_plan_construction_cost(benchmark):
    """Building the full workgroup placement is also cheap relative to simulation."""
    from repro.runtime.dispatcher import build_dispatch_plan
    from repro.runtime.ndrange import NDRange

    config = ArchConfig.from_name("16c16w16t")
    ndrange = NDRange(4096, optimal_local_size(4096, config))

    plan = benchmark(lambda: build_dispatch_plan(ndrange, config, {0: 0.0}))
    assert plan.num_calls == 1
