"""Benchmark E7 -- the scenario layer: planning overhead and sink resume.

Two measurements on the declarative layer itself (the simulated work is the
same campaign engine the other benchmarks already time):

* planning throughput: expanding the ``figure2`` grid (problems x configs x
  strategies) into content-addressed :class:`JobSpec` objects, including the
  strategy->lws resolution against real problem sizes.  This is the fixed
  cost every ``repro scenario run`` pays before any simulation starts.
* resume overhead: a completed ``scaling`` run re-executed against its JSONL
  sink.  Every job is served from the sink, so the measured time is pure
  planner + sink bookkeeping -- the price of crash-safety on the happy path.
* shard pool reuse: the planner submits one campaign per engine-grouped
  shard; since the executor refactor the runner keeps one warm
  ``ProcessPoolExecutor`` across all of them instead of forking a fresh
  pool per shard.  Before the refactor each shard paid the full pool
  spin-up (~70 ms on this container); after, only the first does -- the
  benchmark measures exactly that delta by comparing a shared runner
  against deliberately-fresh runners over the same shard sequence.

Results land in ``benchmarks/results/scenarios.md``.
"""

import time

import pytest

from repro.campaign import Campaign, CampaignRunner, JobSpec
from repro.scenarios import Planner, REGISTRY, ResultSink, ScenarioContext
from repro.sim.config import ArchConfig

from benchmarks.conftest import scale_from_env, write_result

CONTEXT = ScenarioContext(scale="smoke", sweep="smoke")


@pytest.mark.benchmark(group="scenarios")
def test_scenario_planning_throughput(benchmark):
    planner = Planner()
    scenario = REGISTRY.get("figure2")

    plan = benchmark(planner.plan, scenario, CONTEXT)

    unique = planner.unique_jobs(plan)
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["grid_points"] = len(plan)
    benchmark.extra_info["unique_jobs"] = len(unique)
    benchmark.extra_info["points_per_second"] = round(len(plan) / seconds, 1)
    write_result("scenarios.md", "\n".join([
        "# Scenario layer: planning + resume overhead",
        "",
        f"figure2 grid points  : {len(plan)} ({len(unique)} unique)",
        f"planning time        : {seconds * 1000:.1f} ms "
        f"({len(plan) / seconds:.0f} points/s)",
        "",
    ]))


@pytest.mark.benchmark(group="scenarios")
def test_scenario_resume_is_simulation_free(benchmark, tmp_path):
    planner = Planner()
    scenario = REGISTRY.get("scaling")
    sink = ResultSink(tmp_path / "scaling.jsonl")

    cold_started = time.perf_counter()
    cold = planner.run(scenario, CONTEXT, sink=sink)
    cold_seconds = time.perf_counter() - cold_started

    resumed = benchmark(planner.run, scenario, CONTEXT, sink=sink)

    assert resumed.stats.executed == 0, "resume must not re-simulate"
    assert resumed.stats.resumed == cold.stats.unique
    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["jobs"] = cold.stats.unique
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 3)
    benchmark.extra_info["resume_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["scale"] = scale_from_env()


SHARD_ENGINES = ("reference", "fast") * 3


def _shard_campaign(index):
    config = ArchConfig.from_name("2c2w4t")
    return Campaign(f"shard-{index}", specs=[
        JobSpec(problem="vecadd", scale="smoke", seed=index * 10 + offset,
                config=config, local_size=4)
        for offset in range(2)
    ])


@pytest.mark.benchmark(group="scenarios")
def test_shard_pool_reuse_beats_fresh_pools(benchmark):
    """One warm pool across engine-grouped shards vs. a pool per shard.

    The "fresh" side is what every planner submission paid before the
    executor refactor: a new ``ProcessPoolExecutor`` forked, used, and torn
    down per shard.  The "shared" side is what it pays now.  The simulated
    work is identical and tiny, so the measured gap is almost purely pool
    spin-up -- multiplied by the number of engine shards a scenario emits.
    """
    def fresh_pools():
        for index, engine in enumerate(SHARD_ENGINES):
            with CampaignRunner(workers=2) as runner:
                runner.run(_shard_campaign(index), engine=engine)

    def shared_pool(runner):
        for index, engine in enumerate(SHARD_ENGINES):
            runner.run(_shard_campaign(index), engine=engine)

    fresh_started = time.perf_counter()
    fresh_pools()
    fresh_seconds = time.perf_counter() - fresh_started

    with CampaignRunner(workers=2) as runner:
        shared_pool(runner)                      # warm the pool once
        shared = benchmark.pedantic(shared_pool, args=(runner,),
                                    rounds=1, iterations=1, warmup_rounds=0)
        assert shared is None
        assert runner.executor._pool is not None, "pool must stay warm"

    shared_seconds = benchmark.stats.stats.mean
    saving = fresh_seconds - shared_seconds
    benchmark.extra_info["shards"] = len(SHARD_ENGINES)
    benchmark.extra_info["fresh_pool_seconds"] = round(fresh_seconds, 3)
    benchmark.extra_info["shared_pool_seconds"] = round(shared_seconds, 3)
    benchmark.extra_info["seconds_saved"] = round(saving, 3)
    write_result("scenarios_pool_reuse.md", "\n".join([
        "# Scenario shards: per-shard pools (before) vs. one warm pool (after)",
        "",
        f"engine shards          : {len(SHARD_ENGINES)}",
        f"pool per shard (before): {fresh_seconds:.3f} s",
        f"one warm pool (after)  : {shared_seconds:.3f} s",
        f"saved                  : {saving:.3f} s "
        f"({fresh_seconds / shared_seconds:.2f}x)" if shared_seconds else "",
    ]))
