"""Benchmark E8 -- distributed campaigns: fleet scaling over loopback TCP.

The claim under test: adding a second worker process to a fleet cuts the
wall-clock of an uncached, compute-bound grid nearly in half.  Two fleets
are measured over localhost sockets -- one subprocess worker vs. two --
running the identical 24-job bench-scale grid, interleaved best-of-3 so
ambient load hits both fleets evenly.  The grid is sized so simulation
dominates transport (~35 ms/job vs. ~1 ms of framing), which is exactly the
regime the coordinator's guided chunking is designed for.

Gate: >= 1.8x speedup for 2 workers vs. 1.  The gate only arms on hosts
with >= 3 CPUs (coordinator + two workers); on smaller machines the numbers
are still measured and reported, but a single core cannot express fleet
parallelism and the assert would only measure the scheduler.

Results land in ``benchmarks/results/distributed.md`` and, for trajectory
tracking, ``BENCH_distributed.json`` at the repo root (uploaded by CI).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignRunner, JobSpec
from repro.campaign.dist import DistributedExecutor
from repro.sim.config import ArchConfig

from benchmarks.conftest import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent
JOBS = 24
ROUNDS = 3
SPEEDUP_GATE = 1.8

CONFIGS = [ArchConfig.from_name(name) for name in ("2c4w8t", "4c8w8t")]


def _grid():
    """24 unique bench-scale sgemm points: compute-bound, ~35 ms each."""
    specs = []
    for seed in range(JOBS // (len(CONFIGS) * 2)):
        for config in CONFIGS:
            for lws in (4, 8):
                specs.append(JobSpec(problem="sgemm", scale="bench",
                                     seed=seed, config=config,
                                     local_size=lws))
    assert len(specs) == JOBS
    assert len({spec.content_hash() for spec in specs}) == JOBS
    return specs


def _fleet(workers: int) -> DistributedExecutor:
    executor = DistributedExecutor(heartbeat_interval=0.5, worker_wait=60.0)
    executor.spawn_local_workers(workers)
    executor.wait_for_workers(workers, timeout=60.0)
    return executor


def _run(executor: DistributedExecutor):
    # No cache anywhere: every timed run re-simulates the whole grid.
    outcome = CampaignRunner(executor=executor).run(
        Campaign("bench-distributed", specs=_grid()))
    assert outcome.stats.failed == 0
    assert outcome.stats.executed == JOBS
    return outcome


def _stripped(outcome):
    rows = [result.to_dict() for result in outcome.results]
    for row in rows:
        row.pop("elapsed_seconds", None)
    return rows


@pytest.mark.benchmark(group="distributed")
def test_two_worker_fleet_speedup(benchmark):
    cpus = os.cpu_count() or 1
    fleets = {1: _fleet(1), 2: _fleet(2)}
    timings = {1: [], 2: []}
    baseline = None
    try:
        # Warm-up: first contact pays worker import + JIT-warm caches; the
        # identity check on the warm-up runs doubles as the bit-equality gate.
        for workers, fleet in fleets.items():
            rows = _stripped(_run(fleet))
            if baseline is None:
                baseline = rows
            else:
                assert rows == baseline, "fleet sizes must not change results"
        # Interleaved best-of-N: alternate fleets inside each round so slow
        # ambient moments penalise both sides equally.
        for _ in range(ROUNDS):
            for workers, fleet in fleets.items():
                started = time.perf_counter()
                _run(fleet)
                timings[workers].append(time.perf_counter() - started)
        # One pytest-benchmark artifact entry: the 2-worker fleet.
        benchmark.pedantic(_run, args=(fleets[2],),
                           rounds=1, iterations=1, warmup_rounds=0)
    finally:
        for fleet in fleets.values():
            fleet.close()

    best = {workers: min(times) for workers, times in timings.items()}
    speedup = best[1] / best[2] if best[2] else float("inf")
    gated = cpus >= 3

    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["best_1_worker_s"] = round(best[1], 3)
    benchmark.extra_info["best_2_worker_s"] = round(best[2], 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["gate_armed"] = gated

    payload = {
        "benchmark": "distributed",
        "jobs": JOBS,
        "rounds": ROUNDS,
        "best_1_worker_s": round(best[1], 4),
        "best_2_worker_s": round(best[2], 4),
        "speedup": round(speedup, 3),
        "cpus": cpus,
        "gate": SPEEDUP_GATE,
        "gate_armed": gated,
    }
    (REPO_ROOT / "BENCH_distributed.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_result("distributed.md", "\n".join([
        "# Distributed campaigns: fleet scaling (uncached bench grid)",
        "",
        f"jobs              : {JOBS} (sgemm, bench scale)",
        f"1-worker fleet    : {best[1]:.3f} s (best of {ROUNDS})",
        f"2-worker fleet    : {best[2]:.3f} s (best of {ROUNDS})",
        f"speedup           : {speedup:.2f}x "
        f"(gate {SPEEDUP_GATE}x, {'armed' if gated else f'disarmed: {cpus} CPU(s)'})",
    ]))

    if gated:
        assert speedup >= SPEEDUP_GATE, (
            f"2-worker fleet speedup {speedup:.2f}x below the "
            f"{SPEEDUP_GATE}x gate (best 1w {best[1]:.3f}s, "
            f"best 2w {best[2]:.3f}s)")
