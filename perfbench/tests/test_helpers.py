"""Tests of the benchmark's own helpers: statistics, the output line, the
call tracer's self time, the output check and the service job sequence.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calltrace  # noqa: E402
import common  # noqa: E402
import expected  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert common.percentile(values, 0) == 1.0
    assert common.percentile(values, 100) == 4.0
    assert common.percentile(values, 50) == 2.5
    assert common.percentile(values, 90) == pytest.approx(3.7)
    assert common.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("bad", [[], None])
def test_percentile_rejects_empty_samples(bad):
    with pytest.raises((ValueError, TypeError)):
        common.percentile(bad, 50)


def test_percentile_rejects_out_of_range_rank():
    with pytest.raises(ValueError):
        common.percentile([1.0, 2.0], 101)


def test_samples_beyond_p90_of_100_is_10():
    values = [float(v) for v in range(100)]
    assert common.samples_beyond(values, 90) == 10


def test_quartile_spread_follows_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 10.6]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert common.quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert common.quartile_spread([5.0]) == 0.0
    assert common.quartile_spread([0.0, 0.0, 0.0]) == 0.0


def test_relative_change_is_positive_when_worse():
    assert common.relative_change(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert common.relative_change(10.0, 9.0, "lower") == pytest.approx(-0.1)
    assert common.relative_change(10.0, 9.0, "higher") == pytest.approx(0.1)
    assert common.relative_change(10.0, 11.0, "higher") == pytest.approx(-0.1)


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
DECLARED = {"wall_s": {"unit": "s"}, "jobs_per_s": {"unit": "1/s"}}


def test_result_line_round_trips_through_the_parser():
    line = common.result_line(True, 107, 0, {"jobs_per_s": 11.5, "wall_s": 9.25},
                              DECLARED)
    parsed = common.parse_result_line("noise\n" + line + "\n")
    assert parsed == {"correct": True, "attempted": 107, "failed": 0,
                      "metrics": {"wall_s": {"value": 9.25, "unit": "s"},
                                  "jobs_per_s": {"value": 11.5, "unit": "1/s"}}}


def test_result_line_refuses_an_unmeasured_metric():
    with pytest.raises(KeyError):
        common.result_line(True, 1, 0, {"wall_s": 1.0}, DECLARED)


@pytest.mark.parametrize("payload", [
    {"correct": True, "attempted": 1, "failed": 0},
    {"correct": True, "attempted": 0, "failed": 0, "metrics": {}},
    {"correct": 1, "attempted": 1, "failed": 0, "metrics": {}},
    {"correct": True, "attempted": 1.5, "failed": 0, "metrics": {}},
    {"correct": True, "attempted": 1, "failed": 0,
     "metrics": {"wall_s": {"value": "fast", "unit": "s"}}},
    {"correct": True, "attempted": 1, "failed": 0,
     "metrics": {"wall_s": {"value": 1.0}}},
])
def test_parse_result_line_rejects_contract_breaches(payload):
    with pytest.raises(ValueError):
        common.parse_result_line(json.dumps(payload))


def test_metric_names_match_the_declaration():
    benchmark = common.load_benchmark()
    e2e = run.end_to_end(
        [{"wall_s": 2.0, "winst": 10, "jobs": 4, "peak_rss_mb": 50.0,
          "latencies": [0.1, 0.2, 0.3]}], [0.5] * 5)
    assert list(e2e) == list(common.metric_table(benchmark, trace=False))
    traced = {"design": dict.fromkeys(("cycles", "stall_cycles", "l1_hits",
                                       "l1_misses", "dram_lines"), 1),
              "grid_points": 120, "unique_jobs": 107, "wall_s": 10.0}
    layers = run.per_layer(traced, calltrace.merge([]), 9.0)
    assert list(layers) == list(common.metric_table(benchmark, trace=True))
    assert layers["dist.close_s"] == 0.0
    assert layers["telemetry.trace_overhead_s"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the call tracer
# ----------------------------------------------------------------------
@pytest.fixture
def fake_clock(monkeypatch):
    """perf_counter() returns 0, 1, 2, ... one tick per call."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(calltrace.time, "perf_counter", lambda: float(next(ticks)))


def test_self_time_excludes_wrapped_children(fake_clock):
    stats = calltrace.CallStats()
    inner = stats.wrap("inner", lambda: None)
    outer = stats.wrap("outer", lambda: inner())
    outer()                        # outer 0..3, inner 1..2
    snapshot = stats.snapshot()
    assert snapshot["calls"] == {"inner": 1, "outer": 1}
    assert snapshot["total"] == {"inner": 1.0, "outer": 3.0}
    assert snapshot["self"] == {"inner": 1.0, "outer": 2.0}


def test_recursion_is_counted_once(fake_clock):
    stats = calltrace.CallStats()

    def countdown(n):
        return n if n == 0 else wrapped(n - 1)
    wrapped = stats.wrap("countdown", countdown)
    wrapped(3)
    snapshot = stats.snapshot()
    assert snapshot["calls"] == {"countdown": 1}
    assert snapshot["total"] == {"countdown": 1.0}


def test_generators_are_timed_across_resumptions(fake_clock):
    stats = calltrace.CallStats()

    def produce():
        yield 1
        yield 2
    consumer = stats.wrap("consume", lambda items: [item for item in items])
    generator = stats.wrap("produce", produce)
    assert consumer(generator()) == [1, 2]
    snapshot = stats.snapshot()
    assert snapshot["calls"]["produce"] == 1
    # Three resumptions (two items, then exhaustion), one tick each.
    assert snapshot["total"]["produce"] == 3.0
    assert snapshot["self"]["consume"] == snapshot["total"]["consume"] - 3.0


def test_threads_keep_separate_stacks():
    stats = calltrace.CallStats()
    barrier = threading.Barrier(2)
    leaf = stats.wrap("leaf", lambda: barrier.wait(timeout=10))
    threads = [threading.Thread(target=leaf) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    snapshot = stats.snapshot()
    assert snapshot["calls"] == {"leaf": 2}
    assert snapshot["self"]["leaf"] == pytest.approx(snapshot["total"]["leaf"])


def test_result_hooks_tally_and_merge_sums_processes():
    stats = calltrace.CallStats()
    lookup = stats.wrap("get_many", lambda: [None, "hit", "hit"],
                        calltrace._count_hits)
    lookup()
    merged = calltrace.merge([stats.snapshot(), stats.snapshot()])
    assert merged["tallies"] == {"cache.lookups": 6, "cache.hits": 4}
    assert merged["calls"] == {"get_many": 2}


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------
RECORD = {"problem": "vecadd", "cycles": 1163, "lane_utilization": 0.5,
          "counters": {"warp_instructions": 880}}


@pytest.fixture
def table():
    return expected.Expected({"grid": "toy", "records": [RECORD],
                              "hashes": {"0": {"aa": 0}, "1": {"bb": 0}}})


def result(job_hash="aa", **changes):
    return {"job_hash": job_hash, **RECORD, "elapsed_seconds": 0.25, **changes}


def test_matching_result_passes_and_host_time_is_ignored(table):
    assert table.check(0, result()) is None
    assert table.check(0, result(elapsed_seconds=9.0)) is None


@pytest.mark.parametrize("changed", [
    {"cycles": 1164},
    {"lane_utilization": 0.5000001},
    {"counters": {"warp_instructions": 881}},
    {"extra_field": 1},
])
def test_any_field_difference_is_a_mismatch(table, changed):
    assert "differs" in table.check(0, result(**changed))


def test_hash_must_belong_to_the_problem_seed(table):
    assert "unexpected job_hash" in table.check(0, result("bb"))
    assert table.check(1, result("bb")) is None


def test_check_all_reports_missing_points(table):
    assert table.check_all(0, [result()]) == []
    assert table.check_all(0, []) == ["toy: no result for aa"]


@pytest.mark.parametrize("grid, jobs", [("figure2-bench-smoke", 107),
                                        ("service-points", 60)])
def test_stored_expected_results_cover_every_grid(grid, jobs):
    stored = expected.Expected.load(grid)
    for seed in common.PROBLEM_SEEDS:
        assert len(stored.hashes(seed)) == jobs
        assert all(0 <= index < len(stored.records)
                   for index in stored.by_seed[seed].values())
    seeds = [set(stored.hashes(seed)) for seed in common.PROBLEM_SEEDS]
    assert sum(map(len, seeds)) == len(set.union(*seeds))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_service_sequences_are_seeded_and_hit_only_completed_points():
    first = service_load.client_sequences(3, 0)
    assert first == service_load.client_sequences(3, 0)
    assert first != service_load.client_sequences(3, 1)
    assert first != service_load.client_sequences(4, 0)
    seen_by_client = [set(sequence) for sequence in first]
    for sequence, distinct in zip(first, seen_by_client):
        assert len(sequence) == service_load.JOBS_PER_CLIENT
        assert len(distinct) == 30      # each new point once, the rest repeats
    assert not seen_by_client[0] & seen_by_client[1]
    assert seen_by_client[0] | seen_by_client[1] == set(expected.service_points())


def test_problem_seed_cycles_and_holds_one_out():
    assert [common.problem_seed(seed) for seed in range(4)] == [0, 1, 0, 1]
    held_out = common.problem_seed(common.HELD_OUT_SEED)
    assert held_out in common.PROBLEM_SEEDS
    others = {common.problem_seed(seed) for seed in range(1000)
              if seed != common.HELD_OUT_SEED}
    assert held_out not in others
    assert others | {held_out} == set(common.PROBLEM_SEEDS)


def test_paired_seeds_alternate_parity_and_skip_the_held_out_seed():
    pairs = common.paired_seeds(4, 4)
    assert pairs == [(4, 5), (9, 8), (10, 11), (13, 12)]
    seeds = [seed for pair in pairs for seed in pair]
    assert len(set(seeds)) == len(seeds)
    assert common.HELD_OUT_SEED not in seeds
    for which in (0, 1):
        parities = [pair[which] % 2 for pair in pairs]
        assert parities.count(0) == parities.count(1)


def test_program_env_isolates_state_and_keeps_defaults(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    env = common.program_env(tmp_path)
    assert "REPRO_ENGINE" not in env and "REPRO_TELEMETRY" not in env
    assert "PERFBENCH_TRACE_DIR" not in env
    for name in ("REPRO_CACHE_DIR", "REPRO_SCENARIO_DIR", "REPRO_SERVICE_DIR",
                 "REPRO_TELEMETRY_DIR", "XDG_CACHE_HOME"):
        assert Path(env[name]).parent == tmp_path
    traced = common.program_env(tmp_path, trace_dir=tmp_path / "trace")
    assert traced["PYTHONPATH"].startswith(str(common.BENCH_DIR / "inject"))
    assert traced["PERFBENCH_TRACE_DIR"] == str(tmp_path / "trace")
