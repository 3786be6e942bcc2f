"""Tests for the declarative scenario layer (repro.scenarios).

Covers the registry round-trip, planner grid expansion and execution dedup,
kill-and-resume from a half-written JSONL sink, the figure1 scenario against
the traced Figure-1 driver, and sanity of the claims, ablation and other
built-in scenarios.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.campaign.runner import CampaignRunner
from repro.cli import _grid_context, build_parser
from repro.experiments.ablation import DEFAULT_OVERHEADS, boundedness_record_from_job
from repro.experiments.claims import evaluate_claims
from repro.experiments.figure1 import run_figure1
from repro.scenarios import (
    GridAxes,
    Planner,
    REGISTRY,
    ResultSink,
    Scenario,
    ScenarioContext,
    ScenarioError,
    ScenarioRegistry,
    SinkRecord,
    UnknownScenarioError,
)
from repro.scenarios.library import DEFAULT_SWEEP_PROBLEMS, figure2_result_from_run
from repro.sim.config import ArchConfig

SMOKE = ScenarioContext(scale="smoke", sweep="smoke")


def tiny_scenario(name="tiny", strategies=("ours",), engines=(None,)):
    """A two-config vecadd scenario for planner/sink mechanics."""
    return Scenario(
        name=name,
        description="test scenario",
        grid=GridAxes(
            problems=("vecadd",),
            configs=(ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c2w4t")),
            strategies=strategies,
            engines=engines,
        ),
        analyze=lambda run: "\n".join(
            f"{r.meta['config']}/{r.meta['strategy']}: {r.result.cycles}"
            for r in run.records),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_round_trip_and_order(self):
        registry = ScenarioRegistry()
        a, b = tiny_scenario("a"), tiny_scenario("b")
        assert registry.register(a) is a
        registry.register(b)
        assert registry.get("a") is a
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "missing" not in registry
        assert list(registry) == [a, b]

    def test_duplicate_names_are_rejected_unless_replaced(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario("dup"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(tiny_scenario("dup"))
        replacement = tiny_scenario("dup")
        registry.register(replacement, replace=True)
        assert registry.get("dup") is replacement

    def test_unknown_scenario_error_lists_names(self):
        registry = ScenarioRegistry()
        registry.register(tiny_scenario("only"))
        with pytest.raises(UnknownScenarioError, match="only"):
            registry.get("nope")

    def test_builtin_library_registers_all_eight(self):
        for name in ("figure1", "figure2", "ablation", "claims", "scaling",
                     "scheduler-sweep", "engine-compare", "cache-sensitivity"):
            assert name in REGISTRY
        assert len(REGISTRY) >= 8


# ----------------------------------------------------------------------
# Planner expansion + dedup
# ----------------------------------------------------------------------
class TestPlanner:
    def test_expansion_covers_the_cross_product(self):
        scenario = tiny_scenario(strategies=("lws=1", "lws=32", "ours"))
        plan = Planner().plan(scenario, SMOKE)
        assert len(plan) == 2 * 3           # configs x strategies
        assert [j.meta["strategy"] for j in plan[:3]] == ["lws=1", "lws=32", "ours"]
        # strategies are resolved to concrete lws values at planning time
        assert all(j.spec.local_size is not None for j in plan)

    def test_colliding_strategies_dedup_execution_but_keep_grid_points(self):
        # On these tiny machines (hp >= gws at smoke scale is false, but
        # lws=1 and "naive" coincide by construction) two strategy labels
        # resolve to the same spec -> one execution, two records.
        scenario = tiny_scenario(strategies=("lws=1", "naive-lws1"))
        planner = Planner()
        plan = planner.plan(scenario, SMOKE)
        unique = planner.unique_jobs(plan)
        assert len(plan) == 4 and len(unique) == 2
        run = planner.run(scenario, SMOKE)
        assert run.stats.planned == 4
        assert run.stats.unique == 2
        assert run.stats.executed == 2
        assert len(run.records) == 4        # every grid point has a record
        by_strategy = {r.meta["strategy"] for r in run.records}
        assert by_strategy == {"lws=1", "naive-lws1"}

    def test_engine_axis_executes_each_point_per_engine(self):
        scenario = tiny_scenario(engines=("reference", "fast"))
        run = Planner().run(scenario, SMOKE)
        assert run.stats.unique == 4        # 2 configs x 2 engines
        ref = {r.key: r for r in run.records if r.meta["engine"] == "reference"}
        fast = {r.key: r for r in run.records if r.meta["engine"] == "fast"}
        assert len(ref) == len(fast) == 2
        for key, record in ref.items():
            twin = fast[key.replace("reference:", "fast:")]
            assert record.result.cycles == twin.result.cycles
            assert record.result.counters == twin.result.counters

    def test_failures_raise_after_sinking_successes(self, tmp_path, monkeypatch):
        import repro.campaign.worker as worker

        real_run_spec = worker.run_spec

        def flaky(spec):
            if spec.config.name == "2c2w4t":
                raise ValueError("injected failure")
            return real_run_spec(spec)

        monkeypatch.setattr(worker, "run_spec", flaky)
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "failing.jsonl")
        with pytest.raises(ScenarioError, match="1 of"):
            Planner().run(scenario, SMOKE, sink=sink)
        assert len(sink.load()) == 1        # the good job survived the kill

        # resume retries only the failed point once the fault is gone
        monkeypatch.setattr(worker, "run_spec", real_run_spec)
        run = Planner().run(scenario, SMOKE,
                            sink=ResultSink(tmp_path / "failing.jsonl"))
        assert run.stats.resumed == 1
        assert run.stats.executed == 1

    def test_shards_preserve_submission_order(self):
        scenario = tiny_scenario(strategies=("lws=1", "lws=32", "ours"))
        run = Planner().run(scenario, SMOKE)
        assert [r.job_hash for r in run.records] == \
               [j.spec.content_hash() for j in run.plan]


# ----------------------------------------------------------------------
# Sink: streaming, round-trip, kill-and-resume
# ----------------------------------------------------------------------
class TestSinkResume:
    def test_sink_paths_survive_a_working_directory_change(self, tmp_path,
                                                           monkeypatch):
        # A daemon (the service) may chdir after opening its sinks; paths
        # must be pinned to absolute at creation time, not at append time.
        from repro.scenarios.sink import default_sink_dir

        home = tmp_path / "home"
        elsewhere = tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(home)
        assert default_sink_dir().is_absolute()
        assert default_sink_dir() == home / "scenario-runs"
        sink = ResultSink(Path("runs") / "tiny.jsonl")
        assert sink.path == home / "runs" / "tiny.jsonl"
        monkeypatch.chdir(elsewhere)
        Planner().run(tiny_scenario(), SMOKE, sink=sink)
        assert (home / "runs" / "tiny.jsonl").exists()
        assert not (elsewhere / "runs").exists()

    def test_sink_record_round_trips(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        run = Planner().run(scenario, SMOKE, sink=sink)
        loaded = sink.load()
        assert len(loaded) == 2
        for record in run.records:
            twin = loaded[record.key]
            assert isinstance(twin, SinkRecord)
            assert twin.result.cycles == record.result.cycles
            assert twin.meta == dict(record.meta)
            assert twin.spec["problem"] == "vecadd"

    def test_completed_run_resumes_without_executing(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        seen = []
        first = Planner().run(scenario, SMOKE, sink=sink,
                              progress=lambda *args: seen.append(args))
        second = Planner().run(scenario, SMOKE, sink=sink,
                               progress=lambda *args: seen.append(args))
        # progress fires once per executed job, never for resumed ones
        assert [(done, total) for done, total, _ in seen] == [(1, 2), (2, 2)]
        assert second.stats.executed == 0
        assert second.stats.resumed == 2
        assert [r.result.cycles for r in second.records] == \
               [r.result.cycles for r in first.records]

    def test_kill_mid_grid_resumes_only_the_remaining_jobs(self, tmp_path):
        scenario = REGISTRY.get("scaling")
        path = tmp_path / "scaling.jsonl"
        full = Planner().run(scenario, SMOKE, sink=ResultSink(path))
        total = full.stats.unique

        # Simulate a hard kill after two complete records plus one partial
        # line (the classic half-written tail of a dead process).
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])

        sink = ResultSink(path)
        resumed = Planner().run(scenario, SMOKE, sink=sink)
        assert resumed.stats.resumed == 2
        assert resumed.stats.executed == total - 2
        assert sink.skipped == 1            # exactly the half-written line
        assert [r.result.cycles for r in resumed.records] == \
               [r.result.cycles for r in full.records]
        # the journal now covers the full grid again; only the orphaned
        # partial line is unusable (appends never merge into it)
        reloaded = ResultSink(path)
        assert len(reloaded.load()) == total
        assert reloaded.skipped == 1

    def test_fresh_discards_the_sink(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        run = Planner().run(scenario, SMOKE, sink=sink, fresh=True)
        assert run.stats.resumed == 0
        assert run.stats.executed == 2

    def test_load_reports_missing_jobs(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        with pytest.raises(ScenarioError, match="0 of 2"):
            Planner().load(scenario, SMOKE, sink=sink)
        Planner().run(scenario, SMOKE, sink=sink)
        loaded = Planner().load(scenario, SMOKE, sink=sink)
        assert loaded.stats.executed == 0
        assert len(loaded.records) == 2
        assert loaded.report()

    def test_missing_jobs_hint_replans_the_same_grid(self, tmp_path):
        # Every grid-shaping flag changes content hashes, so the printed
        # resume command must parse back to the very same context.
        context = ScenarioContext(scale="smoke", seed=3, exact_calls=True,
                                  problems=("vecadd",), sweep="smoke")
        with pytest.raises(ScenarioError) as raised:
            Planner().load(REGISTRY.get("figure2"), context,
                           sink=ResultSink(tmp_path / "figure2.jsonl"))
        hint = re.search(r"run `repro ([^`]*)`", str(raised.value)).group(1)
        assert _grid_context(build_parser().parse_args(shlex.split(hint))) == context


# ----------------------------------------------------------------------
# The figure1 scenario reproduces the traced Figure-1 driver's numbers
# ----------------------------------------------------------------------
class TestPortedScenarioEquality:
    def test_figure1_numbers_match_the_driver(self):
        run = Planner().run(REGISTRY.get("figure1"), SMOKE)
        driver = run_figure1()
        assert len(run.records) == len(driver.traces)
        for record in run.records:
            trace = driver.traces[record.result.local_size]
            assert record.result.cycles == trace.cycles
            assert record.result.num_calls == trace.num_calls
            assert record.result.num_workgroups == trace.num_workgroups
            assert record.result.lane_utilization == trace.lane_utilization
            # the driver's caption line appears verbatim in the report
            assert trace.summary() in run.report()


class TestPaperScenarios:
    def test_claims_report_evaluates_all_four_claims(self):
        context = ScenarioContext(scale="smoke", sweep="smoke",
                                  problems=("vecadd", "relu"))
        run = Planner().run(REGISTRY.get("claims"), context)
        claims = evaluate_claims(figure2_result_from_run(run))
        assert run.report() == claims.render()
        assert [c.claim_id for c in claims.outcomes] == ["C1", "C2", "C3", "C4"]

    def test_ablation_report_covers_both_studies(self):
        run = Planner().run(REGISTRY.get("ablation"), ScenarioContext(scale="smoke"))
        report = run.report()
        overhead = [(int(r.meta["overhead"]), r.meta["strategy"])
                    for r in run.records if r.meta["study"] == "overhead"]
        assert overhead == [(o, s) for o in DEFAULT_OVERHEADS
                            for s in ("naive-lws1", "hardware-aware")]
        bound = [boundedness_record_from_job(r.result)
                 for r in run.records if r.meta["study"] == "boundedness"]
        assert [b.problem for b in bound] == list(DEFAULT_SWEEP_PROBLEMS)
        assert "A1 -- launch-overhead sensitivity" in report
        for b in bound:
            assert f"| {b.problem} " in report and b.boundedness in report


# ----------------------------------------------------------------------
# New scenarios: sanity of the cheap sweeps
# ----------------------------------------------------------------------
class TestNewScenarios:
    def test_scaling_reports_every_core_count(self):
        run = Planner().run(REGISTRY.get("scaling"), SMOKE)
        report = run.report()
        for cores in (1, 2, 4, 8, 16, 32):
            assert f"| {cores} " in report or f"| {cores}  " in report

    def test_scheduler_sweep_covers_both_policies(self):
        run = Planner().run(REGISTRY.get("scheduler-sweep"), SMOKE)
        schedulers = {r.meta["scheduler"] for r in run.records}
        assert schedulers == {"rr", "gto"}
        assert "rr/gto" in run.report()

    def test_engine_compare_is_bit_identical_and_uncached(self, tmp_path):
        from repro.campaign.cache import ResultCache

        cache = ResultCache(tmp_path)
        runner = CampaignRunner(cache=cache)
        run = Planner(runner=runner).run(REGISTRY.get("engine-compare"), SMOKE)
        assert {r.meta["engine"] for r in run.records} == {"reference", "fast"}
        assert "bit-identical on every point" in run.report()
        # cacheable=False: the engine comparison must never read or write the
        # cache (a cache-served point would time nothing).
        assert cache.stats().entries == 0
        assert cache.stats().hits == 0

    def test_cache_sensitivity_tags_every_point(self):
        run = Planner().run(REGISTRY.get("cache-sensitivity"), SMOKE)
        for record in run.records:
            assert record.meta["l1_words"] in (1024, 4096, 16384)
            assert record.meta["l2_words"] in (8192, 32768, 131072)
        assert "L1 hit" in run.report()


# ----------------------------------------------------------------------
# Campaign cache integration
# ----------------------------------------------------------------------
class TestScenarioCacheIntegration:
    def test_second_run_is_fully_cache_served(self, tmp_path):
        from repro.campaign.cache import ResultCache

        scenario = tiny_scenario()
        runner = CampaignRunner(cache=ResultCache(tmp_path))
        planner = Planner(runner=runner)
        planner.run(scenario, SMOKE)
        second_cache = ResultCache(tmp_path)
        second = Planner(runner=CampaignRunner(cache=second_cache))
        run = second.run(scenario, SMOKE)
        assert run.stats.executed == 2      # "executed" counts campaign jobs...
        assert second_cache.hits == 2       # ...but every one was cache-served
        assert second_cache.misses == 0


class TestSinkStreaming:
    def test_iter_records_streams_without_materializing(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        streamed = list(sink.iter_records())
        assert [r.key for r in streamed] == list(sink.load())
        assert all(isinstance(r, SinkRecord) for r in streamed)

    def test_iter_records_skips_corrupt_and_stale_lines(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        with sink.path.open("a") as journal:
            journal.write("{corrupt\n")
            journal.write(json.dumps({"schema": -1, "key": "stale"}) + "\n")
        assert len(list(sink.iter_records())) == 2
        assert sink.skipped == 2

    def test_load_keeps_last_wins_over_the_stream(self, tmp_path):
        scenario = tiny_scenario()
        sink = ResultSink(tmp_path / "tiny.jsonl")
        Planner().run(scenario, SMOKE, sink=sink)
        # duplicate the first line at the tail: the re-appended record wins
        first_line = sink.path.read_text().splitlines()[0]
        with sink.path.open("a") as journal:
            journal.write(first_line + "\n")
        loaded = sink.load()
        assert len(loaded) == 2            # still one record per key
