"""Tests for the Figure-1 / Figure-2 harnesses, claims, ablations and reports.

These run real (tiny) sweeps on the simulator, so they use smoke-scale
problems and the smallest configuration grids.  Figure-2 and ablation grids
are unregistered scenarios run through the planner, the one path every
experiment takes.
"""

from dataclasses import replace

import pytest

from repro.core.mapper import PAPER_STRATEGIES
from repro.experiments.ablation import boundedness_record_from_job, overhead_records
from repro.experiments.claims import evaluate_claims
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import SweepRecord
from repro.experiments.report import (
    render_figure2_table,
    render_markdown_report,
    render_speedup_summary,
    render_table,
)
from repro.scenarios import (
    RUNTIME_STRATEGY,
    GridAxes,
    Planner,
    Scenario,
    ScenarioContext,
)
from repro.scenarios.library import figure2_result_from_run
from repro.sim.config import ArchConfig


def run_grid(grid):
    """Run ``grid`` at smoke scale as an unregistered scenario."""
    scenario = Scenario(name="test", description="test grid", grid=grid,
                        analyze=lambda run: "")
    return Planner().run(scenario, ScenarioContext(scale="smoke"))


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure1():
    return run_figure1(lws_values=(1, 16, 32, 64), length=128)


class TestFigure1:
    def test_all_requested_lws_values_are_traced(self, figure1):
        assert set(figure1.traces) == {1, 16, 32, 64}
        assert figure1.config_name == "1c2w4t"
        assert figure1.global_size == 128

    def test_lws16_is_the_fastest_as_in_the_paper(self, figure1):
        assert figure1.best_local_size() == 16
        cycles = {lws: t.cycles for lws, t in figure1.traces.items()}
        assert cycles[16] < cycles[1]
        assert cycles[16] < cycles[32]
        assert cycles[16] < cycles[64]

    def test_call_counts_match_the_three_regimes(self, figure1):
        assert figure1.traces[1].num_calls == 16
        assert figure1.traces[16].num_calls == 1
        assert figure1.traces[32].num_calls == 1
        assert figure1.traces[64].num_calls == 1

    def test_under_utilised_mappings_report_reduced_lane_utilisation(self, figure1):
        assert figure1.traces[16].lane_utilization == pytest.approx(1.0)
        assert figure1.traces[32].lane_utilization == pytest.approx(0.5)
        assert figure1.traces[64].lane_utilization == pytest.approx(0.25)

    def test_traces_contain_events_and_renderings(self, figure1):
        for trace in figure1.traces.values():
            assert len(trace.events) > 0
            assert "core 0 warp 0" in trace.timeline
            assert "init" in trace.waveform
            assert "lws=" in trace.summary()
        rendered = figure1.render()
        assert "Figure 1" in rendered
        assert rendered.count("lws=") >= 4


# ----------------------------------------------------------------------
# Figure 2 (tiny sweep)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure2():
    configs = (ArchConfig.from_name("1c2w2t"), ArchConfig.from_name("2c4w4t"),
               ArchConfig.from_name("8c8w8t"))
    return figure2_result_from_run(run_grid(GridAxes(
        problems=("vecadd", "sgemm"), configs=configs,
        strategies=tuple(PAPER_STRATEGIES), call_simulation_limit=3)))


class TestFigure2:
    def test_every_problem_config_strategy_is_recorded(self, figure2):
        assert len(figure2.records) == 2 * 3 * 3
        assert set(figure2.problems()) == {"vecadd", "sgemm"}
        record = figure2.records[0]
        assert isinstance(record, SweepRecord)
        assert record.cycles > 0
        assert record.as_dict()["strategy"] in ("lws=1", "lws=32", "ours")

    def test_ratios_and_stats_are_computed_per_baseline(self, figure2):
        for baseline in ("lws=1", "lws=32"):
            ratios = figure2.ratios("vecadd", baseline)
            assert len(ratios) == 3
            stats = figure2.stats("vecadd", baseline)
            assert stats.count == 3
            assert stats.worst <= stats.average <= stats.best

    def test_hardware_aware_mapping_is_never_dramatically_worse(self, figure2):
        for problem in figure2.problems():
            for baseline in ("lws=1", "lws=32"):
                assert figure2.stats(problem, baseline).worst >= 0.8

    def test_average_speedup_and_worst_case_queries(self, figure2):
        assert figure2.average_speedup("lws=1", category="math") >= 1.0
        assert figure2.worst_case_slowdown("lws=32") >= 1.0
        with pytest.raises(ValueError):
            figure2.average_speedup("lws=1", category="nonexistent")

    def test_cycles_lookup_and_missing_records(self, figure2):
        assert figure2.cycles("vecadd", "1c2w2t", "ours") > 0
        with pytest.raises(KeyError):
            figure2.cycles("vecadd", "1c2w2t", "lws=99")
        with pytest.raises(KeyError):
            figure2.ratios("vecadd", "lws=99")


# ----------------------------------------------------------------------
# claims, ablations, report rendering
# ----------------------------------------------------------------------
class TestClaimsAndReports:
    def test_claims_are_evaluated_with_measured_values(self, figure2):
        claims = evaluate_claims(figure2)
        assert {c.claim_id for c in claims.outcomes} == {"C1", "C2", "C3", "C4"}
        c1 = claims.by_id("C1")
        assert c1.paper_value == pytest.approx(1.3)
        assert c1.measured_value > 0
        assert claims.by_id("C4").holds        # Eq. 1 degeneracy is exact by construction
        assert "C1" in claims.render()
        with pytest.raises(KeyError):
            claims.by_id("C9")

    def test_figure2_table_rendering(self, figure2):
        table = render_figure2_table(figure2)
        assert "vecadd" in table and "sgemm" in table
        assert "lws=1/ours avg" in table
        assert table.count("|") > 20

    def test_speedup_summary_and_markdown_report(self, figure2):
        summary = render_speedup_summary(figure2)
        assert "speed-up over lws=1" in summary
        report = render_markdown_report(figure2, claims=evaluate_claims(figure2),
                                        figure1_text="trace goes here", title="Tiny report")
        assert report.startswith("# Tiny report")
        assert "Figure 1" in report and "Figure 2" in report
        assert "trace goes here" in report

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") and line.endswith("|") for line in lines)

    def test_overhead_ablation_is_monotone(self):
        overheads = (0, 64, 512)
        base = ArchConfig.from_name("2c2w4t")
        cycles = [job.cycles for job in run_grid([
            GridAxes(problems=("vecadd",),
                     configs=(replace(base, kernel_launch_overhead=overhead),),
                     strategies=("naive-lws1", "hardware-aware"),
                     call_simulation_limit=3)
            for overhead in overheads]).results()]
        records = overhead_records(overheads, zip(cycles[::2], cycles[1::2]))
        assert len(records) == 3
        ratios = [r.ratio for r in records]
        # more launch overhead -> the naive lws=1 mapping falls further behind
        assert ratios[0] <= ratios[1] <= ratios[2]
        assert records[0].naive_cycles > 0

    def test_boundedness_ablation_classifies_each_problem(self):
        run = run_grid(GridAxes(problems=("vecadd", "sgemm"),
                                configs=(ArchConfig.from_name("1c2w4t"),),
                                strategies=(RUNTIME_STRATEGY,)))
        records = [boundedness_record_from_job(job) for job in run.results()]
        by_name = {r.problem: r for r in records}
        assert set(by_name) == {"vecadd", "sgemm"}
        for record in records:
            assert record.boundedness in ("memory-bound", "compute-bound")
            assert 0.0 <= record.memory_intensity <= 1.0
        # vecadd does almost no arithmetic per load; sgemm amortises loads over FMAs
        assert by_name["vecadd"].memory_intensity > by_name["sgemm"].memory_intensity
