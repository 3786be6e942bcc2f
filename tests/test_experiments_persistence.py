"""Tests for sweep-result persistence (Figure2Result.save_json / load_json)."""

import pytest

from repro.core.mapper import PAPER_STRATEGIES
from repro.experiments.figure2 import Figure2Result, SweepRecord
from repro.scenarios import GridAxes, Planner, Scenario, ScenarioContext
from repro.scenarios.library import figure2_result_from_run
from repro.sim.config import ArchConfig


def _tiny_result() -> Figure2Result:
    scenario = Scenario(
        name="tiny-sweep",
        description="vecadd on two machines under the paper's mappings",
        grid=GridAxes(problems=("vecadd",),
                      configs=(ArchConfig.from_name("1c2w2t"),
                               ArchConfig.from_name("2c2w4t")),
                      strategies=tuple(PAPER_STRATEGIES),
                      call_simulation_limit=3),
        analyze=lambda run: "",
    )
    run = Planner().run(scenario, ScenarioContext(scale="smoke"))
    return figure2_result_from_run(run)


def test_sweep_record_dict_round_trip():
    record = SweepRecord(problem="vecadd", category="math", config_name="1c2w2t",
                         hardware_parallelism=4, strategy="ours", local_size=16,
                         global_size=64, num_calls=1, cycles=1234, lane_utilization=1.0)
    restored = SweepRecord.from_dict(record.as_dict())
    assert restored == record


def test_save_and_load_json_preserves_statistics(tmp_path):
    result = _tiny_result()
    path = tmp_path / "sweep.json"
    result.save_json(path)
    assert path.exists()

    loaded = Figure2Result.load_json(path)
    assert len(loaded.records) == len(result.records)
    assert loaded.problems() == result.problems()
    for baseline in ("lws=1", "lws=32"):
        original = result.stats("vecadd", baseline)
        restored = loaded.stats("vecadd", baseline)
        assert restored.average == pytest.approx(original.average)
        assert restored.worst == pytest.approx(original.worst)
        assert restored.count == original.count


def test_loaded_result_supports_claims_and_reports(tmp_path):
    from repro.experiments.claims import evaluate_claims
    from repro.experiments.report import render_figure2_table

    result = _tiny_result()
    path = tmp_path / "sweep.json"
    result.save_json(path)
    loaded = Figure2Result.load_json(path)
    table = render_figure2_table(loaded)
    assert "vecadd" in table
    claims = evaluate_claims(loaded)
    assert claims.by_id("C4").holds
