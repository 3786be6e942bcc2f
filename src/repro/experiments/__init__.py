"""Experiment building blocks: grids, result models, claims and reports.

Every Figure-2, claims and ablation run goes through the scenario planner
(:mod:`repro.scenarios`): the registered ``figure2``, ``claims`` and
``ablation`` scenarios declare the grids, and their analyses rebuild the
result models defined here from sink records.

* :mod:`~repro.experiments.configs` -- the 450-configuration hardware sweep
  (and reduced grids for CI-sized runs).
* :mod:`~repro.experiments.figure1` -- the Figure-1 trace study: ``vecadd``
  on a 1-core/2-warp/4-thread machine under four different lws values.
* :mod:`~repro.experiments.figure2` -- the Figure-2 result model: per-kernel
  violin statistics (average, worst case, fraction below 1) as reported in
  the paper's data tables, plus JSON persistence for ``repro sweep -o``.
* :mod:`~repro.experiments.claims` -- the textual claims of Section 3
  (average 1.3x / 3.7x speed-ups, up to 20x worst case, Eq. 1 degenerating to
  lws=1 on very large machines).
* :mod:`~repro.experiments.ablation` -- record types and reference machines
  of the launch-overhead sensitivity and memory/compute boundedness studies.
* :mod:`~repro.experiments.report` -- markdown rendering of all results.
"""

from repro.experiments.configs import (
    PAPER_SWEEP_SIZE,
    bench_sweep,
    paper_sweep,
    smoke_sweep,
    sweep_by_name,
)
from repro.experiments.figure1 import (
    Figure1Result,
    build_figure1_campaign,
    run_figure1,
    summarize_figure1_launch,
)
from repro.experiments.figure2 import (
    Figure2Result,
    SweepRecord,
    sweep_record_from_job,
)
from repro.experiments.stats import RatioStats, ratio_stats
from repro.experiments.claims import ClaimResults, evaluate_claims
from repro.experiments.ablation import (
    BoundednessRecord,
    OverheadSensitivityRecord,
    boundedness_record_from_job,
    overhead_records,
)
from repro.experiments.report import render_figure2_table, render_markdown_report

__all__ = [
    "BoundednessRecord",
    "ClaimResults",
    "Figure1Result",
    "Figure2Result",
    "OverheadSensitivityRecord",
    "PAPER_SWEEP_SIZE",
    "RatioStats",
    "SweepRecord",
    "bench_sweep",
    "boundedness_record_from_job",
    "build_figure1_campaign",
    "evaluate_claims",
    "overhead_records",
    "paper_sweep",
    "ratio_stats",
    "render_figure2_table",
    "render_markdown_report",
    "run_figure1",
    "smoke_sweep",
    "summarize_figure1_launch",
    "sweep_by_name",
    "sweep_record_from_job",
]
