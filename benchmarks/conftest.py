"""Shared configuration for the benchmark harness.

Every figure/claim of the paper has a benchmark module here, and each one
runs its grid through the scenario planner -- the same path the CLI, the
service and the fleet use.  Because the simulator is pure Python, the default
grids and problem sizes are reduced; the environment variables below scale
the harness up to the full paper setup when time allows:

* ``REPRO_SWEEP``  -- ``smoke`` | ``bench`` | ``paper``: hardware grid used by
  the Figure-2 benchmarks (default ``bench`` = 36 configurations for the math
  kernels, a 10-configuration grid for the ML layers).
* ``REPRO_SCALE``  -- ``smoke`` | ``bench`` | ``paper``: problem sizes
  (default ``bench``).
* ``REPRO_EXACT_CALLS`` -- set to ``1`` to simulate every sequential kernel
  call instead of extrapolating long lws=1 launches.

Rendered result tables are written to ``benchmarks/results/`` so they can be
compared against the paper.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.configs import smoke_sweep, sweep_by_name
from repro.experiments.figure2 import DEFAULT_CALL_SIMULATION_LIMIT, Figure2Result
from repro.scenarios import Planner, Scenario, ScenarioContext
from repro.scenarios.library import figure2_result_from_run
from repro.sim.config import ArchConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: Reduced grid used by default for the expensive ML-layer sweeps: the smoke
#: grid plus the two largest machines, so the under-utilisation regime of
#: fixed lws values is still exercised.
ML_DEFAULT_GRID = smoke_sweep() + [
    ArchConfig.from_name("16c16w16t"),
    ArchConfig.from_name("64c32w32t"),
]


def sweep_name_from_env(default: str = "bench") -> str:
    """Name of the hardware grid selected by ``REPRO_SWEEP``."""
    return os.environ.get("REPRO_SWEEP", default)


def sweep_from_env(default: str = "bench"):
    """Hardware grid selected by ``REPRO_SWEEP``."""
    return sweep_by_name(sweep_name_from_env(default))


def ml_sweep_from_env():
    """Hardware grid for the ML-layer benchmarks (reduced by default)."""
    name = os.environ.get("REPRO_SWEEP")
    if name is None:
        return list(ML_DEFAULT_GRID)
    return sweep_by_name(name)


def scale_from_env(default: str = "bench") -> str:
    """Problem scale selected by ``REPRO_SCALE``."""
    return os.environ.get("REPRO_SCALE", default)


def exact_calls_from_env() -> bool:
    """Whether ``REPRO_EXACT_CALLS=1`` asks for every kernel call simulated."""
    return os.environ.get("REPRO_EXACT_CALLS") == "1"


def call_limit_from_env():
    """Kernel-call extrapolation limit (None = exact simulation)."""
    return None if exact_calls_from_env() else DEFAULT_CALL_SIMULATION_LIMIT


def sweep_result(scenario: Scenario, problems, runner=None) -> Figure2Result:
    """Run a Figure-2-shaped scenario over ``problems`` through the planner.

    The context carries the ``REPRO_*`` settings, so the registered
    ``figure2`` scenario measures exactly the grid ``repro sweep`` would.
    """
    context = ScenarioContext(scale=scale_from_env(), sweep=sweep_name_from_env(),
                              problems=tuple(problems),
                              exact_calls=exact_calls_from_env())
    return figure2_result_from_run(Planner(runner=runner).run(scenario, context))


def write_result(name: str, text: str) -> Path:
    """Persist a rendered table/report under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR
