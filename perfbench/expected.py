"""The workloads' grids and their expected results (the output check).

Every workload's outputs are compared with results generated once on the
``reference`` engine -- the oracle every other engine is bit-identical to.
For each ``job_hash`` the stored record is every field of
``JobResult.to_dict()`` except ``elapsed_seconds``; a result whose hash is
unknown, or whose fields differ in any way, is a mismatch.

Regenerate (only when the simulator's model changes, which bumps the
version stamped into every hash)::

    python3 perfbench/expected.py            # every grid, every problem seed
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
import time
from typing import Dict, List, Mapping, Optional

from common import BENCH_DIR, PROBLEM_SEEDS, SRC

DATA_DIR = BENCH_DIR / "data"

#: Simulation processes used to generate expected results (the results do
#: not depend on it).
GENERATE_WORKERS = 2

#: Fields of ``JobResult.to_dict()`` the check ignores: host time varies.
IGNORED_FIELDS = ("elapsed_seconds",)

#: Figure-2 grids, as ``(scale, sweep)``: the paper's experiment at bench
#: scale on the smoke machine sweep.
SCENARIO_GRIDS = {
    "figure2-bench-smoke": ("bench", "smoke"),
}

#: The service workload's point universe: the five math kernels at bench
#: scale, Eq.-1 lws, on the 12 bench-sweep machines with 32-thread warps.
#: Wide warps keep every launch short (5-250 ms of simulation on the
#: reference engine, against up to 420 ms with 2-thread warps), so a closed
#: loop completes hundreds of jobs per run and the latency tail is not one
#: heavy point that a seed happened to overlap with another.
SERVICE_PROBLEMS = ("vecadd", "relu", "saxpy", "sgemm", "knn")
SERVICE_CONFIGS = tuple(f"{cores}c{warps}w32t"
                        for cores in (1, 4, 16, 64)
                        for warps in (2, 8, 32))
SERVICE_SCALE = "bench"


def _import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scenario_context(grid: str, seed: int):
    """The ``figure2`` scenario context ``repro scenario run figure2
    --scale S --sweep W --seed N`` builds."""
    _import_program()
    from repro.scenarios import ScenarioContext
    from repro.scenarios.library import DEFAULT_SWEEP_PROBLEMS

    scale, sweep = SCENARIO_GRIDS[grid]
    return ScenarioContext(scale=scale, seed=seed, exact_calls=False,
                           problems=DEFAULT_SWEEP_PROBLEMS, sweep=sweep)


def service_request(problem: str, config: str, seed: int) -> Dict[str, object]:
    """The ``POST /jobs`` body of one service point."""
    return {"problems": [problem], "configs": [config], "lws": [None],
            "scale": SERVICE_SCALE, "seed": seed}


def service_points() -> List[tuple]:
    """``(problem, config)`` of every point the service workload may submit."""
    return [(problem, config) for problem in SERVICE_PROBLEMS
            for config in SERVICE_CONFIGS]


def grid_specs(grid: str, seed: int):
    """The unique job specs of ``grid`` at problem seed ``seed``."""
    _import_program()
    if grid == "service-points":
        from repro.service.schemas import validate_request

        return [validate_request(service_request(problem, config, seed)).specs()[0]
                for problem, config in service_points()]
    from repro.scenarios import REGISTRY, Planner

    plan = Planner().plan(REGISTRY.get("figure2"), scenario_context(grid, seed))
    return [job.spec for job in Planner.unique_jobs(plan)]


GRIDS = (*SCENARIO_GRIDS, "service-points")


#: Counters of the modelled design the traced run reports (summed).
DESIGN_COUNTERS = ("cycles", "stall_cycles", "l1_hits", "l1_misses", "dram_lines")


def design_totals(results: List[Mapping[str, object]]) -> Dict[str, int]:
    """``DESIGN_COUNTERS`` summed over result dicts."""
    return {name: sum(result["counters"][name] for result in results)
            for name in DESIGN_COUNTERS}


# ----------------------------------------------------------------------
def comparable(result: Mapping[str, object]) -> Dict[str, object]:
    """A result dict minus the fields the check ignores."""
    return {key: value for key, value in result.items()
            if key not in IGNORED_FIELDS}


class Expected:
    """Expected results of one grid, for every stored problem seed."""

    def __init__(self, payload: Mapping[str, object]):
        self.grid = payload["grid"]
        self.records: List[Dict[str, object]] = list(payload["records"])
        self.by_seed: Dict[int, Dict[str, int]] = {
            int(seed): dict(hashes) for seed, hashes in payload["hashes"].items()}

    @classmethod
    def load(cls, grid: str) -> "Expected":
        with gzip.open(DATA_DIR / f"{grid}.json.gz", "rt") as handle:
            return cls(json.load(handle))

    def hashes(self, seed: int) -> List[str]:
        """Every job hash of the grid at problem seed ``seed``."""
        return list(self.by_seed[seed])

    def record(self, seed: int, job_hash: str) -> Optional[Dict[str, object]]:
        """The expected result (with its hash) or ``None`` if unknown."""
        index = self.by_seed.get(seed, {}).get(job_hash)
        if index is None:
            return None
        return {"job_hash": job_hash, **self.records[index]}

    def check(self, seed: int, result: Mapping[str, object]) -> Optional[str]:
        """``None`` when ``result`` (a ``to_dict()``) matches, else why not."""
        job_hash = str(result.get("job_hash"))
        expected = self.record(seed, job_hash)
        if expected is None:
            return f"{self.grid}: unexpected job_hash {job_hash}"
        actual = comparable(result)
        if actual == expected:
            return None
        fields = sorted(key for key in set(actual) | set(expected)
                        if actual.get(key) != expected.get(key))
        detail = ", ".join(f"{key}: {actual.get(key)!r} != {expected.get(key)!r}"
                           for key in fields[:4])
        return f"{self.grid}: {job_hash[:12]} differs ({detail})"

    def check_all(self, seed: int,
                  results: List[Mapping[str, object]]) -> List[str]:
        """Mismatches of ``results``, a grid point with no result included."""
        problems = [problem for problem in
                    (self.check(seed, result) for result in results) if problem]
        seen = {str(result.get("job_hash")) for result in results}
        problems.extend(f"{self.grid}: no result for {job_hash[:12]}"
                        for job_hash in self.by_seed[seed] if job_hash not in seen)
        return problems


# ----------------------------------------------------------------------
def generate(grid: str) -> Dict[str, object]:
    """Simulate ``grid`` at every stored problem seed on ``reference``."""
    _import_program()
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import Campaign

    records: List[Dict[str, object]] = []
    index_of: Dict[str, int] = {}
    hashes: Dict[str, Dict[str, int]] = {}
    with CampaignRunner(workers=GENERATE_WORKERS) as runner:
        for seed in PROBLEM_SEEDS:
            specs = grid_specs(grid, seed)
            outcome = runner.run(Campaign(name=f"expected-{grid}", specs=specs),
                                 engine="reference")
            outcome.raise_on_failure()
            by_hash: Dict[str, int] = {}
            for spec, result in zip(outcome.specs, outcome.results):
                record = comparable(result.to_dict())
                job_hash = record.pop("job_hash")
                if job_hash != spec.content_hash():
                    raise RuntimeError(f"result hash {job_hash} does not name "
                                       f"its spec {spec.content_hash()}")
                key = json.dumps(record, sort_keys=True)
                if key not in index_of:
                    index_of[key] = len(records)
                    records.append(record)
                by_hash[job_hash] = index_of[key]
            hashes[str(seed)] = by_hash
    import repro

    return {"grid": grid, "engine": "reference", "simulator": repro.__version__,
            "records": records, "hashes": hashes}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for grid in GRIDS:
        started = time.monotonic()
        payload = generate(grid)
        path = DATA_DIR / f"{grid}.json.gz"
        # mtime=0: the same results always compress to the same bytes.
        with gzip.GzipFile(path, "wb", mtime=0) as raw:
            raw.write(json.dumps(payload, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        counts = {seed: len(hashes) for seed, hashes in payload["hashes"].items()}
        print(f"{grid}: {len(payload['records'])} distinct record(s), "
              f"jobs per problem seed {counts}, "
              f"{time.monotonic() - started:.1f}s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
