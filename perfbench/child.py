"""One timed iteration of a scenario workload, in a fresh interpreter.

``run.py`` launches this script once per iteration, because a CLI user pays
the program's import-time set-up on every invocation.  It measures that
set-up (launch until ``repro.cli`` and the scenario registry are loaded),
then runs the ``figure2`` scenario through the same public calls the CLI
makes -- result cache, campaign runner (or a two-worker fleet), planner,
report -- and writes timings, memory and the checked results to ``--out``
as JSON.  Like ``repro scenario run figure2``, it streams every record to a
sink (one append + fsync each).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

#: The expected-results grid both scenario workloads run.
GRID = "figure2-bench-smoke"
#: Scenario workloads and their fleet size (0 runs in-process).
WORKLOADS = {"figure2-cold": 0, "fleet-cold": 2}


def run_iteration(workload: str, seed: int, run_dir: Path, launched: float,
                  setup_only: bool) -> dict:
    import repro.cli  # noqa: F401 -- the set-up a CLI invocation pays
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import CampaignRunner
    from repro.scenarios import REGISTRY, Planner, ResultSink, ScenarioError

    scenario = REGISTRY.get("figure2")
    setup_s = time.monotonic() - launched
    if setup_only:
        return {"setup_s": setup_s}
    # The benchmark's own modules load after the set-up clock stops.
    from common import problem_seed, rusage_peak_mb
    from expected import Expected, design_totals, scenario_context

    fleet = WORKLOADS[workload]
    pseed = problem_seed(seed)
    context = scenario_context(GRID, pseed)
    completed = []

    def on_result(done, total, outcome):
        completed.append(time.perf_counter())

    started = time.perf_counter()
    cache = ResultCache(run_dir / "cache")
    executor = None
    if fleet:
        from repro.campaign.dist import DistributedExecutor

        executor = DistributedExecutor(host="127.0.0.1", port=0, cache=cache)
        executor.spawn_local_workers(fleet)
        executor.wait_for_workers(fleet)
    runner = CampaignRunner(workers=1, cache=cache, executor=executor)
    run = None
    failure = []
    try:
        sink = ResultSink(run_dir / "sink" / "figure2.jsonl")
        run = Planner(runner=runner).run(scenario, context, sink=sink,
                                         progress=on_result)
    except ScenarioError as error:
        # Failed jobs fail the run; its timings are still reported.
        failure.append(f"{workload}: {error}"[:2000])
    finally:
        runner.close()
        if executor is not None:
            executor.close()
    report = run.report() if run is not None else ""
    wall_s = time.perf_counter() - started
    # Before the benchmark's own result copies and expected-results table.
    peak_rss_mb = rusage_peak_mb()

    unique = {}
    for record in run.records if run is not None else ():
        unique.setdefault(record.job_hash, record.result.to_dict())
    results = list(unique.values())
    expected = Expected.load(GRID)
    mismatches = failure + expected.check_all(pseed, results)
    matched = sum(1 for result in results if expected.check(pseed, result) is None)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies": [moment - started for moment in completed],
        "peak_rss_mb": peak_rss_mb,
        "jobs": len(results),
        "grid_points": run.stats.planned if run is not None else 0,
        "unique_jobs": run.stats.unique if run is not None else 0,
        "report_chars": len(report),
        "winst": sum(result["counters"]["warp_instructions"] for result in results),
        "design": design_totals(results),
        "attempted": len(expected.hashes(pseed)),
        "failed": len(expected.hashes(pseed)) - matched,
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--launched", type=float, default=None,
                        help="run.py's time.monotonic() just before launch")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    payload = run_iteration(args.workload, args.seed, args.run_dir,
                            args.launched, args.setup_only)
    from common import write_json

    write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
