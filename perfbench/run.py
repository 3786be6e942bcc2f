"""The repository's benchmark: the paper's Eq.-1 experiment as users run it.

Run one workload::

    python3 perfbench/run.py --workload figure2-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs it once untraced and once with the call tracer
(``calltrace.py``) wrapped around each layer's public entry points, and
prints the per-layer split.  The last stdout line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
carries provenance: git sha and dirty flag, ``nproc``, Python and numpy
versions, the program's default engine and the seed.  ``--self-check``
runs two sets of seeded runs per workload and reports whether they agree
within the bounds in ``BENCHMARK.json``.  ``python3 -m pytest perfbench``
tests the benchmark's helpers.

The benchmark measures the program as shipped: it never pins an engine,
enables telemetry or changes a default.  Each iteration runs with fresh
cache, sink, service-queue and telemetry directories on local disk under
``.perfbench-work/`` (``REPRO_*_DIR`` point there; ``~/.cache/repro`` is
never touched), binds ports through port 0 and loads at most two processes
or connections, one per CPU of the 2-CPU host it was tuned on.

Workloads (why each exists)
---------------------------
figure2-cold
    ``figure2`` at ``--scale bench --sweep smoke``: 5 math kernels x 8
    machines x {lws=1, lws=32, ours} = 120 grid points, 107 unique jobs,
    empty cache and sink, one in-process worker.  The paper's experiment
    and the ROADMAP yardstick; nearly all host time is ``sim``, so engine
    work shows here.
service-mixed
    ``repro serve`` in its own process under a closed loop of 2 clients
    (``service_load.py``): 100 single-point jobs per iteration, 60 new
    points (misses that write the cache), 40 repeats (hits).  The only
    workload through the HTTP server, queue journal, worker thread hop and
    the service's always-on telemetry recorder.
fleet-cold
    The figure2-cold grid through a ``DistributedExecutor`` with 2 local
    ``repro worker`` processes; the timed region covers fleet start,
    execution and ``close()``.  The only workload through ``campaign.dist``;
    against figure2-cold it isolates the executor's overhead.

End-to-end metrics (untraced; medians over the run's iterations, at least
two, as many as fit in ``--seconds``)
-----------------------------------------------------------------------
wall_s            first call into the program until results, report and
                  close are done (service: the closed loop's duration)
setup_s           fresh interpreter launch until ``repro.cli`` and the
                  scenario registry are loaded (service: until ``/healthz``
                  answers); median of at least 5 set-ups per run
sim_winst_per_s   warp instructions in the workload's distinct results
                  (all freshly simulated) per host second
latency_p50_s     per job, submission to result: service POST to terminal
latency_p90_s     SSE frame; scenario workloads submit every job at the
                  start of the run, so it is the time until that job's
                  result reaches the caller (after its sink record);
                  samples pooled over iterations
jobs_per_s        unique jobs (service: completed jobs) per second of wall_s
peak_rss_mb       peak resident memory of the process doing the work: the
                  scenario process, the service, the fleet's coordinator;
                  read when the timed region ends, before the benchmark
                  copies results or loads the expected results

The error rate is ``failed / attempted`` of the result line: a job failure,
a non-2xx reply (429 included) or a result that differs from the expected
results (``expected.py``) fails the run.  It is not an end-to-end metric
because it is 0 on a correct program, and a bound on 0 is meaningless.

Per-layer metrics (traced run; every name on every workload, 0 where the
layer does no work) -- layer, what should move, where:

=====================  ==============================  ====================
sim                    wall_s, sim_winst_per_s         figure2-cold,
  run_call_s/run_calls/winst/host_us_per_winst         fleet-cold
sim (modelled design)  must not move in a host-speed   every workload
  cycles/stall_cycles/l1_hit_rate/dram_lines  PR
kernels.build_program_s   wall_s                       figure2-cold
workloads.make_problem_s  wall_s, latency_p50_s        figure2-cold,
                                                       service-mixed
runtime.launch_s/dispatch_plan_s/self_s, core.eq1_calls  figure2-cold
campaign.job_overhead_s   (execute_job - launch)       figure2-cold
campaign.hash_calls/hash_s                             figure2-cold
campaign.cache_load_s/get_many_s/hit_ratio             figure2-cold (all
                                                       misses), service-mixed
campaign.cache_put_s/puts                              service-mixed
campaign.runner_self_s    (run minus the wrapped       figure2-cold
                          executor, cache, hash and sink calls)
dist.startup_s/execute_s/close_s                       fleet-cold only
scenarios.plan_s/grid_points/unique_jobs/report_s      figure2-cold
scenarios.sink_append_s/sink_appends                   figure2-cold
io.fsync_s/fsyncs                                      figure2-cold,
                                                       service-mixed
service.submit_s/queue_wait_s/execute_s/cache_hit_ratio/metrics_scrape_s/
  metrics_bytes/rss_mb    latency, peak_rss_mb         service-mixed only
telemetry.trace_overhead_s  traced - untraced wall_s   every workload
=====================  ==============================  ====================

Layer times are totals over the traced iteration (summed over processes:
the fleet's workers, the service); ``service.*`` times are per-job medians
seen over HTTP.  The traced run's summary line also lists the count, total
and self time of every wrapped function.

Limits
------
* Simulated cycles are not validated against Vortex hardware: the
  repository holds no hardware measurements, so no accuracy figure is
  given; ``sim.cycles`` only guards that host-speed work leaves the model
  alone.
* The modelled caches start empty in every job.
* ``warehouse`` and ``trace`` are deliberately unmeasured: no ROADMAP item
  optimises them, and ``benchmarks/bench_warehouse.py`` covers the
  warehouse.
* There is no warm-cache workload.  One was built: the paper's 450-machine
  sweep at smoke scale (4681 unique jobs) served from a pre-filled cache,
  which loads hashing, the cache journal, ``get_many`` and the report and
  no simulation.  Its run medians were not steady enough on the 2-CPU VM
  it was tuned on: in two checks of ten runs each, the quartile spread of
  its wall_s was 0.29 of the median, above the 0.25 bound, while in the
  same checks no metric of the other workloads but set-up time spread by
  more than 0.18.  Its 0.7 s timed region, spent building Python objects,
  followed the host's speed, which drifted by up to a fifth from minute
  to minute.  Those layers are still traced on figure2-cold, at a small
  share of its time.
* The grids' problem seed is ``seed % 2`` for every seed but the held-out
  seed 7, which runs problem seed 2: its grids and service points are
  inputs no tuning run has seen, for checking a later claim.  Expected
  results are stored for problem seeds 0, 1 and 2; the default seed is 0.
  The problem seed changes the kernels' input data and so every job hash
  and cache key, but not the simulated work: these kernels' control flow
  does not depend on their data, and every stored result but its hash is
  the same at all three problem seeds.  The seed also fixes the order of
  the service's jobs.  ``--self-check`` never runs seed 7 and gives each
  set even and odd seeds in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    ROOT,
    SRC,
    WORK_ROOT,
    fresh_dir,
    load_benchmark,
    metric_table,
    paired_seeds,
    parse_result_line,
    percentile,
    program_env,
    provenance,
    quartile_spread,
    relative_change,
    result_line,
    samples_beyond,
)

#: Set-ups measured per run at least (extra set-up-only launches if needed).
MIN_SETUP_SAMPLES = 5
#: Iterations per run at least, so no run's medians rest on one iteration
#: (fleet-cold's 15 s iterations would otherwise get one in 30 s).
MIN_ITERATIONS = 2
#: A run gives up after this long (a healthy one takes well under a minute).
RUN_LIMIT = 170.0

SERVICE_WORKLOAD = "service-mixed"


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


# ----------------------------------------------------------------------
# one iteration
# ----------------------------------------------------------------------
class Workload:
    """Runs iterations of one workload inside a private work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.count = 0
        self.measured = 0
        self.deadline = time.monotonic() + RUN_LIMIT

    def _run_dir(self) -> Path:
        self.count += 1
        return fresh_dir(self.work / f"iteration-{self.count}")

    def _child(self, args: List[str], run_dir: Path, trace_dir: Optional[Path]):
        out = run_dir / "child.json"
        log = run_dir / "child.log"
        command = [sys.executable, str(BENCH_DIR / "child.py"), *args,
                   "--seed", str(self.seed), "--run-dir", str(run_dir),
                   "--out", str(out)]
        with open(log, "w") as stderr:
            try:
                done = subprocess.run(
                    [*command, "--launched", repr(time.monotonic())],
                    cwd=ROOT, env=program_env(run_dir, trace_dir),
                    stdout=subprocess.DEVNULL, stderr=stderr,
                    timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                raise BenchmarkError(f"{self.name}: child timed out") from None
        if done.returncode != 0:
            raise BenchmarkError(f"{self.name}: child exited {done.returncode}:\n"
                                 f"{log.read_text()[-3000:]}")
        return json.loads(out.read_text())

    def iterate(self, trace_dir: Optional[Path] = None,
                setup_only: bool = False) -> Dict:
        """One iteration's measurements (see ``child.py``/``service_load.py``)."""
        run_dir = self._run_dir()
        if self.name == SERVICE_WORKLOAD:
            import service_load

            try:
                outcome = service_load.run_iteration(
                    self.seed, self.measured, run_dir,
                    program_env(run_dir, trace_dir), setup_only)
            except RuntimeError as error:
                raise BenchmarkError(f"{self.name}: {error}") from None
            self.measured += not setup_only
            return outcome
        args = [self.name] + (["--setup-only"] if setup_only else [])
        return self._child(args, run_dir, trace_dir)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(iterations: List[Dict], setups: List[float]) -> Dict[str, float]:
    latencies = [value for it in iterations for value in it["latencies"]]
    return {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "setup_s": statistics.median(setups),
        "sim_winst_per_s": statistics.median(it["winst"] / it["wall_s"]
                                             for it in iterations),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "jobs_per_s": statistics.median(it["jobs"] / it["wall_s"]
                                        for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(traced: Dict, calls: Dict[str, Dict],
              untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from one traced iteration and its call totals
    (``service.*`` come from the service iteration's HTTP observations)."""
    count = calls["calls"]
    total = calls["total"]
    own = calls["self"]
    tallies = calls["tallies"]

    def t(key: str) -> float:
        return total.get(key, 0.0)

    def n(key: str) -> int:
        return count.get(key, 0)

    design = traced["design"]
    winst = tallies.get("sim.winst", 0)
    return {
        "sim.run_call_s": t("sim.run_call"),
        "sim.run_calls": n("sim.run_call"),
        "sim.winst": winst,
        "sim.host_us_per_winst": _ratio(t("sim.run_call"), winst, 1e6),
        "sim.cycles": design["cycles"],
        "sim.stall_cycles": design["stall_cycles"],
        "sim.l1_hit_rate": _ratio(design["l1_hits"],
                                  design["l1_hits"] + design["l1_misses"]),
        "sim.dram_lines": design["dram_lines"],
        "kernels.build_program_s": t("kernels.build_program"),
        "workloads.make_problem_s": t("workloads.make_problem"),
        "runtime.launch_s": t("runtime.launch"),
        "runtime.dispatch_plan_s": t("runtime.dispatch_plan"),
        "runtime.self_s": own.get("runtime.launch", 0.0),
        "core.eq1_calls": n("core.eq1"),
        "campaign.job_overhead_s": t("campaign.execute_job") - t("runtime.launch"),
        "campaign.hash_calls": n("campaign.hash"),
        "campaign.hash_s": t("campaign.hash"),
        "campaign.cache_load_s": t("campaign.cache_load"),
        "campaign.cache_get_many_s": t("campaign.cache_get_many"),
        "campaign.cache_hit_ratio": _ratio(tallies.get("cache.hits", 0),
                                           tallies.get("cache.lookups", 0)),
        "campaign.cache_put_s": t("campaign.cache_put"),
        "campaign.cache_puts": n("campaign.cache_put"),
        "campaign.runner_self_s": own.get("campaign.runner", 0.0),
        "dist.startup_s": t("dist.spawn") + t("dist.wait"),
        "dist.execute_s": t("dist.execute"),
        "dist.close_s": t("dist.close"),
        "scenarios.plan_s": t("scenarios.plan"),
        "scenarios.grid_points": traced.get("grid_points", 0),
        "scenarios.unique_jobs": traced.get("unique_jobs", 0),
        "scenarios.sink_append_s": t("scenarios.sink_append"),
        "scenarios.sink_appends": n("scenarios.sink_append"),
        "scenarios.report_s": t("scenarios.report"),
        "io.fsync_s": t("io.fsync"),
        "io.fsyncs": n("io.fsync"),
        "service.submit_s": _median(traced.get("submit_s", [])),
        "service.queue_wait_s": _median(traced.get("queue_wait_s", [])),
        "service.execute_s": _median(traced.get("execute_s", [])),
        "service.cache_hit_ratio": _ratio(traced.get("hits", 0),
                                          traced.get("lookups", 0)),
        "service.metrics_scrape_s": _mean(traced.get("scrape_s", [])),
        "service.metrics_bytes": _mean(traced.get("scrape_bytes", [])),
        "service.rss_mb": traced.get("rss_mb", 0.0),
        "telemetry.trace_overhead_s": traced["wall_s"] - untraced_wall,
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: Path) -> Dict:
    """Iterations, set-up samples and metrics of one run."""
    runner = Workload(workload, seed, work)
    iterations: List[Dict] = []
    if trace:
        iterations.append(runner.iterate())
        trace_dir = work / "trace"
        traced = runner.iterate(trace_dir=trace_dir)
        import calltrace

        calls = calltrace.load_dir(trace_dir)
        metrics = per_layer(traced, calls, iterations[0]["wall_s"])
        checked = iterations + [traced]
        wrapped = {key: {"calls": count, "total_s": calls["total"][key],
                         "self_s": calls["self"][key]}
                   for key, count in sorted(calls["calls"].items())}
    else:
        # Iterate while another iteration as long as the last one still
        # fits in ``seconds``; at least MIN_ITERATIONS.
        started = time.monotonic()
        while True:
            began = time.monotonic()
            iterations.append(runner.iterate())
            now = time.monotonic()
            if (len(iterations) >= MIN_ITERATIONS
                    and (now - started) + (now - began) > seconds):
                break
        if not any(it["latencies"] for it in iterations):
            raise BenchmarkError(f"{workload}: no job completed")
        setups = [it["setup_s"] for it in iterations]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.iterate(setup_only=True)["setup_s"])
        metrics = end_to_end(iterations, setups)
        checked = iterations
        wrapped = None
    return {
        "metrics": metrics,
        "iterations": len(checked),
        "attempted": sum(it["attempted"] for it in checked),
        "failed": sum(it["failed"] for it in checked),
        "mismatches": [m for it in checked for m in it["mismatches"]],
        "latency_samples": sum(len(it["latencies"]) for it in checked),
        "latency_beyond_p90": (samples_beyond(
            [v for it in checked for v in it["latencies"]], 90)
            if not trace else None),
        "wrapped_calls": wrapped,
    }


def prepare() -> str:
    """Byte-compile the program (its users run it from compiled modules, so
    no set-up sample should pay compilation) and return its default engine,
    resolved the way the program does."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   cwd=ROOT, capture_output=True, timeout=120)
    done = subprocess.run(
        [sys.executable, "-c", "from repro.sim.engine import resolve_engine; "
                          "print(resolve_engine())"],
        cwd=ROOT, env=program_env(WORK_ROOT), capture_output=True, text=True,
        timeout=60)
    if done.returncode != 0:
        raise BenchmarkError(f"cannot import the program:\n{done.stderr[-2000:]}")
    return done.stdout.strip()


def run_once(args, benchmark: Dict) -> int:
    declared = metric_table(benchmark, bool(args.trace))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    engine = prepare()
    work = fresh_dir(WORK_ROOT / f"{args.workload}-{os.getpid()}")
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                  # another run's directory is still there
    correct = outcome["failed"] == 0 and not outcome["mismatches"]
    summary = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "provenance": provenance(args.seed, engine),
        "iterations": outcome["iterations"],
        "latency_samples": outcome["latency_samples"],
        "latency_beyond_p90": outcome["latency_beyond_p90"],
        "error_rate": outcome["failed"] / outcome["attempted"],
        "mismatches": outcome["mismatches"][:10],
    }
    if outcome["wrapped_calls"] is not None:
        summary["wrapped_calls"] = outcome["wrapped_calls"]
    print("perfbench " + json.dumps(summary, sort_keys=True))
    for name, value in outcome["metrics"].items():
        print(f"  {name:32s} {value:.6g} {declared[name]['unit']}", file=sys.stderr)
    print(result_line(correct, outcome["attempted"], outcome["failed"],
                      outcome["metrics"], declared))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# steadiness self-check
# ----------------------------------------------------------------------
def self_check(args, benchmark: Dict) -> int:
    """Two interleaved sets of runs per workload; do they agree?"""
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    declared = metric_table(benchmark, trace=False)
    report = {"provenance": provenance(args.seed, prepare()),
              "runs_per_set": args.runs, "workloads": {}}
    agree = True
    pairs = iter(paired_seeds(args.seed, args.runs * len(workloads)))
    for workload in workloads:
        values: List[Dict[str, List[float]]] = [{}, {}]
        for _ in range(args.runs):
            for which, seed in enumerate(next(pairs)):
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, timeout=240)
                if done.returncode != 0:
                    raise BenchmarkError(f"{workload} seed {seed} failed:\n"
                                         f"{done.stderr[-3000:]}")
                result = parse_result_line(done.stdout)
                for name, metric in result["metrics"].items():
                    values[which].setdefault(name, []).append(metric["value"])
                print(f"{workload} set {'AB'[which]} seed {seed}: " +
                      " ".join(f"{name}={metric['value']:.4g}"
                               for name, metric in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        rows = {}
        for name, entry in declared.items():
            first, second = values[0][name], values[1][name]
            pooled = first + second
            change = relative_change(statistics.median(first),
                                     statistics.median(second), entry["better"])
            spreads = [quartile_spread(first), quartile_spread(second)]
            ok = change <= entry["bound"] and (
                name == "setup_s" or max(spreads) <= entry["bound"])
            agree &= ok
            rows[name] = {"median_a": statistics.median(first),
                          "median_b": statistics.median(second),
                          "b_worse_by": change, "spread_a": spreads[0],
                          "spread_b": spreads[1],
                          "spread_pooled": quartile_spread(pooled),
                          "bound": entry["bound"],
                          "agree": ok}
            print(f"{workload:17s} {name:16s} A {rows[name]['median_a']:.4g} "
                  f"B {rows[name]['median_b']:.4g} worse {change:+.3f} "
                  f"spread {spreads[0]:.3f}/{spreads[1]:.3f} "
                  f"pooled {rows[name]['spread_pooled']:.3f} "
                  f"bound {entry['bound']} {'ok' if ok else 'DISAGREE'}")
        report["workloads"][workload] = rows
    print(json.dumps(report, sort_keys=True))
    return 0 if agree else 1


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run two sets per workload and compare them")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set in --self-check")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="workloads for --self-check (default: all)")
    args = parser.parse_args(argv)
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # Started in the background by a shell, which ignores SIGINT and
        # would pass that on to ``repro serve``, whose graceful stop is
        # SIGINT.  A handled signal reverts to its default across exec.
        signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        benchmark = load_benchmark()
        if args.seconds is None:
            args.seconds = benchmark["run_seconds"]
        if args.self_check:
            return self_check(args, benchmark)
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args, benchmark)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
