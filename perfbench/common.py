"""Helpers shared by ``run.py``, its child processes and its tests.

Nothing here imports ``repro``: the ``run.py`` process stays a pure
orchestrator, and the program is only ever loaded inside the processes
being measured.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The benchmark's own directory and the checkout it measures.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Scratch space for every run: local disk inside the checkout (never tmpfs,
#: because the sink's and the service queue's fsyncs are part of what the
#: workloads measure).
WORK_ROOT = ROOT / ".perfbench-work"

#: Seed used when none is given, and the seed held out for checking a
#: later performance claim on inputs its author did not tune against.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
#: Expected results are stored for exactly these problem seeds.  A workload
#: seed's problem seed is ``seed % 2``; only the held-out seed runs the
#: held-out problem seed, so its grids and service points differ from those
#: of every seed a tuning run can use.
PROBLEM_SEEDS = (0, 1, 2)
HELD_OUT_PROBLEM_SEED = 2

#: Environment the program must not inherit: the benchmark measures the
#: program's own defaults (engine, telemetry off outside ``repro serve``).
PROGRAM_SWITCHES = ("REPRO_ENGINE", "REPRO_TELEMETRY")


def problem_seed(seed: int) -> int:
    """The grids' problem seed for a workload seed."""
    if seed == HELD_OUT_SEED:
        return HELD_OUT_PROBLEM_SEED
    return seed % 2


def paired_seeds(start: int, runs: int) -> List[Tuple[int, int]]:
    """``(set A seed, set B seed)`` for ``runs`` rounds of the self-check:
    consecutive even/odd seeds from ``start`` on, the even seed going to A
    and to B in turn, so the two sets run the same problem seeds and differ
    by noise only.  The pair holding the held-out seed is skipped."""
    pairs: List[Tuple[int, int]] = []
    base = start - start % 2
    while len(pairs) < runs:
        pair = (base, base + 1)
        base += 2
        if HELD_OUT_SEED not in pair:
            pairs.append(pair if len(pairs) % 2 == 0 else pair[::-1])
    return pairs


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default), without numpy."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- ``statistics.quantiles(values, n=4)``, the rule the
    benchmark's steadiness is judged by."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def samples_beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def relative_change(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of
    ``before`` (negative when it is better)."""
    if before == 0:
        return 0.0 if after == before else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


# ----------------------------------------------------------------------
# the benchmark's declaration and its output line
# ----------------------------------------------------------------------
def load_benchmark(path: Path = BENCHMARK_JSON) -> Dict:
    """``BENCHMARK.json`` as a dict."""
    with open(path) as handle:
        return json.load(handle)


def metric_table(benchmark: Mapping, trace: bool) -> Dict[str, Dict]:
    """``{name: declaration}`` of the metrics one run reports."""
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry for entry in benchmark[key]}


def result_line(correct: bool, attempted: int, failed: int,
                values: Mapping[str, float],
                declared: Mapping[str, Mapping]) -> str:
    """The run's final stdout line: exactly the declared metrics, in order."""
    missing = [name for name in declared if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": float(values[name]), "unit": entry["unit"]}
               for name, entry in declared.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def parse_result_line(stdout: str) -> Dict:
    """The result object from a run's stdout (its last non-empty line),
    validated against the output contract."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key!r} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("'attempted' must be at least 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name!r} must carry exactly value and unit")
        if not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name!r} value is not a number")
    return result


# ----------------------------------------------------------------------
# environment of the measured processes
# ----------------------------------------------------------------------
def program_env(run_dir: Path, trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a measured process: the program's defaults, every
    state directory fresh under ``run_dir``, ``~/.cache/repro`` out of reach.

    ``trace_dir`` turns on the benchmark's call tracer in every Python
    process started with this environment (see ``inject/sitecustomize.py``).
    """
    env = {key: value for key, value in os.environ.items()
           if key not in PROGRAM_SWITCHES and not key.startswith("PERFBENCH_")}
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(BENCH_DIR / "inject"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["REPRO_SCENARIO_DIR"] = str(run_dir / "sink")
    env["REPRO_SERVICE_DIR"] = str(run_dir / "service")
    env["REPRO_TELEMETRY_DIR"] = str(run_dir / "telemetry")
    env["REPRO_WAREHOUSE_PATH"] = str(run_dir / "warehouse.db")
    env["XDG_CACHE_HOME"] = str(run_dir / "xdg-cache")
    return env


def fresh_dir(path: Path) -> Path:
    """``path``, emptied and re-created."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, engine: Optional[str]) -> Dict[str, object]:
    """Where a number came from: code version, host, toolchain, engine, seed."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engine": engine,
        "seed": seed,
        "problem_seed": problem_seed(seed),
        "held_out_seed": HELD_OUT_SEED,
    }


def rusage_peak_mb() -> float:
    """This process's peak resident set, in MiB (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_memory_mb(pid: int) -> Dict[str, float]:
    """``VmHWM`` (peak) and ``VmRSS`` (current) of a live process, in MiB."""
    values: Dict[str, float] = {}
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
