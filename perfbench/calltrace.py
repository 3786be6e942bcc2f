"""Per-layer call tracing from outside the program.

The traced run wraps the public functions each layer is entered through --
nothing inside ``src/`` records anything for the benchmark.  For every
wrapped function the tracer keeps the call count, the total time and the
self time: total minus the time spent in wrapped functions it called (on
the same thread).  A few wrappers also tally what the call returned (warp
instructions simulated, cache hits).

:func:`install` patches the function where it is defined *and* every
``repro`` module that imported it by name, so it must run after those
modules are imported; it imports them itself.  In a process started by the
benchmark with ``PERFBENCH_TRACE_DIR`` set, ``inject/sitecustomize.py``
installs the tracer at start-up and :func:`dump` writes its totals to
``<dir>/<pid>.json`` at exit, so fleet workers and the service process are
traced the same way as the benchmark's own child process.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class CallStats:
    """Count, total and self time of one traced function (plus tallies)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.tallies: Dict[str, float] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tally(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.tallies[name] = self.tallies.get(name, 0) + amount

    def _record(self, key: str, calls: int, total: float, own: float) -> None:
        with self._lock:
            self.calls[key] = self.calls.get(key, 0) + calls
            self.total[key] = self.total.get(key, 0.0) + total
            self.self_time[key] = self.self_time.get(key, 0.0) + own

    def timed(self, key: str, call: Callable[[], object], calls: int = 1):
        """Run ``call()`` as one traced interval of ``key``.

        A re-entrant interval (``key`` already open on this thread) runs
        untimed, so recursion is not counted twice.
        """
        stack = self._stack()
        if any(frame[0] == key for frame in stack):
            return call()
        frame = [key, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._record(key, calls, elapsed, elapsed - frame[1])

    def wrap(self, key: str, func: Callable,
             on_result: Optional[Callable[["CallStats", object], None]] = None
             ) -> Callable:
        """``func`` traced under ``key``; generator functions are timed
        across every resumption, not just their creation."""
        stats = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                return stats._timed_generator(key, func(*args, **kwargs))
            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = stats.timed(key, lambda: func(*args, **kwargs))
            if on_result is not None:
                on_result(stats, result)
            return result
        return wrapper

    def _timed_generator(self, key: str, generator):
        calls = 1
        try:
            while True:
                try:
                    item = self.timed(key, generator.__next__, calls=calls)
                except StopIteration:
                    return
                calls = 0
                yield item
        finally:
            generator.close()

    def snapshot(self) -> Dict[str, Dict]:
        with self._lock:
            return {"calls": dict(self.calls), "total": dict(self.total),
                    "self": dict(self.self_time), "tallies": dict(self.tallies)}


def merge(snapshots: List[Dict[str, Dict]]) -> Dict[str, Dict]:
    """Sum several processes' snapshots."""
    merged: Dict[str, Dict] = {"calls": {}, "total": {}, "self": {}, "tallies": {}}
    for snapshot in snapshots:
        for part, values in merged.items():
            for key, value in snapshot.get(part, {}).items():
                values[key] = values.get(key, 0) + value
    return merged


# ----------------------------------------------------------------------
def _count_winst(stats: CallStats, result) -> None:
    stats.tally("sim.winst", result.counters.warp_instructions)


def _count_hits(stats: CallStats, found) -> None:
    stats.tally("cache.lookups", len(found))
    stats.tally("cache.hits", sum(1 for item in found if item is not None))


#: ``(key, module, attribute path, result hook)``: the layer boundaries.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("sim.run_call", "repro.sim.gpu", "Gpu.run_call", _count_winst),
    ("kernels.build_program", "repro.kernels.wrapper", "build_workgroup_program", None),
    ("workloads.make_problem", "repro.workloads.problems", "make_problem", None),
    ("runtime.launch", "repro.runtime.launcher", "launch_kernel", None),
    ("runtime.dispatch_plan", "repro.runtime.dispatcher", "build_dispatch_plan", None),
    ("core.eq1", "repro.core.optimizer", "optimal_local_size", None),
    ("campaign.execute_job", "repro.campaign.worker", "execute_job", None),
    ("campaign.hash", "repro.campaign.spec", "JobSpec.content_hash", None),
    ("campaign.cache_load", "repro.campaign.cache", "ResultCache.__init__", None),
    ("campaign.cache_get_many", "repro.campaign.cache", "ResultCache.get_many",
     _count_hits),
    ("campaign.cache_put", "repro.campaign.cache", "ResultCache.put", None),
    ("campaign.runner", "repro.campaign.runner", "CampaignRunner.run", None),
    ("campaign.local_execute", "repro.campaign.executor", "LocalExecutor.execute", None),
    ("dist.spawn", "repro.campaign.dist.coordinator",
     "DistributedExecutor.spawn_local_workers", None),
    ("dist.wait", "repro.campaign.dist.coordinator",
     "DistributedExecutor.wait_for_workers", None),
    ("dist.execute", "repro.campaign.dist.coordinator", "DistributedExecutor.execute", None),
    ("dist.close", "repro.campaign.dist.coordinator", "DistributedExecutor.close", None),
    ("scenarios.plan", "repro.scenarios.planner", "Planner.plan", None),
    ("scenarios.sink_append", "repro.scenarios.sink", "ResultSink.append", None),
    ("scenarios.report", "repro.scenarios.planner", "ScenarioRun.report", None),
    ("io.fsync", "os", "fsync", None),
)

#: Imported before patching, so every by-name import is already bound.
PRELOAD = ("repro.cli", "repro.campaign.dist.coordinator",
           "repro.campaign.dist.worker", "repro.campaign.dist.cache_server",
           "repro.service.routes", "repro.service.worker", "repro.service.server")


def install(stats: CallStats) -> None:
    """Wrap every target (see :data:`TARGETS`)."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for key, module_name, path, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attribute = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        original = owner.__dict__[attribute] if outer else getattr(owner, attribute)
        wrapped = stats.wrap(key, original, hook)
        setattr(owner, attribute, wrapped)
        if outer:
            continue
        # Module-level function: rebind it wherever it was imported by name.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for symbol, value in list(vars(module).items()):
                if value is original:
                    setattr(module, symbol, wrapped)


def dump(stats: CallStats, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{os.getpid()}.json"
    path.write_text(json.dumps(stats.snapshot()))


def load_dir(directory: Path) -> Dict[str, Dict]:
    """The merged snapshots every traced process wrote to ``directory``."""
    return merge([json.loads(path.read_text())
                  for path in sorted(directory.glob("*.json"))])


def install_from_env() -> None:
    """Install and arrange the exit dump when ``PERFBENCH_TRACE_DIR`` is set
    (once per process, from ``sitecustomize``)."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if directory:
        stats = CallStats()
        install(stats)
        atexit.register(dump, stats, Path(directory))
