"""Benchmark E7 -- the telemetry overhead gate.

The telemetry layer promises a near-zero-cost disabled path: every recorder
entry point returns immediately when ``$REPRO_TELEMETRY`` is unset, so an
uninstrumented user pays (almost) nothing for the instrumentation baked into
the engines, the campaign runner and the sink.  This benchmark turns that
promise into a gate:

* the ``figure2`` scenario is run through the planner with the recorder
  disabled (the default) and timed,
* the same run is repeated with every recorder entry point wrapped by a
  call counter, giving the exact number of disabled-path calls it makes,
* a microbenchmark prices one disabled call (span enter/exit, counter bump,
  histogram observation -- loop overhead included, so the price is an
  overestimate),
* the product ``calls x price`` must stay under ``OVERHEAD_BUDGET`` (2%) of
  the disabled wall-clock.

The enabled path is also timed for the report, but not gated -- recording
real spans and metrics is allowed to cost what it costs.

Results land in ``benchmarks/results/telemetry.md``.
"""

import os
import time

import pytest

from repro.campaign import CampaignRunner
from repro.scenarios import REGISTRY
from repro.telemetry.recorder import RECORDER, TELEMETRY_ENV

from benchmarks.conftest import sweep_result, write_result

KERNELS = ("vecadd", "relu")

#: Disabled-path instrumentation may cost at most this fraction of the run.
OVERHEAD_BUDGET = 0.02

#: Recorder entry points reachable from instrumented code.
ENTRY_POINTS = ("span", "record_span", "count", "gauge", "observe")


def _run():
    return sweep_result(REGISTRY.get("figure2"), KERNELS, runner=CampaignRunner())


def _count_disabled_calls():
    """Run the scenario once counting every recorder entry-point call.

    The recorder stays disabled, so guarded sites (``if RECORDER.enabled:``)
    skip their calls exactly as they would in production -- the count is the
    true number of no-op calls the disabled path executes.
    """
    calls = [0]
    originals = {name: getattr(RECORDER, name) for name in ENTRY_POINTS}

    def _wrap(original):
        def wrapped(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)
        return wrapped

    for name, original in originals.items():
        setattr(RECORDER, name, _wrap(original))
    try:
        _run()
    finally:
        for name, original in originals.items():
            setattr(RECORDER, name, original)
    return calls[0]


def _disabled_call_price(iterations=200_000):
    """Seconds per disabled recorder call (loop overhead included)."""
    span, count, observe = RECORDER.span, RECORDER.count, RECORDER.observe
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
        count("bench.noop")
        observe("bench.noop", 0.0)
    return (time.perf_counter() - started) / (3 * iterations)


@pytest.mark.benchmark(group="telemetry")
def test_telemetry_disabled_overhead_gate(benchmark):
    assert not RECORDER.enabled, "benchmark requires the default (disabled) recorder"

    # benchmark entry: the disabled run -- the number every non-telemetry
    # user experiences.
    disabled = benchmark.pedantic(_run, rounds=1, iterations=1, warmup_rounds=0)
    disabled_seconds = benchmark.stats.stats.mean

    calls = _count_disabled_calls()
    price = _disabled_call_price()
    overhead_seconds = calls * price
    overhead = overhead_seconds / disabled_seconds if disabled_seconds else 0.0

    # the enabled path, for the report only.
    os.environ[TELEMETRY_ENV] = "1"
    RECORDER.configure_from_env()
    RECORDER.reset()
    try:
        started = time.perf_counter()
        enabled = _run()
        enabled_seconds = time.perf_counter() - started
    finally:
        os.environ.pop(TELEMETRY_ENV, None)
        RECORDER.configure_from_env()
        RECORDER.reset()
    assert ([r.as_dict() for r in enabled.records]
            == [r.as_dict() for r in disabled.records]), \
        "telemetry must not change campaign records"

    benchmark.extra_info["disabled_seconds"] = round(disabled_seconds, 3)
    benchmark.extra_info["enabled_seconds"] = round(enabled_seconds, 3)
    benchmark.extra_info["recorder_calls"] = calls
    benchmark.extra_info["call_price_ns"] = round(price * 1e9, 1)
    benchmark.extra_info["disabled_overhead_pct"] = round(overhead * 100, 4)

    write_result("telemetry.md", "\n".join([
        "# Telemetry: disabled-path overhead gate (figure-2 grid)",
        "",
        f"jobs                    : {len(disabled.records)}",
        f"disabled run            : {disabled_seconds:.3f} s",
        f"enabled run             : {enabled_seconds:.3f} s",
        f"recorder calls (no-op)  : {calls}",
        f"price per disabled call : {price * 1e9:.0f} ns",
        f"estimated overhead      : {overhead * 100:.4f} % "
        f"(budget {OVERHEAD_BUDGET * 100:.0f} %)",
    ]))
    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled telemetry path costs {overhead:.2%} of the run "
        f"(budget {OVERHEAD_BUDGET:.0%})")
