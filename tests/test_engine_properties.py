"""Property-based tests for scheduler and Eq.-1 invariants plus issue order.

Three families of invariants backing the fast engine's correctness argument:

* **Eq. 1** (the runtime mapping): the chosen lws fills the machine in a
  single kernel call (the workgroup count never exceeds hardware capacity),
  collapses to an exact divisor of ``gws`` whenever ``hp`` divides ``gws``,
  and the launch geometry clamp keeps ``lws <= gws``.
* **Schedulers**: every policy's priority order is a permutation of the warp
  slots, round-robin rotates one past the issuer, and the fast engine's
  pre-filtered rotation tables reproduce ``RoundRobinScheduler`` exactly.
* **Issue order under event-skipping**: for random launch geometries the fast
  engine issues the same instructions, in the same order, at the same cycles
  as the reference engine (checked through full traces).
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.core.optimizer import (hardware_parallelism, kernel_calls_for,
                                  optimal_local_size, workgroups_for)
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.runtime.ndrange import NDRange
from repro.sim.config import ArchConfig
from repro.sim.scheduler import (GreedyThenOldestScheduler, RoundRobinScheduler,
                                 make_scheduler)
from repro.trace.tracer import Tracer
from repro.workloads.problems import make_problem

machine_shapes = st.tuples(
    st.integers(min_value=1, max_value=16),   # cores
    st.integers(min_value=1, max_value=16),   # warps per core
    st.integers(min_value=1, max_value=32),   # threads per warp
)


# ----------------------------------------------------------------------
# Eq. 1 invariants
# ----------------------------------------------------------------------
@settings(max_examples=200)
@given(gws=st.integers(min_value=1, max_value=10**7), shape=machine_shapes)
def test_eq1_lws_fills_machine_in_one_call(gws, shape):
    cores, warps, threads = shape
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    hp = hardware_parallelism(config)
    lws = optimal_local_size(gws, config)

    assert lws >= 1
    # Never exceeds machine capacity: the workgroups fit the hardware lanes
    # of a single kernel call.
    assert workgroups_for(gws, lws) <= hp
    assert kernel_calls_for(gws, lws, config) == 1


@settings(max_examples=200)
@given(multiple=st.integers(min_value=1, max_value=4096), shape=machine_shapes)
def test_eq1_divides_gws_exactly_when_hp_divides_gws(multiple, shape):
    cores, warps, threads = shape
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    hp = hardware_parallelism(config)
    gws = multiple * hp
    lws = optimal_local_size(gws, config)
    assert lws == multiple
    assert gws % lws == 0                      # lws divides gws
    assert workgroups_for(gws, lws) == hp      # exactly one group per lane


@settings(max_examples=200)
@given(gws=st.integers(min_value=1, max_value=10**6), shape=machine_shapes)
def test_eq1_lws_never_exceeds_problem_after_clamp(gws, shape):
    cores, warps, threads = shape
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    ndrange = NDRange(gws, optimal_local_size(gws, config))
    assert 1 <= ndrange.local_size <= gws
    assert ndrange.num_workgroups == math.ceil(gws / ndrange.local_size)


# ----------------------------------------------------------------------
# scheduler invariants
# ----------------------------------------------------------------------
@settings(max_examples=100)
@given(num_warps=st.integers(min_value=1, max_value=32),
       issues=st.lists(st.integers(min_value=0, max_value=63), max_size=50),
       policy=st.sampled_from(["rr", "gto"]))
def test_priority_order_is_always_a_permutation(num_warps, issues, policy):
    scheduler = make_scheduler(policy, num_warps)
    for raw in issues:
        order = scheduler.priority_order()
        assert sorted(order) == list(range(num_warps))
        scheduler.issued(raw % num_warps)
    assert sorted(scheduler.priority_order()) == list(range(num_warps))


@settings(max_examples=100)
@given(num_warps=st.integers(min_value=1, max_value=32),
       issuer=st.integers(min_value=0, max_value=63))
def test_round_robin_rotates_one_past_the_issuer(num_warps, issuer):
    scheduler = RoundRobinScheduler(num_warps)
    scheduler.issued(issuer % num_warps)
    order = scheduler.priority_order()
    assert order[0] == (issuer + 1) % num_warps
    assert order == [(order[0] + offset) % num_warps for offset in range(num_warps)]


@settings(max_examples=100)
@given(num_warps=st.integers(min_value=2, max_value=32),
       first=st.integers(min_value=0, max_value=63),
       second=st.integers(min_value=0, max_value=63))
def test_gto_prioritizes_current_then_oldest(num_warps, first, second):
    scheduler = GreedyThenOldestScheduler(num_warps)
    scheduler.issued(first % num_warps)
    scheduler.issued(second % num_warps)
    order = scheduler.priority_order()
    assert order[0] == second % num_warps          # greedy: stay on the issuer
    if first % num_warps != second % num_warps:
        assert order[-1] == first % num_warps      # most recently displaced is last


@settings(max_examples=60)
@given(num_warps=st.integers(min_value=1, max_value=16),
       attached=st.integers(min_value=1, max_value=16),
       start=st.integers(min_value=0, max_value=15))
def test_fast_engine_rotation_tables_match_round_robin(num_warps, attached, start):
    """The pre-filtered rotation tables are RoundRobinScheduler minus the
    out-of-range indices -- exactly what the reference scan skips."""
    attached = min(attached, num_warps)
    start = start % num_warps
    scheduler = RoundRobinScheduler(num_warps)
    scheduler._next = start
    expected = [i for i in scheduler.priority_order() if i < attached]
    table = [index for offset in range(num_warps)
             if (index := (start + offset) % num_warps) < attached]
    assert table == expected


# ----------------------------------------------------------------------
# event-skipping never reorders warp issue (random geometries)
# ----------------------------------------------------------------------
@settings(max_examples=12)
@given(shape=st.tuples(st.integers(min_value=1, max_value=3),
                       st.integers(min_value=1, max_value=4),
                       st.integers(min_value=2, max_value=8)),
       lws=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
       problem_name=st.sampled_from(["vecadd", "saxpy", "relu"]))
def test_event_skipping_issue_order_matches_reference(shape, lws, problem_name):
    cores, warps, threads = shape
    config = ArchConfig(cores=cores, warps_per_core=warps, threads_per_warp=threads)
    problem = make_problem(problem_name, scale="smoke", seed=0)
    traces = {}
    for engine in ("reference", "fast"):
        tracer = Tracer(max_events=500_000)
        device = Device(config, tracer=tracer, engine=engine)
        result = launch_kernel(device, problem.kernel, problem.arguments,
                               problem.global_size, local_size=lws)
        assert not tracer.truncated
        traces[engine] = ([dataclasses.astuple(event) for event in tracer.events],
                          result.cycles)
    assert traces["fast"] == traces["reference"]
