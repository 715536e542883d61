"""Batching invariance: batched solves are bit-identical to solo solves.

The batch layer's contract (and this PR's acceptance criterion): running N
LPs through ``solve_batch`` — under either schedule — returns, per LP, the
*exact* status, objective and iteration counts that N independent ``solve()``
calls return, while the concurrent schedule's aggregate modeled time is
strictly below the sequential sum.  Batching changes the time accounting,
never the numerics.  The lockstep schedule (``batch_gemv=True``) keeps
the same contract, and its clock never exceeds the sequential sum.

The second half covers the *scheduler* itself: over arbitrary synthetic
timelines, the concurrent makespan must dominate every bound it reports,
dominate the largest single LP, never exceed the sequential makespan, and
pick its binding resource deterministically under ties.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import solve_batch
from repro.batch.scheduler import (
    ConcurrentSchedule,
    LPTimeline,
    SequentialSchedule,
)
from repro.gpu.device import TimelineEvent
from repro.lp.generators import random_dense_lp
from repro.perfmodel.presets import GTX280_PARAMS
from repro.solve import solve

BATCH_SIZE = 32


@pytest.fixture(scope="module")
def acceptance_workload():
    return [random_dense_lp(10, 15, seed=5000 + i) for i in range(BATCH_SIZE)]


@pytest.fixture(scope="module")
def solo_results(acceptance_workload):
    return [solve(lp, method="gpu-revised") for lp in acceptance_workload]


@pytest.mark.parametrize("schedule", ["sequential", "concurrent"])
def test_batch_of_32_matches_32_solo_solves(
    acceptance_workload, solo_results, schedule
):
    batch = solve_batch(
        acceptance_workload, method="gpu-revised", schedule=schedule
    )
    assert len(batch) == BATCH_SIZE
    for item, solo in zip(batch.items, solo_results):
        assert item.result.status is solo.status
        assert item.result.objective == solo.objective  # exact, not approx
        assert (
            item.result.iterations.phase1_iterations
            == solo.iterations.phase1_iterations
        )
        assert (
            item.result.iterations.phase2_iterations
            == solo.iterations.phase2_iterations
        )
        assert item.result.timing.modeled_seconds == solo.timing.modeled_seconds


def test_concurrent_strictly_below_sequential_sum(acceptance_workload):
    seq = solve_batch(
        acceptance_workload, method="gpu-revised", schedule="sequential"
    )
    conc = solve_batch(
        acceptance_workload, method="gpu-revised", schedule="concurrent"
    )
    # the sequential makespan IS the sum of the per-LP machine times
    assert seq.outcome.makespan_seconds == pytest.approx(
        seq.outcome.sequential_seconds
    )
    assert conc.outcome.makespan_seconds < seq.outcome.makespan_seconds
    assert conc.speedup_vs_sequential > 1.0


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_lps=st.integers(1, 8),
    m=st.integers(3, 12),
    n=st.integers(3, 12),
    seed=st.integers(0, 2**31),
    schedule=st.sampled_from(["sequential", "concurrent"]),
    method=st.sampled_from(["gpu-revised", "gpu-tableau", "revised"]),
)
def test_batching_invariance_random_families(n_lps, m, n, seed, schedule, method):
    """Any batch size, shape, method and schedule: answers never change."""
    lps = [random_dense_lp(m, n, seed=seed + i) for i in range(n_lps)]
    batch = solve_batch(lps, method=method, schedule=schedule)
    for item, lp in zip(batch.items, lps):
        solo = solve(lp, method=method)
        assert item.result.status is solo.status
        assert item.result.objective == solo.objective
        assert (
            item.result.iterations.total_iterations
            == solo.iterations.total_iterations
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_lps=st.integers(1, 6),
    m=st.integers(3, 12),
    n=st.integers(3, 12),
    seed=st.integers(0, 2**31),
    method=st.sampled_from(["gpu-revised", "gpu-tableau"]),
    fusion=st.booleans(),
)
def test_lockstep_never_slower_and_never_changes_answers(
    n_lps, m, n, seed, method, fusion
):
    """The lockstep program's clock never exceeds the LPs back to back,
    and every LP's result is bit-identical to its solo solve."""
    lps = [random_dense_lp(m, n, seed=seed + i) for i in range(n_lps)]
    batch = solve_batch(
        lps, method=method, schedule="concurrent", batch_gemv=True,
        fusion=fusion,
    )
    assert batch.outcome.makespan_seconds <= batch.sequential_seconds
    for item, lp in zip(batch.items, lps):
        solo = solve(lp, method=method, fusion=fusion)
        assert item.result.status is solo.status
        assert item.result.objective == solo.objective
        assert np.array_equal(item.result.x, solo.x)
        assert (
            item.result.iterations.total_iterations
            == solo.iterations.total_iterations
        )
        assert item.result.timing.modeled_seconds == solo.timing.modeled_seconds


# ---------------------------------------------------------------------------
# Scheduler bounds: properties over arbitrary synthetic timelines
# ---------------------------------------------------------------------------

# kernel seconds stay above the modeled launch overhead: the device model
# charges kernel_time = launch_overhead + max(t_compute, t_memory), so a
# real timeline can never contain a kernel shorter than the overhead —
# the launch-serialization bound relies on exactly that invariant.
_kernel_seconds = st.floats(
    GTX280_PARAMS.launch_overhead, 1e-2, allow_nan=False
)
_transfer_seconds = st.floats(0.0, 1e-2, allow_nan=False)
_threads = st.integers(1, 2 * GTX280_PARAMS.concurrent_threads)


@st.composite
def _gpu_timelines(draw):
    n_lps = draw(st.integers(1, 10))
    tls = []
    for i in range(n_lps):
        events = [
            TimelineEvent("htod", "transfer", draw(_transfer_seconds),
                          nbytes=1024)
        ]
        for _ in range(draw(st.integers(1, 5))):
            events.append(
                TimelineEvent("kernel", "k", draw(_kernel_seconds),
                              threads=draw(_threads))
            )
        events.append(
            TimelineEvent("dtoh", "transfer", draw(_transfer_seconds),
                          nbytes=1024)
        )
        tls.append(LPTimeline.from_events(i, events, GTX280_PARAMS))
    return tls


@settings(max_examples=200, deadline=None)
@given(
    tls=_gpu_timelines(),
    n_streams=st.integers(1, 12),
)
def test_concurrent_makespan_dominates_bounds(tls, n_streams):
    """The makespan is (a) >= every bound the plan reports, (b) >= the
    largest single LP, (c) <= the sequential makespan, and the binding
    resource is one of the reported bounds."""
    out = ConcurrentSchedule(n_streams=n_streams).plan(
        tls, params=GTX280_PARAMS
    )
    seq = SequentialSchedule().plan(tls)
    eps = 1e-12 + 1e-9 * out.makespan_seconds
    for name, bound in out.bounds.items():
        assert out.makespan_seconds >= bound - eps, (name, out.bounds)
    assert out.makespan_seconds >= max(tl.total_seconds for tl in tls) - eps
    assert out.makespan_seconds <= seq.makespan_seconds + eps
    assert out.binding_resource in out.bounds


@settings(max_examples=100, deadline=None)
@given(
    tls=_gpu_timelines(),
    n_streams=st.integers(1, 12),
)
def test_binding_resource_is_deterministic(tls, n_streams):
    """Replanning identical timelines always reports the same binding
    resource — ties between equal bounds break by declaration order, not
    by dict-iteration accidents."""
    sched = ConcurrentSchedule(n_streams=n_streams)
    first = sched.plan(tls, params=GTX280_PARAMS)
    for _ in range(3):
        again = sched.plan(list(tls), params=GTX280_PARAMS)
        assert again.binding_resource == first.binding_resource
        assert again.bounds == first.bounds
    # and the binding is the *first* maximal bound in declaration order
    best = max(first.bounds.values())
    assert first.binding_resource == next(
        k for k, v in first.bounds.items() if v == best
    )
