"""Batched multi-LP solving: many LPs as one workload on one device.

The single-LP path (:func:`repro.solve`) pays the whole machine setup —
context creation, a dedicated simulated device — per solve.  A service that
answers millions of small LP requests (pricing sweeps, per-scenario
re-planning, per-user allocation) amortizes that: this package solves a
*batch* of LPs against **one shared simulated device** and prices the
aggregate machine time under a chosen schedule, following the batched-LP
line of work (Gurung & Ray, arXiv:1802.08557 and arXiv:1609.08114).

- :func:`solve_batch` — solve N independent LPs with any registered method;
  ``schedule="sequential"`` runs them back to back, ``"concurrent"``
  interleaves the per-LP kernel launch streams to model GPU stream overlap,
  and ``"concurrent"`` with ``batch_gemv=True`` prices the batch as one
  lockstep batched simplex that issues each shared launch once for all
  LPs (see :mod:`repro.batch.scheduler` for the makespan models).
- :func:`solve_batch_chain` — a re-optimization stream: each LP warm-starts
  from the previous optimal basis (perturbed-rhs scenario sweeps).

Per-LP results are **bit-identical** to independent ``solve()`` calls —
batching changes the aggregate time accounting, never the numerics.

Quickstart::

    from repro import random_dense_lp, solve_batch

    lps = [random_dense_lp(64, 96, seed=s) for s in range(16)]
    batch = solve_batch(lps, method="gpu-revised", schedule="concurrent")
    print(batch.summary())          # aggregate time, throughput, bound
    print(batch[0].result.objective)
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.batch.results import BatchItem, BatchResult
from repro.batch.scheduler import (
    ConcurrentSchedule,
    LockstepSchedule,
    LPTimeline,
    ScheduleOutcome,
    SequentialSchedule,
    make_schedule,
)
from repro.engine.registry import device_methods, warm_start_methods
from repro.errors import SolverError
from repro.gpu.device import Device
from repro.lp.problem import LPProblem
from repro.metrics.instrument import record_batch, record_chain_break
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS
from repro.simplex.options import SolverOptions

__all__ = [
    "solve_batch",
    "solve_batch_chain",
    "BatchItem",
    "BatchResult",
    "LPTimeline",
    "ScheduleOutcome",
    "SequentialSchedule",
    "ConcurrentSchedule",
    "LockstepSchedule",
    "make_schedule",
    "DEFAULT_CONTEXT_SETUP_SECONDS",
    "GPU_METHODS",
    "WARM_START_METHODS",
]

#: Methods that run on the shared simulated device (and therefore produce a
#: kernel/transfer timeline the concurrent schedule can interleave).
#: Derived from the :mod:`repro.engine.registry` capability flags.
GPU_METHODS = device_methods()

#: Methods that accept ``initial_basis`` (usable in :func:`solve_batch_chain`).
#: Derived from the :mod:`repro.engine.registry` capability flags.
WARM_START_METHODS = warm_start_methods()

#: One-time GPU context/setup cost charged once per batch (and once per LP
#: by the solo-loop comparator in the B1 benchmark).  2009-era CUDA context
#: creation (cuInit + cuCtxCreate + first-touch allocator) measured in the
#: tens of milliseconds; 50 ms is the round number contemporary reports
#: quote.  Override via ``solve_batch(..., context_seconds=...)``.
DEFAULT_CONTEXT_SETUP_SECONDS = 0.05


def _check_problems(problems: Sequence[LPProblem]) -> list[LPProblem]:
    problems = list(problems)
    if not problems:
        raise SolverError("solve_batch needs at least one problem")
    for i, p in enumerate(problems):
        if not isinstance(p, LPProblem):
            raise TypeError(
                f"batch item {i}: expected LPProblem, got {type(p).__name__}"
            )
    return problems


def _check_method(method: str) -> None:
    from repro.solve import available_methods

    if method not in available_methods():
        from repro.errors import UnknownMethodError

        raise UnknownMethodError(
            f"unknown method {method!r}; available: {available_methods()}"
        )


def _item_name(problem: LPProblem, index: int) -> str:
    return problem.name or f"lp-{index}"


def solve_batch(
    problems: Sequence[LPProblem],
    method: str = "gpu-revised",
    schedule: str = "sequential",
    options: SolverOptions | None = None,
    n_streams: int | None = None,
    batch_gemv: bool = False,
    device: Device | None = None,
    gpu_params: GpuModelParams = GTX280_PARAMS,
    context_seconds: float | None = None,
    **option_overrides,
) -> BatchResult:
    """Solve many independent LPs as one batch.

    Parameters
    ----------
    problems:
        The LPs of the workload, solved in order.
    method:
        Any :func:`repro.solve` method.  The ``gpu-*`` methods share one
        simulated device across the whole batch and record per-LP kernel
        timelines; CPU methods are batched as opaque blocks of modeled time.
    schedule:
        ``"sequential"`` (back to back) or ``"concurrent"`` (stream
        interleaving; see :class:`~repro.batch.scheduler.ConcurrentSchedule`).
    n_streams:
        Streams (GPU) / workers (CPU) for the concurrent schedule.
    batch_gemv:
        Concurrent GPU batches only: price the batch as a lockstep batched
        simplex (:class:`~repro.batch.scheduler.LockstepSchedule`), which
        issues each launch the LPs share at a step once over all of them.
        Raises :class:`SolverError` with ``n_streams``, with
        ``schedule="sequential"`` or with a host method.  Per-LP results
        are unchanged.
    device:
        Share an existing simulated device (it is reset per solve).  A new
        one with ``gpu_params`` is created otherwise.
    context_seconds:
        One-time setup cost charged to the batch; defaults to
        :data:`DEFAULT_CONTEXT_SETUP_SECONDS` for GPU methods, 0 for CPU.
    option_overrides:
        Forwarded to every ``solve()`` call (``pricing=...``, ``dtype=...``).

    Returns a :class:`~repro.batch.results.BatchResult` whose per-LP results
    are identical to independent ``solve()`` calls.
    """
    from repro.solve import solve

    problems = _check_problems(problems)
    _check_method(method)
    sched = make_schedule(schedule, n_streams=n_streams)
    on_gpu = method in GPU_METHODS
    if batch_gemv:
        if schedule != "concurrent":
            raise SolverError("batch_gemv needs schedule='concurrent'")
        if n_streams is not None:
            raise SolverError(
                "batch_gemv runs the batch in lockstep on one stream; "
                "drop n_streams"
            )
        if not on_gpu:
            raise SolverError(
                f"batch_gemv needs a device method, not {method!r}"
            )

    dev: Device | None = None
    if on_gpu:
        dev = device if device is not None else Device(gpu_params)
        dev.record_timeline()

    lockstep = LockstepSchedule(dev.model) if batch_gemv else None
    t_wall = time.perf_counter()
    items: list[BatchItem] = []
    timelines: list[LPTimeline] = []
    for i, problem in enumerate(problems):
        result = solve(
            problem, method=method, options=options, device=dev,
            **option_overrides,
        )
        items.append(BatchItem(index=i, name=_item_name(problem, i), result=result))
        if on_gpu:
            events = list(dev.timeline or ())
            timelines.append(LPTimeline.from_events(i, events, dev.params))
            if lockstep is not None:
                lockstep.add(events)
        else:
            timelines.append(
                LPTimeline.from_modeled_seconds(
                    i, result.timing.modeled_seconds
                )
            )
    wall = time.perf_counter() - t_wall

    if lockstep is not None:
        outcome = lockstep.plan()
    else:
        outcome = sched.plan(timelines, params=dev.params if on_gpu else None)
    record_batch(outcome.schedule, outcome, timelines)
    if context_seconds is None:
        context_seconds = DEFAULT_CONTEXT_SETUP_SECONDS if on_gpu else 0.0
    return BatchResult(
        method=method,
        schedule=outcome.schedule,
        items=items,
        outcome=outcome,
        context_seconds=context_seconds,
        wall_seconds=wall,
    )


def solve_batch_chain(
    problems: Sequence[LPProblem],
    method: str = "revised",
    options: SolverOptions | None = None,
    device: Device | None = None,
    gpu_params: GpuModelParams = GTX280_PARAMS,
    context_seconds: float | None = None,
    **option_overrides,
) -> BatchResult:
    """Solve a *chain* of related LPs, warm-starting each from the last.

    The workload model is a re-optimization stream: the same LP perturbed
    step by step (new rhs, drifting costs), where the previous optimal basis
    is an excellent starting point.  Each solve after the first passes the
    preceding optimal basis as ``initial_basis``; solvers fall back to a
    cold start on their own when the hint is singular or infeasible, so the
    chain never changes a result's correctness, only its pivot count.

    The chain is dependency-ordered, hence always priced sequentially
    (``schedule="concurrent"`` would break the basis hand-off).  ``method``
    must support warm starts — one of ``sorted(WARM_START_METHODS)``.
    """
    from repro.solve import solve

    problems = _check_problems(problems)
    _check_method(method)
    if method not in WARM_START_METHODS:
        raise SolverError(
            f"method {method!r} does not support warm starts; "
            f"chain methods: {sorted(WARM_START_METHODS)}"
        )
    on_gpu = method in GPU_METHODS

    dev: Device | None = None
    if on_gpu:
        dev = device if device is not None else Device(gpu_params)
        dev.record_timeline()

    t_wall = time.perf_counter()
    items: list[BatchItem] = []
    timelines: list[LPTimeline] = []
    basis = None
    for i, problem in enumerate(problems):
        result = solve(
            problem, method=method, options=options, device=dev,
            initial_basis=basis, **option_overrides,
        )
        # A non-optimal intermediate result breaks the chain: there is no
        # basis to hand to the next LP, which silently cold-starts.  Flag
        # it per item and count it, so re-optimization sweeps (and the
        # serving layer's warm-start cache, which checks the same flag)
        # can see the warm-start loss instead of just a pivot-count bump.
        chain_broken = not result.is_optimal
        if chain_broken:
            record_chain_break(method)
        items.append(
            BatchItem(
                index=i,
                name=_item_name(problem, i),
                result=result,
                warm_started=basis is not None,
                chain_broken=chain_broken,
            )
        )
        if on_gpu:
            timelines.append(
                LPTimeline.from_events(i, list(dev.timeline or ()), dev.params)
            )
        else:
            timelines.append(
                LPTimeline.from_modeled_seconds(
                    i, result.timing.modeled_seconds
                )
            )
        basis = result.extra.get("basis") if result.is_optimal else None
    wall = time.perf_counter() - t_wall

    outcome = SequentialSchedule().plan(timelines)
    record_batch("chain", outcome, timelines)
    if context_seconds is None:
        context_seconds = DEFAULT_CONTEXT_SETUP_SECONDS if on_gpu else 0.0
    return BatchResult(
        method=method,
        schedule="chain",
        items=items,
        outcome=outcome,
        context_seconds=context_seconds,
        wall_seconds=wall,
    )
