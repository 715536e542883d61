"""Instrumentation hook points: where the library writes into the registry.

Three families, mirroring the layers named in the metric names:

- ``repro_gpu_*``    — written by :class:`repro.gpu.device.Device` on every
  kernel launch, PCIe/device transfer and allocation;
- ``repro_solver_*`` — written once per solve by every solver's finish path
  (the same spot the trace collector's results are attached), copying the
  :class:`~repro.result.IterationStats` / :class:`~repro.result.TimingStats`
  the solver already produced;
- ``repro_batch_*``  — written by :func:`repro.batch.solve_batch` /
  ``solve_batch_chain`` from the schedule outcome;
- ``repro_serve_*``  — written by the :mod:`repro.serve` event loop
  (submissions, admission rejections, dispatches, completions, warm-start
  cache traffic, modeled-latency quantile gauges).  Serve modules may
  import metrics and spans **only** through this module (the architecture
  lint enforces it, mirroring the solver-backend rule).

One call per event: each batch and serve event (a priced batch, a
rejected, expired or completed job, a dispatch window) is one function
here, called once where the event happens.  It updates the registry when
metrics are on and builds the event's span tree when a ``repro.obs``
recorder is installed.

Every function is a no-op (one ``is None`` check per switch) while neither
a registry nor a recorder is installed, and none of them touches the
modeled clock, the cost models or any solver state — they read values the
existing bookkeeping computed, or recompute pure functions of them.  That
is what makes collection provably non-perturbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.metrics.registry import active, bucket_quantile
from repro.obs.context import active as _obs_active

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.batch.scheduler import LPTimeline, ScheduleOutcome
    from repro.gpu.device import TimelineEvent
    from repro.obs.attribution import AttributionReport
    from repro.obs.span import ObsRecorder, ObsRecording
    from repro.perfmodel.gpu_model import GpuCostModel
    from repro.perfmodel.ops import OpCost
    from repro.result import SolveResult
    from repro.serve.job import Job

#: Buckets for per-solve iteration-count histograms.
ITERATION_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Buckets for serving-layer modeled latencies (seconds).  Modeled solves
#: run from fractions of a millisecond (tiny LPs) to tens of seconds
#: (large batches queueing behind each other).
SERVE_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Quantile gauges the serving loop keeps up to date (p50/p95/p99).
SERVE_LATENCY_QUANTILES = (0.5, 0.95, 0.99)


# ---------------------------------------------------------------------------
# gpu.Device
# ---------------------------------------------------------------------------


def record_kernel_launch(
    name: str,
    seconds: float,
    cost: "OpCost",
    model: "GpuCostModel",
    block: int,
) -> None:
    """One kernel launch: time/launch/flop/byte totals by kernel name, plus
    modeled occupancy and coalescing efficiency from the cost model.  The
    occupancy is computed here, behind the registry check, so a launch
    with metrics off never pays for it."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_gpu_kernel_launches_total", "Kernel launches by kernel name.",
        labels=("kernel",),
    ).inc(kernel=name)
    reg.counter(
        "repro_gpu_kernel_seconds_total",
        "Modeled device seconds by kernel name.", labels=("kernel",),
    ).inc(seconds, kernel=name)
    reg.counter(
        "repro_gpu_kernel_flops_total", "Modeled FLOPs by kernel name.",
        labels=("kernel",),
    ).inc(cost.flops, kernel=name)
    reg.counter(
        "repro_gpu_kernel_bytes_total",
        "Modeled global-memory bytes moved, by kernel name.", labels=("kernel",),
    ).inc(cost.bytes_total, kernel=name)
    reg.histogram(
        "repro_gpu_kernel_occupancy",
        "Modeled device-fill factor per kernel launch (cost model).",
    ).observe(model.fill_factor(cost.threads, block))
    reg.histogram(
        "repro_gpu_kernel_coalesced_fraction",
        "Coalesced fraction of each launch's memory traffic (cost model).",
    ).observe(cost.coalesced_fraction)


def record_fused_launch(n_ops: int, saved_seconds: float) -> None:
    """One fused launch emitted by the plan lowerer: how many captured ops
    it folded into a single kernel and the launch-overhead seconds the
    fusion eliminated (modeled, relative to op-by-op execution)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_gpu_fused_launches_total",
        "Fused kernel launches emitted by the plan lowerer.",
    ).inc()
    reg.counter(
        "repro_gpu_fused_ops_total",
        "Captured ops folded into fused launches.",
    ).inc(n_ops)
    reg.counter(
        "repro_gpu_fusion_saved_seconds_total",
        "Modeled launch-overhead seconds eliminated by kernel fusion.",
    ).inc(saved_seconds)


def record_transfer(direction: str, nbytes: int, seconds: float) -> None:
    """One HtoD/DtoH transfer."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_gpu_transfer_bytes_total",
        "Bytes moved over PCIe by direction (htod/dtoh).",
        labels=("direction",),
    ).inc(nbytes, direction=direction)
    reg.counter(
        "repro_gpu_transfer_seconds_total",
        "Modeled transfer seconds by direction.", labels=("direction",),
    ).inc(seconds, direction=direction)
    reg.counter(
        "repro_gpu_transfers_total", "Transfer operations by direction.",
        labels=("direction",),
    ).inc(direction=direction)


def record_allocation(nbytes: int, bytes_in_use: int) -> None:
    """One device allocation; tracks live and peak footprint."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_gpu_allocations_total", "Device allocations (cudaMalloc calls)."
    ).inc()
    gauge = reg.gauge(
        "repro_gpu_bytes_in_use", "Live device memory right now, bytes."
    )
    gauge.set(bytes_in_use)
    reg.gauge(
        "repro_gpu_peak_bytes_in_use",
        "High-water mark of live device memory, bytes.",
    ).set_max(bytes_in_use)


def record_free(nbytes: int, bytes_in_use: int) -> None:
    """One device free."""
    reg = active()
    if reg is None:
        return
    reg.counter("repro_gpu_frees_total", "Device frees (cudaFree calls).").inc()
    reg.gauge(
        "repro_gpu_bytes_in_use", "Live device memory right now, bytes."
    ).set(bytes_in_use)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def record_solve(result: "SolveResult") -> None:
    """One finished solve: iteration/pivot/phase-seconds totals by solver.

    Called by every solver at the end of its finish path, with the fully
    populated :class:`~repro.result.SolveResult` — the numbers recorded
    here are exactly the ones the caller receives.
    """
    reg = active()
    if reg is None:
        return
    solver = result.solver or "unknown"
    stats = result.iterations
    reg.counter(
        "repro_solves_total", "Finished solves by solver and status.",
        labels=("solver", "status"),
    ).inc(solver=solver, status=result.status.value)
    iters = reg.counter(
        "repro_solver_iterations_total",
        "Simplex iterations by solver and phase.", labels=("solver", "phase"),
    )
    iters.inc(stats.phase1_iterations, solver=solver, phase="1")
    iters.inc(stats.phase2_iterations, solver=solver, phase="2")
    reg.counter(
        "repro_solver_degenerate_pivots_total",
        "Degenerate (zero-step) pivots by solver.", labels=("solver",),
    ).inc(stats.degenerate_steps, solver=solver)
    reg.counter(
        "repro_solver_bland_activations_total",
        "Hybrid-pricing Dantzig->Bland switches by solver.", labels=("solver",),
    ).inc(stats.bland_activations, solver=solver)
    reg.counter(
        "repro_solver_refactorizations_total",
        "Basis refactorizations by solver.", labels=("solver",),
    ).inc(stats.refactorizations, solver=solver)
    reg.counter(
        "repro_solver_modeled_seconds_total",
        "Modeled machine seconds by solver.", labels=("solver",),
    ).inc(result.timing.modeled_seconds, solver=solver)
    sections = reg.counter(
        "repro_solver_section_seconds_total",
        "Modeled seconds by solver and algorithm section "
        "(pricing/ftran/ratio/update/transfer/...).",
        labels=("solver", "section"),
    )
    for section, seconds in result.timing.kernel_breakdown.items():
        sections.inc(seconds, solver=solver, section=section)
    reg.histogram(
        "repro_solver_iterations_per_solve",
        "Distribution of total iterations per solve.", labels=("solver",),
        buckets=ITERATION_BUCKETS,
    ).observe(stats.total_iterations, solver=solver)
    if result.trace is not None:
        reg.counter(
            "repro_solver_ratio_test_ties_total",
            "Ratio-test ties recorded by traced solves.", labels=("solver",),
        ).inc(sum(r.ratio_ties for r in result.trace), solver=solver)
    # First-order (PDHG) extras: the basis-free solvers report restarts and
    # SpMV counts where the simplex solvers report pivots and refactors.
    if "restarts" in result.extra:
        reg.counter(
            "repro_solver_restarts_total",
            "First-order (PDHG) restarts by solver.", labels=("solver",),
        ).inc(result.extra["restarts"], solver=solver)
    if "spmv_count" in result.extra:
        reg.counter(
            "repro_solver_spmv_total",
            "Sparse matrix-vector products by solver (first-order methods).",
            labels=("solver",),
        ).inc(result.extra["spmv_count"], solver=solver)
    if "kkt_score" in result.extra:
        kkt = reg.gauge(
            "repro_solver_kkt_residual",
            "Terminal relative KKT residuals of the last first-order solve.",
            labels=("solver", "component"),
        )
        for component in ("primal", "dual", "gap", "score"):
            key = f"kkt_{component}"
            if key in result.extra:
                kkt.set(result.extra[key], solver=solver, component=component)


# ---------------------------------------------------------------------------
# batch scheduler
# ---------------------------------------------------------------------------


def record_batch(
    schedule: str,
    outcome: "ScheduleOutcome",
    timelines: Sequence["LPTimeline"],
) -> None:
    """One priced batch: queue depth, stream utilization, per-LP wall share,
    and the ``batch.schedule`` span with one ``batch.segment`` per LP on
    its stream lane, stretched to the makespan."""
    reg = active()
    if reg is not None:
        reg.counter(
            "repro_batch_batches_total", "Priced batches by schedule.",
            labels=("schedule",),
        ).inc(schedule=schedule)
        reg.counter(
            "repro_batch_lps_total", "LPs solved through the batch layer.",
            labels=("schedule",),
        ).inc(len(timelines), schedule=schedule)
        reg.gauge(
            "repro_batch_queue_depth", "LPs in the most recently priced batch."
        ).set(len(timelines))
        reg.counter(
            "repro_batch_makespan_seconds_total",
            "Modeled batch makespan seconds by schedule.", labels=("schedule",),
        ).inc(outcome.makespan_seconds, schedule=schedule)
        bounds = reg.gauge(
            "repro_batch_bound_seconds",
            "Per-resource lower bounds of the last batch makespan.",
            labels=("schedule", "resource"),
        )
        for resource, seconds in outcome.bounds.items():
            bounds.set(seconds, schedule=schedule, resource=resource)
        reg.gauge(
            "repro_batch_stream_utilization",
            "Fraction of stream capacity the last batch kept busy.",
            labels=("schedule",),
        ).set(outcome.stream_utilization, schedule=schedule)
        total = sum(tl.total_seconds for tl in timelines)
        if total > 0.0:
            share = reg.histogram(
                "repro_batch_lp_wall_share",
                "Per-LP share of the batch's sequential machine time.",
            )
            for tl in timelines:
                share.observe(tl.total_seconds / total)
    rec = _obs_active()
    if rec is None:
        return
    from repro.batch.scheduler import stream_lanes

    trace_id = rec.new_trace("batch")
    makespan = outcome.makespan_seconds
    n_streams = max(1, outcome.n_streams)
    root = rec.span(
        trace_id, "batch.schedule", 0.0, makespan,
        schedule=schedule, lps=len(timelines), streams=n_streams,
        binding=outcome.binding_resource, clock="batch",
    )
    slots, stretch = stream_lanes(timelines, n_streams, makespan)
    for tl, (lane, start, end) in zip(timelines, slots):
        rec.span(
            trace_id, "batch.segment", start * stretch, end * stretch,
            parent=root, lane=lane, lp=tl.index,
            kernels=tl.kernel_launches,
        )
    rec.finish_trace(trace_id, "batch", latency=makespan)


def record_chain_break(method: str) -> None:
    """One broken warm-start chain link: a non-optimal intermediate result
    forced the next solve (or the serve cache) to drop its basis."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_batch_chain_breaks_total",
        "Warm-start chains broken by a non-optimal intermediate result.",
        labels=("method",),
    ).inc(method=method)


# ---------------------------------------------------------------------------
# serving layer (repro.serve)
# ---------------------------------------------------------------------------
#
# A job's span tree lives in trace ``job-<id>`` of the recorder's current
# replay (:meth:`~repro.obs.span.ObsRecorder.job_trace`); the job's
# terminal event (rejected / expired / completed) records the whole tree.


def _begin_job_trace(
    rec: "ObsRecorder",
    job: "Job",
    t_end: float,
    queued_until: "float | None" = None,
) -> tuple[str, int]:
    """Begin a job's trace: the ``serve.job`` root up to ``t_end`` and the
    ``serve.submit`` mark, plus ``serve.admit`` and a ``queue.wait`` up to
    ``queued_until`` for a job that was admitted.  Returns the trace id
    and the root's span id."""
    trace_id = rec.job_trace(job.job_id)
    submit = job.submit_time
    root = rec.span(
        trace_id, "serve.job", submit, t_end,
        job_id=job.job_id, method=job.method, priority=job.priority,
        clock="serve",
    )
    rec.span(trace_id, "serve.submit", submit, submit, parent=root)
    if queued_until is not None:
        rec.span(trace_id, "serve.admit", submit, submit, parent=root)
        rec.span(trace_id, "queue.wait", submit, queued_until, parent=root)
    return trace_id, root


def record_job_submitted(priority: str) -> None:
    """One job submitted to the serving loop (before admission control)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_jobs_submitted_total", "Jobs submitted by priority.",
        labels=("priority",),
    ).inc(priority=priority)


def record_job_rejected(job: "Job") -> None:
    """One admission rejection (queue-full / memory / deadline)."""
    reg = active()
    if reg is not None:
        reg.counter(
            "repro_serve_jobs_rejected_total",
            "Admission-control rejections by reason.", labels=("reason",),
        ).inc(reason=job.reject_reason)
    rec = _obs_active()
    if rec is None:
        return
    t_end = job.finish_time
    trace_id, root = _begin_job_trace(rec, job, t_end)
    rec.span(
        trace_id, "serve.reject", t_end, t_end, parent=root,
        reason=job.reject_reason,
    )
    rec.finish_trace(trace_id, "rejected", latency=t_end - job.submit_time)


def record_job_expired(job: "Job") -> None:
    """One queued job whose deadline passed before it could be dispatched."""
    reg = active()
    if reg is not None:
        reg.counter(
            "repro_serve_jobs_expired_total",
            "Queued jobs dropped because their deadline passed.",
        ).inc()
    rec = _obs_active()
    if rec is None:
        return
    t_end = job.finish_time
    trace_id, root = _begin_job_trace(rec, job, t_end, queued_until=t_end)
    rec.span(trace_id, "serve.expire", t_end, t_end, parent=root)
    rec.finish_trace(trace_id, "expired", latency=t_end - job.submit_time)


def record_queue_depth(depth: int) -> None:
    """Queue depth after the last admission or dispatch."""
    reg = active()
    if reg is None:
        return
    reg.gauge(
        "repro_serve_queue_depth", "Jobs waiting in the admission queue."
    ).set(depth)
    reg.gauge(
        "repro_serve_queue_depth_peak",
        "High-water mark of the admission queue depth.",
    ).set_max(depth)


def record_serve_dispatch(
    device: str, t_start: float, outcome: "ScheduleOutcome", n_jobs: int
) -> None:
    """One dispatch window priced onto a device of the fleet (its span is
    a trace of its own, ``window-<k>``)."""
    makespan = outcome.makespan_seconds
    reg = active()
    if reg is not None:
        reg.counter(
            "repro_serve_dispatches_total", "Dispatch groups by device.",
            labels=("device",),
        ).inc(device=device)
        reg.counter(
            "repro_serve_dispatched_jobs_total", "Jobs dispatched by device.",
            labels=("device",),
        ).inc(n_jobs, device=device)
        reg.counter(
            "repro_serve_device_busy_seconds_total",
            "Modeled busy seconds by device.", labels=("device",),
        ).inc(makespan, device=device)
        reg.histogram(
            "repro_serve_dispatch_utilization",
            "Stream utilization of each dispatch group.",
        ).observe(outcome.stream_utilization)
    rec = _obs_active()
    if rec is None:
        return
    trace_id = rec.new_trace("window")
    root = rec.span(
        trace_id, "dispatch.window", t_start, t_start + makespan,
        device=device, jobs=n_jobs, clock="serve",
        binding=outcome.binding_resource,
    )
    for resource, seconds in outcome.bounds.items():
        rec.span(
            trace_id, f"bound.{resource}", t_start, t_start + seconds,
            parent=root,
        )
    rec.finish_trace(trace_id, "window", latency=makespan)


def record_device_utilization(device: str, utilization: float) -> None:
    """End-of-replay utilization of one device (busy / span)."""
    reg = active()
    if reg is None:
        return
    reg.gauge(
        "repro_serve_device_utilization",
        "Fraction of the replay span each device spent busy.",
        labels=("device",),
    ).set(utilization, device=device)


def record_job_completed(
    job: "Job",
    solve_ids: Sequence[str],
    events: Sequence["TimelineEvent"],
    launch_overhead: float,
    own_seconds: float,
    stretch: float,
) -> None:
    """One job that ran to completion (any solver status).

    The span tree carries the execute-slice breakdown attribution reads
    (transfer / launch / refactor seconds of ``events``, the job's device
    timeline).  ``own_seconds`` is the job's standalone timeline total and
    ``stretch`` the window's contention factor, so the execute slice opens
    at ``finish - own_seconds * stretch``, the accounting that placed the
    finish time, but never before ``dispatch_time``.
    """
    finish = job.finish_time
    reg = active()
    if reg is not None:
        reg.counter(
            "repro_serve_jobs_completed_total",
            "Completed jobs by solver status and warm-start origin.",
            labels=("status", "warm"),
        ).inc(
            status=job.result.status.value,
            warm="yes" if job.warm_started else "no",
        )
        reg.histogram(
            "repro_serve_latency_seconds",
            "Modeled submit-to-finish latency of completed jobs.",
            buckets=SERVE_LATENCY_BUCKETS,
        ).observe(finish - job.submit_time)
        update_serve_latency_quantiles()
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs.attribution import execute_breakdown

    trace_id, root = _begin_job_trace(
        rec, job, finish, queued_until=job.dispatch_time
    )
    # Rounding can put the slice start one ULP before dispatch; clamp so
    # placement never goes negative.
    exec_start = max(job.dispatch_time, finish - own_seconds * stretch)
    rec.span(
        trace_id, "placement", job.dispatch_time, exec_start, parent=root,
        device=job.device,
    )
    refactor_intervals = [
        (sp.t_start, sp.t_end)
        for solve_id in solve_ids
        for sp in rec.spans_of(solve_id)
        if sp.name == "engine.refactor"
    ]
    breakdown = execute_breakdown(events, launch_overhead, refactor_intervals)
    rec.span(
        trace_id, "device.execute", exec_start, finish, parent=root,
        device=job.device,
        own_seconds=own_seconds,
        stretch=stretch,
        warm_started=job.warm_started,
        solves=list(solve_ids),
        **breakdown,
    )
    missed = job.deadline is not None and finish > job.deadline
    rec.finish_trace(
        trace_id,
        "deadline-missed" if missed else "completed",
        latency=finish - job.submit_time,
    )


def record_cache_lookup(hit: bool) -> None:
    """One warm-start cache lookup at dispatch time."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_cache_lookups_total",
        "Warm-start cache lookups by outcome.", labels=("outcome",),
    ).inc(outcome="hit" if hit else "miss")


def record_cache_store(evicted: bool) -> None:
    """One basis stored in the warm-start cache (plus any LRU eviction)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_cache_stores_total", "Bases stored in the cache."
    ).inc()
    if evicted:
        reg.counter(
            "repro_serve_cache_evictions_total", "LRU evictions of bases."
        ).inc()


def record_cache_size(size: int) -> None:
    """Current number of cached bases."""
    reg = active()
    if reg is None:
        return
    reg.gauge(
        "repro_serve_cache_size", "Bases currently held by the cache."
    ).set(size)


def update_serve_latency_quantiles() -> None:
    """Re-derive the p50/p95/p99 modeled-latency gauges from the latency
    histogram's buckets (:func:`repro.metrics.bucket_quantile`), so the
    service's tail latency is readable straight off the exposition."""
    reg = active()
    if reg is None:
        return
    hist = reg.get("repro_serve_latency_seconds")
    if hist is None:
        return
    gauge = reg.gauge(
        "repro_serve_latency_quantile_seconds",
        "Bucket-estimated modeled-latency quantiles (p50/p95/p99).",
        labels=("q",),
    )
    for _labels, series in hist.series_items():
        for q in SERVE_LATENCY_QUANTILES:
            gauge.set(
                bucket_quantile(
                    hist.buckets, series.bucket_counts, series.count, q
                ),
                q=f"{q:g}",
            )


# ---------------------------------------------------------------------------
# span recording (repro.obs): request context and the read side
# ---------------------------------------------------------------------------
#
# Serve code may not import ``repro.obs`` (the architecture lint extends
# the metrics rule to it), so it reaches the recorder's request context and
# its recording through these functions, each one ``is None`` check while
# no recorder is installed.


def obs_begin_replay() -> None:
    """Open a serve replay: its job traces get ids unique within the
    recorder, and :func:`obs_collect` returns only its traces."""
    rec = _obs_active()
    if rec is not None:
        rec.begin_replay()


def obs_push_request(job: "Job") -> None:
    """Open a request context: engine solves begun before the matching
    :func:`obs_pop_request` are linked to this job's trace."""
    rec = _obs_active()
    if rec is not None:
        rec.push_request(rec.job_trace(job.job_id))


def obs_pop_request() -> list[str]:
    """Close the request context; returns the linked solve trace ids."""
    rec = _obs_active()
    if rec is None:
        return []
    return rec.pop_request()


def obs_collect() -> "ObsRecording | None":
    """The finished traces of the replay :func:`obs_begin_replay` opened
    last (``None`` when recording is off)."""
    rec = _obs_active()
    if rec is None:
        return None
    return rec.collect_replay()


def obs_attribution(recording: "ObsRecording") -> "AttributionReport":
    """Latency attribution over a recording (lazy ``repro.obs`` import so
    :meth:`repro.serve.service.ServeReport.attribution` stays lint-clean)."""
    from repro.obs.attribution import attribute

    return attribute(recording)
