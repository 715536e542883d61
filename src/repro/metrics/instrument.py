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
  import metrics **only** through this module (the architecture lint
  enforces it, mirroring the solver-backend rule).

Every function is a no-op (one ``is None`` check) while no registry is
installed, and none of them touches the modeled clock, the cost models or
any solver state — they read values the existing bookkeeping computed, or
recompute pure functions of them.  That is what makes collection provably
non-perturbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.metrics.registry import active, bucket_quantile
from repro.obs.context import active as _obs_active

if TYPE_CHECKING:  # pragma: no cover - imports for type checkers only
    from repro.batch.scheduler import LPTimeline, ScheduleOutcome
    from repro.obs.attribution import AttributionReport
    from repro.obs.span import ObsRecording
    from repro.perfmodel.gpu_model import GpuCostModel
    from repro.perfmodel.ops import OpCost
    from repro.result import SolveResult

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
    """One priced batch: queue depth, stream utilization, per-LP wall share."""
    reg = active()
    if reg is None:
        return
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
    # Utilization of the stream set: the work's sequential time spread over
    # n_streams lanes of the makespan (1.0 = every lane busy end to end).
    denom = outcome.makespan_seconds * max(1, outcome.n_streams)
    utilization = outcome.sequential_seconds / denom if denom > 0 else 0.0
    reg.gauge(
        "repro_batch_stream_utilization",
        "Fraction of stream capacity the last batch kept busy.",
        labels=("schedule",),
    ).set(min(1.0, utilization), schedule=schedule)
    total = sum(tl.total_seconds for tl in timelines)
    if total > 0.0:
        share = reg.histogram(
            "repro_batch_lp_wall_share",
            "Per-LP share of the batch's sequential machine time.",
        )
        for tl in timelines:
            share.observe(tl.total_seconds / total)


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


def record_job_submitted(priority: str) -> None:
    """One job submitted to the serving loop (before admission control)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_jobs_submitted_total", "Jobs submitted by priority.",
        labels=("priority",),
    ).inc(priority=priority)


def record_job_rejected(reason: str) -> None:
    """One admission rejection (queue-full / memory / deadline)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_jobs_rejected_total",
        "Admission-control rejections by reason.", labels=("reason",),
    ).inc(reason=reason)


def record_job_expired() -> None:
    """One queued job whose deadline passed before it could be dispatched."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_jobs_expired_total",
        "Queued jobs dropped because their deadline passed.",
    ).inc()


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
    device: str, n_jobs: int, makespan_seconds: float, utilization: float
) -> None:
    """One dispatch group priced onto a device of the fleet."""
    reg = active()
    if reg is None:
        return
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
    ).inc(makespan_seconds, device=device)
    reg.histogram(
        "repro_serve_dispatch_utilization",
        "Stream utilization of each dispatch group.",
    ).observe(utilization)


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
    status: str, latency_seconds: float, warm_started: bool
) -> None:
    """One job that ran to completion (any solver status)."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_serve_jobs_completed_total",
        "Completed jobs by solver status and warm-start origin.",
        labels=("status", "warm"),
    ).inc(status=status, warm="yes" if warm_started else "no")
    reg.histogram(
        "repro_serve_latency_seconds",
        "Modeled submit-to-finish latency of completed jobs.",
        buckets=SERVE_LATENCY_BUCKETS,
    ).observe(latency_seconds)
    update_serve_latency_quantiles()


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
# span recording (repro.obs) — the serve/batch emission façade
# ---------------------------------------------------------------------------
#
# Serve and batch code may not import ``repro.obs`` (the architecture lint
# extends the metrics rule to it), so the span layer is reached through the
# thin forwards below.  Each one is a single ``is None`` check while no
# recorder is installed — the same zero-overhead contract as every metrics
# hook in this module — and the span-shaped work lives in
# :mod:`repro.obs.emit`, imported only once a recorder exists.


def obs_job_rejected(job: Any) -> None:
    """Span tree of one admission rejection (terminal, emitted once)."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    emit.emit_job_rejected(rec, job)


def obs_job_expired(job: Any) -> None:
    """Span tree of one queued job whose deadline lapsed (idempotent)."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    emit.emit_job_expired(rec, job)


def obs_job_executed(
    job: Any,
    solve_ids: Sequence[str],
    events: Sequence[Any],
    launch_overhead: float,
    own_seconds: float,
    stretch: float,
) -> None:
    """Span tree of one completed job, including the execute-slice
    breakdown attribution reads (transfer / launch / refactor seconds)."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    emit.emit_job_executed(
        rec, job, solve_ids, events, launch_overhead, own_seconds, stretch
    )


def obs_dispatch_window(
    device: str, t_start: float, outcome: "ScheduleOutcome", n_jobs: int
) -> None:
    """One dispatch window priced onto a fleet device."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    emit.emit_dispatch_window(rec, device, t_start, outcome, n_jobs)


def obs_batch_schedule(
    schedule: str,
    outcome: "ScheduleOutcome",
    timelines: Sequence["LPTimeline"],
) -> None:
    """One priced batch: schedule root + per-lane LP segments."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    emit.emit_batch_schedule(rec, schedule, outcome, timelines)


def obs_push_request(job: Any) -> None:
    """Open a request context: engine solves begun before the matching
    :func:`obs_pop_request` are linked to this job's trace."""
    rec = _obs_active()
    if rec is None:
        return
    from repro.obs import emit

    rec.push_request(emit.job_trace_id(job.job_id))


def obs_pop_request() -> list[str]:
    """Close the request context; returns the linked solve trace ids."""
    rec = _obs_active()
    if rec is None:
        return []
    return rec.pop_request()


def obs_collect() -> "ObsRecording | None":
    """Sample and return the active recorder's finished traces (``None``
    when recording is off)."""
    rec = _obs_active()
    if rec is None:
        return None
    return rec.collect()


def obs_attribution(recording: "ObsRecording") -> "AttributionReport":
    """Latency attribution over a recording (lazy ``repro.obs`` import so
    :meth:`repro.serve.service.ServeReport.attribution` stays lint-clean)."""
    from repro.obs.attribution import attribute

    return attribute(recording)


def record_obs_sampling(
    *,
    kept_traces: int,
    dropped_traces: int,
    kept_spans: int,
    dropped_spans: int,
) -> None:
    """Sampling decisions of one collection pass.  Pinned by the metrics
    regression gate so span-volume or sampling changes can't rot silently."""
    reg = active()
    if reg is None:
        return
    reg.counter(
        "repro_obs_traces_kept_total",
        "Request traces kept by the obs sampling policy.",
    ).inc(kept_traces)
    reg.counter(
        "repro_obs_traces_dropped_total",
        "Request traces dropped by the obs sampling policy.",
    ).inc(dropped_traces)
    reg.counter(
        "repro_obs_spans_kept_total",
        "Spans kept by the obs sampling policy.",
    ).inc(kept_spans)
    reg.counter(
        "repro_obs_spans_dropped_total",
        "Spans dropped by the obs sampling policy.",
    ).inc(dropped_spans)
