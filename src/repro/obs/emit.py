"""Span construction for the serving and batch layers.

These builders hold every piece of span-shaped knowledge about the serve
and batch domains — trace naming (``job-<id>``, ``window-<k>``,
``batch-<k>``), the per-job tree shape, and the execute-slice breakdown —
so the façade functions in :mod:`repro.metrics.instrument` stay one-line
forwards and the emitting layers (which may not import ``repro.obs``; the
architecture lint enforces it) never see a recorder.

Everything here runs **only when a recorder is installed**: the façade's
``active()`` check gates each call, so the heavy work (event
classification against refactor intervals, lane replays) costs nothing
when observation is off.  Jobs are duck-typed (``job_id`` / ``submit_time``
/ ``dispatch_time`` / ``finish_time`` / ...) to keep this module free of
serve imports.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.attribution import execute_breakdown
from repro.obs.span import ObsRecorder


def job_trace_id(job_id: int) -> str:
    return f"job-{job_id}"


def _job_root(rec: ObsRecorder, trace_id: str, job: Any, t_end: float) -> int:
    return rec.span(
        trace_id,
        "serve.job",
        job.submit_time,
        t_end,
        job_id=job.job_id,
        method=job.method,
        priority=job.priority,
        clock="serve",
    )


def emit_job_rejected(rec: ObsRecorder, job: Any) -> None:
    trace_id = job_trace_id(job.job_id)
    if rec.has_trace(trace_id):
        return
    t_end = job.finish_time if job.finish_time is not None else job.submit_time
    root = _job_root(rec, trace_id, job, t_end)
    rec.span(
        trace_id, "serve.submit", job.submit_time, job.submit_time, parent=root
    )
    rec.span(
        trace_id, "serve.reject", t_end, t_end, parent=root,
        reason=job.reject_reason,
    )
    rec.finish_trace(trace_id, "rejected", latency=t_end - job.submit_time)


def emit_job_expired(rec: ObsRecorder, job: Any) -> None:
    trace_id = job_trace_id(job.job_id)
    if rec.has_trace(trace_id):
        return
    t_end = job.finish_time if job.finish_time is not None else job.submit_time
    root = _job_root(rec, trace_id, job, t_end)
    rec.span(
        trace_id, "serve.submit", job.submit_time, job.submit_time, parent=root
    )
    rec.span(trace_id, "serve.admit", job.submit_time, job.submit_time, parent=root)
    rec.span(trace_id, "queue.wait", job.submit_time, t_end, parent=root)
    rec.span(trace_id, "serve.expire", t_end, t_end, parent=root)
    rec.finish_trace(trace_id, "expired", latency=t_end - job.submit_time)


def emit_job_executed(
    rec: ObsRecorder,
    job: Any,
    solve_ids: Sequence[str],
    events: Sequence[Any],
    launch_overhead: float,
    own_seconds: float,
    stretch: float,
) -> None:
    """The full lifecycle tree of one completed job.

    ``own_seconds`` is the job's standalone timeline total and ``stretch``
    the window's contention factor, so the execute slice opens at
    ``finish - own_seconds * stretch`` — exactly the accounting
    ``LPServer._run_window`` used to place the finish time — but never
    before ``dispatch_time``.
    """
    trace_id = job_trace_id(job.job_id)
    if rec.has_trace(trace_id):
        return
    finish = job.finish_time
    root = _job_root(rec, trace_id, job, finish)
    rec.span(
        trace_id, "serve.submit", job.submit_time, job.submit_time, parent=root
    )
    rec.span(trace_id, "serve.admit", job.submit_time, job.submit_time, parent=root)
    rec.span(
        trace_id, "queue.wait", job.submit_time, job.dispatch_time, parent=root
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
        warm_started=bool(job.warm_started),
        solves=list(solve_ids),
        **breakdown,
    )
    missed = job.deadline is not None and finish > job.deadline
    rec.finish_trace(
        trace_id,
        "deadline-missed" if missed else "completed",
        latency=finish - job.submit_time,
    )


def emit_dispatch_window(
    rec: ObsRecorder,
    device: str,
    t_start: float,
    outcome: Any,
    n_jobs: int,
) -> None:
    """One dispatch window priced onto a fleet device (its own trace)."""
    trace_id = rec.new_window_trace()
    makespan = float(outcome.makespan_seconds)
    root = rec.span(
        trace_id, "dispatch.window", t_start, t_start + makespan,
        device=device, jobs=n_jobs, clock="serve",
        binding=getattr(outcome, "binding_resource", None),
    )
    for resource, seconds in getattr(outcome, "bounds", {}).items():
        rec.span(
            trace_id, f"bound.{resource}", t_start, t_start + seconds,
            parent=root,
        )
    rec.finish_trace(trace_id, "window", latency=makespan)


def emit_batch_schedule(
    rec: ObsRecorder,
    schedule: str,
    outcome: Any,
    timelines: Sequence[Any],
) -> None:
    """One priced batch: the schedule root plus per-lane LP segments,
    replaying the round-robin lane assignment and contention stretch the
    scheduler's makespan implies (solve-order cumulative per lane)."""
    trace_id = rec.new_batch_trace()
    makespan = float(outcome.makespan_seconds)
    n_streams = max(1, int(getattr(outcome, "n_streams", 1)))
    root = rec.span(
        trace_id, "batch.schedule", 0.0, makespan,
        schedule=schedule, lps=len(timelines), streams=n_streams,
        binding=getattr(outcome, "binding_resource", None), clock="batch",
    )
    lane_cum = [0.0] * n_streams
    raw: list[tuple[Any, int, float]] = []
    for pos, tl in enumerate(timelines):
        lane = pos % n_streams
        raw.append((tl, lane, lane_cum[lane]))
        lane_cum[lane] += tl.total_seconds
    max_path = max(lane_cum) if lane_cum else 0.0
    stretch = makespan / max_path if max_path > 0.0 else 1.0
    for tl, lane, start in raw:
        rec.span(
            trace_id, "batch.segment",
            start * stretch, (start + tl.total_seconds) * stretch,
            parent=root, lane=lane, lp=tl.index,
            kernels=tl.kernel_launches,
        )
    rec.finish_trace(trace_id, "batch", latency=makespan)
