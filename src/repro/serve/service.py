"""The serving loop: an event-driven LP-solving service on a device fleet.

:class:`LPServer` closes the gap between :func:`repro.batch.solve_batch`
(one batch, one device, then exit) and the production story the paper's
thesis implies: a long-lived service that keeps a *fleet* of devices fed
from a stream of concurrent LP submissions.

Simulated-clock semantics
-------------------------
The server runs on the library's modeled-time axis, not the wall clock.
Submissions carry an arrival time; :meth:`LPServer.run` drains an event
heap (arrivals, device-free events) in time order, and every latency it
reports is modeled seconds — the same units as every makespan in the
library, so serving results compose with the batch and solver experiments.
Solves execute functionally at dispatch time (results are bit-identical to
solo ``solve()`` calls); only the *accounting* of when they start and
finish is simulated.

The pipeline per event:

1. **Admission** — a bounded priority queue sheds load when full; jobs
   whose modeled memory footprint fits no device, or whose deadline is
   provably unmeetable given the fleet's backlog and the makespan
   predictor's estimate, are rejected up front.
2. **Placement** — each idle device greedily fills a dispatch window from
   the queue: strict priority order, bin-packed by modeled footprint
   against the device's global memory, capped at the device's stream
   count.
3. **Execution** — the window's solves run on the device, their
   :class:`~repro.batch.scheduler.LPTimeline`\\ s are priced as one group by
   :class:`~repro.batch.scheduler.ConcurrentSchedule` (the same
   binding-resource model as ``repro.batch``), and per-job finish times
   spread along each stream's critical path, stretched when another
   resource binds the group.
4. **Warm starts** — before solving, the job's structural fingerprint is
   looked up in the :class:`~repro.serve.cache.WarmStartCache`; optimal
   bases are cached after solving.  A non-optimal result breaks the chain
   (``chain_broken``, the same flag ``solve_batch_chain`` records) and is
   never cached.

Every step is observable through ``repro.metrics`` when collection is on:
queue depth, admission rejections, per-device utilization, cache traffic,
and p50/p95/p99 modeled latency derived from the latency histogram.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Sequence

import numpy as np

from repro.batch.scheduler import ConcurrentSchedule, LPTimeline
from repro.engine.registry import device_methods, warm_start_methods
from repro.errors import SolverError
from repro.lp.problem import LPProblem
from repro.metrics.instrument import (
    obs_attribution,
    obs_collect,
    obs_dispatch_window,
    obs_job_executed,
    obs_job_expired,
    obs_job_rejected,
    obs_pop_request,
    obs_push_request,
    record_chain_break,
    record_device_utilization,
    record_job_completed,
    record_job_rejected,
    record_job_submitted,
    record_serve_dispatch,
)
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS
from repro.serve.cache import WarmStartCache
from repro.serve.fleet import (
    DeviceWorker,
    MakespanPredictor,
    estimate_footprint_bytes,
    make_fleet,
)
from repro.serve.job import Job, JobState, PRIORITY_NORMAL, priority_name
from repro.serve.queue import AdmissionQueue


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`LPServer`."""

    n_devices: int = 1
    #: Concurrent streams per device (the dispatch-window width).
    n_streams: int = 4
    method: str = "gpu-revised"
    max_queue_depth: int = 64
    cache_capacity: int = 128
    gpu_params: GpuModelParams = GTX280_PARAMS
    dtype: type = np.float64
    #: Kernel-fusion lowering of every job's solve (``SolverOptions.fusion``,
    #: on by default; ``False`` is the op-by-op ablation baseline).
    fusion: bool = True


@dataclasses.dataclass
class ServeReport:
    """Outcome of one replay: every job plus the fleet-level accounting."""

    config: ServeConfig
    jobs: list[Job]
    devices: list[DeviceWorker]
    cache: WarmStartCache
    #: End-to-end modeled span: first arrival to last device going idle.
    span_seconds: float
    #: Span recording of the replay (``repro.obs``), when a recorder was
    #: installed around :meth:`LPServer.run`; ``None`` otherwise.
    obs_recording: "object | None" = None

    @property
    def completed(self) -> list[Job]:
        return [j for j in self.jobs if j.state is JobState.COMPLETED]

    @property
    def rejected(self) -> list[Job]:
        return [j for j in self.jobs if j.state is JobState.REJECTED]

    @property
    def expired(self) -> list[Job]:
        return [j for j in self.jobs if j.state is JobState.EXPIRED]

    @property
    def all_optimal(self) -> bool:
        done = self.completed
        return bool(done) and all(j.is_optimal for j in done)

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def sequential_seconds(self) -> float:
        """Back-to-back modeled time of the completed solves — the
        1-device 1-stream yardstick fleet speedups are quoted against."""
        return sum(
            j.result.timing.modeled_seconds
            for j in self.completed
            if j.result is not None
        )

    @property
    def speedup_vs_sequential(self) -> float:
        if self.span_seconds <= 0.0:
            return 1.0
        return self.sequential_seconds / self.span_seconds

    def latencies(self) -> list[float]:
        """Completed jobs' modeled latencies, submission order."""
        return [
            j.latency_seconds
            for j in self.jobs
            if j.state is JobState.COMPLETED and j.latency_seconds is not None
        ]

    def latency_quantile(self, q: float) -> float:
        """Exact q-quantile over completed jobs' modeled latencies (the
        histogram-estimated twin lives in the metrics exposition)."""
        lat = self.latencies()
        if not lat:
            return float("nan")
        return float(np.quantile(np.asarray(lat), q))

    def device_utilization(self) -> dict[str, float]:
        return {
            dev.name: dev.utilization(self.span_seconds)
            for dev in self.devices
        }

    def attribution(self):
        """Latency attribution over this replay's span recording: per-job /
        per-method / fleet-wide queue-wait, placement, transfer,
        launch-overhead, refactorization and compute buckets (an
        :class:`~repro.obs.attribution.AttributionReport`).  Requires a
        span recorder installed around :meth:`LPServer.run` —
        ``repro.obs.enable()`` or ``python -m repro explain``."""
        if self.obs_recording is None:
            raise SolverError(
                "no span recording attached to this report: enable span "
                "recording (repro.obs.enable() / obs.observing()) around "
                "the replay, or use `python -m repro explain`"
            )
        return obs_attribution(self.obs_recording)

    def _quantiles_ms(self) -> str:
        """The p50/p95/p99 tail rendered in ms — ``n/a`` when no job
        completed (an all-rejected or all-expired trace has no latencies
        to take a quantile of; ``np.quantile`` of nothing is no number)."""
        if not self.latencies():
            return "n/a"
        return (
            f"{self.latency_quantile(0.5) * 1e3:.2f}/"
            f"{self.latency_quantile(0.95) * 1e3:.2f}/"
            f"{self.latency_quantile(0.99) * 1e3:.2f}ms"
        )

    def summary(self) -> str:
        done, rej, exp = self.completed, self.rejected, self.expired
        return (
            f"served {len(done)}/{len(self.jobs)} jobs "
            f"[{self.config.method}, {len(self.devices)} device(s) "
            f"x{self.config.n_streams} streams]: "
            f"{len(rej)} rejected, {len(exp)} expired, "
            f"span={self.span_seconds * 1e3:.3f}ms "
            f"({self.speedup_vs_sequential:.2f}x vs sequential), "
            f"p50/p95/p99={self._quantiles_ms()}, "
            f"{self.cache.hits} cache hits"
        )

    def render(self) -> str:
        """Multi-line report: per-device rows, cache line, summary."""
        from repro.bench.tables import Table

        t = Table(
            ["device", "kind", "dispatches", "jobs", "busy ms", "util %"]
        )
        for dev in self.devices:
            t.add_row(
                dev.name,
                ("gpu" if dev.on_gpu else "cpu") + f" x{dev.n_streams}",
                dev.dispatches,
                dev.jobs_done,
                dev.busy_seconds * 1e3,
                100.0 * dev.utilization(self.span_seconds),
            )
        lines = [t.render(), self.cache.summary(), self.summary()]
        return "\n".join(lines)


class LPServer:
    """An asynchronous (event-driven, simulated-clock) LP-solving service.

    Usage::

        server = LPServer(ServeConfig(n_devices=4))
        for i, lp in enumerate(lps):
            server.submit(lp, at=i * 1e-3, priority=PRIORITY_NORMAL)
        report = server.run()

    ``submit`` only enqueues an arrival event; all solving happens inside
    :meth:`run`, which drains events in simulated-time order.  A server can
    be reused: ``run`` returns when all events are drained, and later
    submissions (``at`` >= the current clock) start a new drain.
    """

    def __init__(self, config: ServeConfig | None = None, **overrides):
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        from repro.solve import available_methods

        if config.method not in available_methods():
            from repro.errors import UnknownMethodError

            raise UnknownMethodError(
                f"unknown method {config.method!r}; "
                f"available: {available_methods()}"
            )
        self.config = config
        self.on_gpu = config.method in device_methods()
        self.warm_startable = config.method in warm_start_methods()
        self.fleet = make_fleet(
            config.n_devices,
            params=config.gpu_params,
            n_streams=config.n_streams,
            on_gpu=self.on_gpu,
        )
        self.queue = AdmissionQueue(max_depth=config.max_queue_depth)
        self.cache = WarmStartCache(capacity=config.cache_capacity)
        self.predictor = MakespanPredictor()
        self.clock = 0.0
        self.jobs: list[Job] = []
        self._events: list[tuple[float, int, int, Job | DeviceWorker | None]] = []
        self._seq = 0
        self._max_capacity = max(dev.mem_capacity for dev in self.fleet)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        problem: LPProblem,
        *,
        at: float | None = None,
        priority: int = PRIORITY_NORMAL,
        timeout: float | None = None,
    ) -> Job:
        """Schedule one LP for solving.

        ``at`` is the arrival time on the simulated clock (defaults to
        "now"); ``timeout`` is a relative deadline in modeled seconds —
        the job is rejected or expired rather than finished after
        ``at + timeout``.  Returns the :class:`Job`, whose fields fill in
        as the replay progresses.
        """
        arrival = self.clock if at is None else float(at)
        if arrival < self.clock:
            raise SolverError(
                f"arrival time {arrival} lies in the past "
                f"(clock is at {self.clock})"
            )
        if timeout is not None and timeout <= 0.0:
            raise SolverError("timeout must be positive")
        job = Job(
            job_id=len(self.jobs),
            problem=problem,
            method=self.config.method,
            priority=priority,
            submit_time=arrival,
            deadline=None if timeout is None else arrival + timeout,
            fingerprint=problem.fingerprint(),
            footprint_bytes=estimate_footprint_bytes(
                problem, self.config.method, self.config.dtype
            ),
        )
        self.jobs.append(job)
        self._push_event(arrival, 0, job)
        return job

    # -- the event loop ----------------------------------------------------

    def run(self) -> ServeReport:
        """Drain all scheduled events and return the replay report."""
        while self._events:
            time, _, kind, payload = heapq.heappop(self._events)
            self.clock = max(self.clock, time)
            if kind == 0:  # arrival
                self._admit(payload)
            # kind == 1 (device-free) only advances the clock: the worker's
            # idleness is derived from busy_until <= clock.
            self._dispatch_idle()
        span = max(
            [self.clock] + [dev.busy_until for dev in self.fleet]
        )
        for dev in self.fleet:
            record_device_utilization(dev.name, dev.utilization(span))
        for job in self.jobs:
            if job.state is JobState.EXPIRED:
                obs_job_expired(job)  # no-op when off / already emitted
        return ServeReport(
            config=self.config,
            jobs=list(self.jobs),
            devices=list(self.fleet),
            cache=self.cache,
            span_seconds=span,
            obs_recording=obs_collect(),
        )

    def _push_event(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    # -- admission ---------------------------------------------------------

    def _admit(self, job: Job) -> None:
        record_job_submitted(priority_name(job.priority))
        if job.footprint_bytes > self._max_capacity:
            self._reject(job, "memory")
            return
        if self.queue.full:
            self._reject(job, "queue-full")
            return
        if job.deadline is not None:
            # Optimistic feasibility: even if the job ran next on the
            # earliest-free device, would it meet its deadline?  The
            # predictor contributes once it has seen this size bucket.
            earliest = min(dev.busy_until for dev in self.fleet)
            start = max(self.clock, earliest)
            predicted = self.predictor.predict(job.problem, job.method)
            if start > job.deadline or start + predicted > job.deadline:
                self._reject(job, "deadline")
                return
        self.queue.push(job)

    def _reject(self, job: Job, reason: str) -> None:
        job.state = JobState.REJECTED
        job.reject_reason = reason
        job.finish_time = self.clock
        record_job_rejected(reason)
        obs_job_rejected(job)

    # -- placement and execution -------------------------------------------

    def _dispatch_idle(self) -> None:
        # Work-conserving greedy placement: idle devices (earliest-free
        # first, then declaration order) each fill a window from the queue.
        for dev in sorted(self.fleet, key=lambda d: (d.busy_until, d.name)):
            if not dev.idle_at(self.clock):
                continue
            while True:
                window = self._fill_window(dev)
                if not window:
                    break
                self._run_window(dev, window)
                if not dev.idle_at(self.clock):
                    break

    def _fill_window(self, dev: DeviceWorker) -> list[Job]:
        """Greedy bin-packing of queued jobs into one dispatch window:
        strict priority order, capped at the stream count and the modeled
        memory budget."""
        window: list[Job] = []
        mem = 0
        self.queue.expire_stale(self.clock)
        while len(window) < dev.n_streams and len(self.queue):
            head = self.queue.peek()
            if mem + head.footprint_bytes > dev.mem_capacity:
                break  # memory window full (job fits a bigger device later)
            job = self.queue.pop()
            window.append(job)
            mem += job.footprint_bytes
            self.queue.expire_stale(self.clock)
        return window

    def _run_window(self, dev: DeviceWorker, window: list[Job]) -> None:
        from repro.solve import solve

        now = self.clock
        timelines: list[LPTimeline] = []
        raw_events: list[list] = []
        solve_links: list[list[str]] = []
        for pos, job in enumerate(window):
            job.state = JobState.RUNNING
            job.device = dev.name
            job.dispatch_time = now
            basis = None
            if self.warm_startable:
                basis = self.cache.get(job.fingerprint)
                job.warm_started = basis is not None
            kwargs = {}
            if dev.device is not None:
                kwargs["device"] = dev.device
            obs_push_request(job)
            result = solve(
                job.problem,
                method=job.method,
                dtype=self.config.dtype,
                fusion=self.config.fusion,
                initial_basis=basis,
                **kwargs,
            )
            solve_links.append(obs_pop_request())
            job.result = result
            if dev.device is not None:
                events = list(dev.device.timeline or ())
                timeline = LPTimeline.from_events(pos, events, dev.params)
            else:
                events = []
                timeline = LPTimeline.from_modeled_seconds(
                    pos, result.timing.modeled_seconds
                )
            raw_events.append(events)
            timelines.append(timeline)
            self.predictor.observe(job.problem, job.method, timeline.total_seconds)
            if self.warm_startable:
                if result.is_optimal and result.extra.get("basis") is not None:
                    self.cache.put(job.fingerprint, result.extra["basis"])
                elif not result.is_optimal:
                    # The chain is broken: nothing to cache, and any job
                    # counting on this one's basis cold-starts — the same
                    # condition solve_batch_chain flags per item.
                    job.chain_broken = True
                    record_chain_break(job.method)

        streams = min(len(window), dev.n_streams)
        outcome = ConcurrentSchedule(n_streams=streams).plan(
            timelines, params=dev.params if self.on_gpu else None
        )
        makespan = outcome.makespan_seconds

        # Per-job finish times: each stream lane is dependency-ordered, so
        # a job finishes at its lane's cumulative time — stretched uniformly
        # when another resource (copy engine, compute capacity, launch
        # serialization) binds the group and slows every lane down.
        lane_cum = [0.0] * streams
        offsets: list[float] = []
        for pos, tl in enumerate(timelines):
            lane = pos % streams
            lane_cum[lane] += tl.total_seconds
            offsets.append(lane_cum[lane])
        max_path = max(lane_cum)
        stretch = makespan / max_path if max_path > 0.0 else 1.0
        launch_overhead = dev.params.launch_overhead if self.on_gpu else 0.0
        for pos, (job, offset) in enumerate(zip(window, offsets)):
            job.finish_time = now + offset * stretch
            job.state = JobState.COMPLETED
            assert job.result is not None
            record_job_completed(
                job.result.status.value,
                job.latency_seconds or 0.0,
                job.warm_started,
            )
            obs_job_executed(
                job,
                solve_links[pos],
                raw_events[pos],
                launch_overhead,
                timelines[pos].total_seconds,
                stretch,
            )

        dev.busy_until = now + makespan
        dev.busy_seconds += makespan
        dev.jobs_done += len(window)
        dev.dispatches += 1
        denom = makespan * streams
        utilization = (
            outcome.sequential_seconds / denom if denom > 0.0 else 0.0
        )
        record_serve_dispatch(
            dev.name, len(window), makespan, min(1.0, utilization)
        )
        obs_dispatch_window(dev.name, now, outcome, len(window))
        if makespan > 0.0:
            self._push_event(dev.busy_until, 1, dev)


def serve_trace(
    entries: "Sequence",
    config: ServeConfig | None = None,
    **overrides,
) -> ServeReport:
    """Replay a trace (:func:`repro.serve.traces.synthetic_trace` entries or
    any ``(problem, at, priority, timeout)`` records) through a fresh
    server and return its report."""
    server = LPServer(config, **overrides)
    for entry in entries:
        server.submit(
            entry.problem,
            at=entry.at,
            priority=entry.priority,
            timeout=entry.timeout,
        )
    return server.run()
