"""Batch schedules: how many LP solves share one simulated device.

The batch façade (:func:`repro.batch.solve_batch`) runs every LP of the
workload on **one shared** :class:`~repro.gpu.device.Device` with timeline
recording enabled, so after the functional solves it holds, per LP, the
exact sequence of kernel launches and PCIe transfers the solver issued
(:class:`~repro.gpu.device.TimelineEvent`).  The schedule then prices the
*aggregate* machine time of executing those per-LP event streams:

- :class:`SequentialSchedule` — LPs run back to back, one CUDA stream:
  the aggregate time is simply the sum of the per-LP device clocks.

- :class:`ConcurrentSchedule` — LPs are assigned round-robin to ``n_streams``
  streams and their launches interleave, the way the batched-LP literature
  overlaps many small simplex kernels that individually cannot fill the
  device (Gurung & Ray, arXiv:1802.08557 / arXiv:1609.08114).  The makespan
  is modeled as the *binding resource* of the interleaved execution — the
  maximum of four lower bounds, each a real hardware constraint:

  ========================= ==============================================
  bound                     constraint it models
  ========================= ==============================================
  ``copy-engine``           one PCIe copy engine: all HtoD/DtoH transfers
                            serialize, ``Σ transfer``
  ``compute-capacity``      the device has finite throughput: kernels
                            co-run only up to full occupancy,
                            ``Σ kernel·utilization / capacity``
  ``stream-critical-path``  events of one stream are dependency-ordered:
                            ``max over streams of Σ stream events``
  ``launch-serialization``  the host issues launches serially,
                            ``launches · launch_overhead``
  ========================= ==============================================

  ``utilization`` of a kernel is the fraction of the device's resident
  thread capacity its logical work size occupies (floored at the model's
  ``min_fill``): two kernels at 2% occupancy overlap almost perfectly, two
  at 100% do not overlap at all, which is exactly why batching pays off for
  small LPs and fades for large ones.  Transfers hide under kernel
  execution (GT200's async copy engine overlaps copy and compute), so the
  copy engine is one bound among the four rather than a term added to
  the others.

Concurrent *kernel* execution across streams is a Fermi-and-later ability
(on GT200 the same overlap is achieved by fusing the per-LP kernels into one
batched launch, as the cited papers do); the schedule is therefore labeled
*reconstructed* in EXPERIMENTS.md, like the other beyond-paper experiments.

- :class:`LockstepSchedule` — that GT200 answer: a *lockstep batched
  simplex*.  The LPs run as one program of steps; a step is the stretch of
  device work between two host transfers (where the host reads a pivot
  choice back or writes data in).  At each step the LPs whose step issues
  the same launches (kind, name, dtype, block, threads per event) form a
  group, and the group issues each launch *once* over all its members:
  one :class:`~repro.perfmodel.ops.OpCost` summing their flops, bytes and
  threads (:meth:`OpCost.stack`), one launch overhead, one transfer of
  their summed bytes.  Groups with different launches at the same step
  run one after another; an LP that has finished drops out.  Every merged
  event is priced by :func:`~repro.gpu.device.event_seconds`, the rule
  the device charges, so a one-LP batch reproduces the solo clock exactly
  and any gain comes from the cost model's device fill and the launches
  and transfer latencies no longer paid per LP.  The makespan is the clock
  of that sequential program, not a bound.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.errors import SolverError
from repro.gpu.device import TimelineEvent, event_seconds
from repro.perfmodel.gpu_model import GpuCostModel, GpuModelParams
from repro.perfmodel.ops import OpCost

#: Event kinds that occupy the PCIe copy engine; every other event is a
#: kernel (memsets included) and runs on the device itself.
_COPY_KINDS = frozenset({"htod", "dtoh"})


@dataclasses.dataclass(frozen=True)
class LPTimeline:
    """The machine-time footprint of one LP solve, ready for scheduling.

    ``busy_seconds`` is the utilization-weighted device time — the device-
    seconds of throughput the solve actually consumes, as opposed to
    ``device_seconds``, the time it *occupies* the device when running alone.
    """

    index: int
    kernel_launches: int
    transfer_seconds: float
    device_seconds: float
    busy_seconds: float
    total_seconds: float

    @staticmethod
    def from_events(
        index: int,
        events: Sequence[TimelineEvent],
        params: GpuModelParams,
    ) -> "LPTimeline":
        """Collapse one solve's device timeline into scheduling totals."""
        launches = 0
        transfer = 0.0
        device = 0.0
        busy = 0.0
        capacity = float(params.concurrent_threads)
        for ev in events:
            if ev.kind in _COPY_KINDS:
                transfer += ev.seconds
            else:
                device += ev.seconds
                launches += 1
                util = max(
                    params.min_fill,
                    min(1.0, max(ev.threads, 1) / capacity),
                )
                busy += ev.seconds * util
        return LPTimeline(
            index=index,
            kernel_launches=launches,
            transfer_seconds=transfer,
            device_seconds=device,
            busy_seconds=busy,
            total_seconds=transfer + device,
        )

    @staticmethod
    def from_modeled_seconds(index: int, seconds: float) -> "LPTimeline":
        """A single-block timeline for solvers without a device timeline
        (the CPU baselines): one fully-utilizing unit of work."""
        return LPTimeline(
            index=index,
            kernel_launches=0,
            transfer_seconds=0.0,
            device_seconds=seconds,
            busy_seconds=seconds,
            total_seconds=seconds,
        )


@dataclasses.dataclass(frozen=True)
class ScheduleOutcome:
    """Aggregate machine time of one scheduled batch."""

    schedule: str
    makespan_seconds: float
    sequential_seconds: float
    transfer_seconds: float
    n_streams: int
    #: Name of the resource whose lower bound the makespan equals.
    binding_resource: str
    #: Every modeled bound, for reporting (name -> seconds).
    bounds: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Launches the lockstep schedule merged away: the members' solo
    #: launches minus the launches it issues (0 for the other schedules).
    batched_launches_saved: int = 0

    @property
    def speedup_vs_sequential(self) -> float:
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.sequential_seconds / self.makespan_seconds


class SequentialSchedule:
    """Back-to-back execution on one stream (the baseline schedule)."""

    name = "sequential"

    def plan(
        self,
        timelines: Sequence[LPTimeline],
        params: GpuModelParams | None = None,
    ) -> ScheduleOutcome:
        total = sum(tl.total_seconds for tl in timelines)
        transfer = sum(tl.transfer_seconds for tl in timelines)
        return ScheduleOutcome(
            schedule=self.name,
            makespan_seconds=total,
            sequential_seconds=total,
            transfer_seconds=transfer,
            n_streams=1,
            binding_resource="stream-critical-path",
            bounds={"stream-critical-path": total},
        )


class ConcurrentSchedule:
    """Stream-interleaved execution of the per-LP kernel launch streams.

    Parameters
    ----------
    n_streams:
        Streams (GPU) or workers (CPU baselines) to spread the batch over;
        ``None`` picks ``min(len(batch), DEFAULT_STREAMS)``.
    """

    name = "concurrent"

    DEFAULT_STREAMS = 8

    def __init__(self, n_streams: int | None = None):
        if n_streams is not None and n_streams < 1:
            raise SolverError("n_streams must be >= 1")
        self.n_streams = n_streams

    def plan(
        self,
        timelines: Sequence[LPTimeline],
        params: GpuModelParams | None = None,
    ) -> ScheduleOutcome:
        """Price the interleaved execution of ``timelines``.

        ``params`` carries the device model for GPU batches (launch
        overhead; kernel utilizations are already fractions of the whole
        device).  ``params=None`` means a CPU multicore batch: timelines
        are fully-utilizing blocks and the compute capacity is the worker
        count, i.e. the stream count.
        """
        streams = self.n_streams or min(len(timelines), self.DEFAULT_STREAMS)
        streams = max(1, min(streams, len(timelines)))

        stream_path = [0.0] * streams
        for tl in timelines:  # round-robin assignment, launch order = index
            stream_path[tl.index % streams] += tl.total_seconds

        transfer = sum(tl.transfer_seconds for tl in timelines)
        sequential = sum(tl.total_seconds for tl in timelines)
        capacity = 1.0 if params is not None else float(streams)
        busy = sum(tl.busy_seconds for tl in timelines) / capacity
        launch_overhead = params.launch_overhead if params is not None else 0.0
        launches = sum(tl.kernel_launches for tl in timelines)

        bounds = {
            "copy-engine": transfer,
            "compute-capacity": busy,
            "stream-critical-path": max(stream_path),
            "launch-serialization": launches * launch_overhead,
        }
        makespan = max(bounds.values())
        # Ties are broken by declaration order of the bounds dict (copy
        # engine first), so binding_resource is deterministic for equal
        # bounds — max() returns the first maximal key.
        binding = max(bounds, key=lambda k: bounds[k])
        return ScheduleOutcome(
            schedule=self.name,
            makespan_seconds=makespan,
            sequential_seconds=sequential,
            transfer_seconds=transfer,
            n_streams=streams,
            binding_resource=binding,
            bounds=bounds,
        )


class LockstepSchedule:
    """One lockstep batched program over the LPs' recorded device events.

    See the module docstring.  :meth:`add` folds one LP's
    :class:`~repro.gpu.device.TimelineEvent` list, as the device recorded
    it (kernel events carry their cost, dtype and block), into the
    program: step t of the LP joins the group of step-t members with the
    same signature, whose merged launches accumulate its costs and bytes.
    The events themselves are not kept, so the program's size grows with
    the number of distinct groups, not with the batch.  :meth:`plan` prices
    the program; nothing is re-run or re-recorded, so the members' solves
    and their kernel metrics stand as they were.
    """

    name = "lockstep"

    def __init__(self, model: GpuCostModel):
        self.model = model
        #: Per step t: signature -> per position [merged cost, summed bytes].
        self._program: list[dict[tuple, list[list]]] = []
        self._sequential = 0.0
        self._solo_launches = 0

    def add(self, events: Sequence[TimelineEvent]) -> None:
        """Fold the next LP's device events into the program."""
        for t, step in enumerate(_steps(events)):
            if t == len(self._program):
                self._program.append({})
            signature = _signature(step)
            merged = self._program[t].get(signature)
            if merged is None:
                self._program[t][signature] = [
                    [ev.cost, ev.nbytes] for ev in step
                ]
                continue
            for slot, ev in zip(merged, step):
                if ev.cost is not None:
                    slot[0] = OpCost.stack(slot[0], ev.cost)
                slot[1] += ev.nbytes
        clock = 0.0  # added in issue order, as the device adds them
        for ev in events:
            clock += ev.seconds
            if ev.kind == "kernel":
                self._solo_launches += 1
        self._sequential += clock

    def plan(self) -> ScheduleOutcome:
        """Run the program: groups of a step in order of their first
        member, each merged launch or transfer priced by
        :func:`~repro.gpu.device.event_seconds` on one clock."""
        clock = 0.0
        transfer = 0.0
        launches = 0
        for groups in self._program:
            for signature, merged in groups.items():
                for (kind, name, dtype, block, _), (cost, nbytes) in zip(
                    signature, merged
                ):
                    seconds = event_seconds(
                        self.model, kind, name, nbytes=nbytes, cost=cost,
                        dtype=dtype, block=block,
                    )
                    clock += seconds
                    if kind in _COPY_KINDS:
                        transfer += seconds
                    elif kind == "kernel":
                        launches += 1
        return ScheduleOutcome(
            schedule=self.name,
            makespan_seconds=clock,
            sequential_seconds=self._sequential,
            transfer_seconds=transfer,
            n_streams=1,
            binding_resource="stream-critical-path",
            bounds={"stream-critical-path": clock},
            batched_launches_saved=self._solo_launches - launches,
        )


def _steps(events: Sequence[TimelineEvent]) -> list[list[TimelineEvent]]:
    """Cut one LP's events into steps, each ending at a host transfer."""
    steps: list[list[TimelineEvent]] = []
    cur: list[TimelineEvent] = []
    for ev in events:
        cur.append(ev)
        if ev.kind in _COPY_KINDS:
            steps.append(cur)
            cur = []
    if cur:
        steps.append(cur)
    return steps


def _signature(step: Sequence[TimelineEvent]) -> tuple:
    """What a lockstep kernel needs to match to run a step for several LPs
    at once: per event its kind, name, dtype, block and thread count."""
    return tuple(
        (ev.kind, ev.name, ev.dtype, ev.block, ev.threads) for ev in step
    )


def make_schedule(
    name: str, n_streams: int | None = None
) -> "SequentialSchedule | ConcurrentSchedule":
    """Instantiate a schedule by option name (``solve_batch``'s ``schedule``)."""
    if name == "sequential":
        return SequentialSchedule()
    if name == "concurrent":
        return ConcurrentSchedule(n_streams=n_streams)
    raise SolverError(
        f"unknown schedule {name!r}; available: ['concurrent', 'sequential']"
    )
