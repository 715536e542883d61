"""The simulated SIMT device: clock, allocator, launch path, statistics.

A :class:`Device` owns

- a **simulated clock** advanced by the analytic cost model on every kernel
  launch and memory transfer (this is the "GPU time" the benchmarks report);
- an **allocator** tracking live device memory against the modeled card's
  global-memory capacity;
- **statistics**: per-kernel launch counts, modeled seconds, FLOPs and bytes,
  plus transfer totals — the source of the paper's kernel-breakdown figure.

Functionally, kernels execute real NumPy work on the arrays' device-resident
backing store, so results are exact while time is modeled.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Collection, Iterator, Mapping

import numpy as np

from repro.errors import DeviceMemoryError, InvalidLaunchError
from repro.gpu.kernel import DEFAULT_BLOCK, launch_config
from repro.gpu.memory import DeviceArray, DeviceRegion
from repro.metrics import instrument as _metrics
from repro.perfmodel.gpu_model import GpuCostModel, GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS


def _halted() -> None:
    """The body of a launch its batch's verdict halted."""


@dataclasses.dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One entry of the optional device timeline (see
    :meth:`Device.record_timeline`).

    ``kind`` is the engine the event occupies: ``"kernel"`` (memsets
    included) runs on the device, ``"htod"`` and ``"dtoh"`` on the PCIe
    copy engine.  ``threads`` is the logical work size of kernel
    events (0 for transfers) — the batch scheduler uses it to estimate how
    much of the device a kernel actually occupies when launches from
    several LP streams are interleaved.

    ``start`` is the event's begin time on the device's modeled clock.
    :meth:`Device.launch`, :meth:`Device.memset` and every transfer always
    set it; the device serialises work, so their starts are head-to-tail.
    The Chrome exporter (:mod:`repro.trace.chrome`) and the serve
    attribution place events at ``start``.  Events built by hand as
    :class:`~repro.batch.scheduler.LPTimeline` inputs may leave it
    ``None``: those totals read only kinds, durations and sizes.

    Kernel events (memsets included) also carry what the device priced
    them from — their ``cost``, ``dtype`` and launch ``block`` — so the
    lockstep batch schedule (:class:`~repro.batch.scheduler.LockstepSchedule`)
    can merge the same launch of several LPs into one and price it with
    :func:`event_seconds`, the rule the device itself charges.  Transfers
    leave them unset.
    """

    kind: str
    name: str
    seconds: float
    threads: int = 0
    nbytes: int = 0
    start: "float | None" = None
    cost: "OpCost | None" = None
    dtype: "np.dtype | None" = None
    block: int = 0


def event_seconds(
    model: GpuCostModel,
    kind: str,
    name: str,
    *,
    nbytes: int = 0,
    cost: "OpCost | None" = None,
    dtype: "np.dtype | None" = None,
    block: int = DEFAULT_BLOCK,
) -> float:
    """Modeled seconds of one device event of ``kind``.

    The one pricing rule of the device: :class:`Device` charges every
    launch, memset and transfer with it, and the lockstep batch schedule
    re-applies it to merged events, so the two cannot drift.  Kernels cost
    :meth:`~GpuCostModel.kernel_time` of their ``cost``; a memset writes
    ``nbytes`` once (half a device-to-device copy,
    :meth:`~GpuCostModel.dtod_time`); PCIe transfers cost
    :meth:`~GpuCostModel.transfer_time` of ``nbytes``.
    """
    if kind == "kernel":
        if name == "memset":  # write-only traffic
            return model.dtod_time(nbytes) / 2.0
        return model.kernel_time(cost, dtype, block)
    return model.transfer_time(nbytes)


@dataclasses.dataclass(frozen=True)
class CapturedLaunch:
    """One kernel launch recorded (not executed) during plan capture.

    :mod:`repro.gpu.plan` begins a capture, lets the backend issue its
    ordinary :mod:`repro.gpu.blas` / kernel calls, then lowers the captured
    sequence — fusing adjacent ``fusable`` launches into one launch whose
    cost is :meth:`OpCost.fuse` of the parts.  ``reads``/``writes`` hold
    ``id()`` tokens of the operand buffers so the planner can deduplicate
    the global-memory reads a fused group keeps in registers, and
    ``operand_bytes`` maps each token to the bytes ``cost`` charges for
    reading that operand (its size unless the launch said otherwise).
    """

    name: str
    body: Callable[[], None]
    cost: OpCost
    dtype: np.dtype
    block: int
    fusable: bool
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    operand_bytes: "dict[int, int]"


@dataclasses.dataclass
class KernelRecord:
    """Aggregate statistics of one kernel (by name)."""

    launches: int = 0
    seconds: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0

    def add(self, seconds: float, cost: OpCost) -> None:
        self.launches += 1
        self.seconds += seconds
        self.flops += cost.flops
        self.bytes += cost.bytes_total


@dataclasses.dataclass
class DeviceStats:
    """Cumulative device statistics since creation or :meth:`reset`."""

    kernel_launches: int = 0
    kernel_seconds: float = 0.0
    by_kernel: dict[str, KernelRecord] = dataclasses.field(default_factory=dict)
    htod_bytes: int = 0
    dtoh_bytes: int = 0
    transfer_seconds: float = 0.0
    allocations: int = 0
    frees: int = 0
    bytes_in_use: int = 0
    peak_bytes_in_use: int = 0
    sections: dict[str, float] = dataclasses.field(default_factory=dict)

    def record_kernel(self, name: str, seconds: float, cost: OpCost) -> None:
        self.kernel_launches += 1
        self.kernel_seconds += seconds
        rec = self.by_kernel.setdefault(name, KernelRecord())
        rec.add(seconds, cost)

    def kernel_breakdown(self) -> dict[str, float]:
        """Kernel name -> modeled seconds (copy)."""
        return {name: rec.seconds for name, rec in self.by_kernel.items()}

    def reset(self) -> None:
        live = self.bytes_in_use  # allocations survive a stats reset
        self.__init__()  # type: ignore[misc]
        self.bytes_in_use = live
        self.peak_bytes_in_use = live


class Device:
    """A simulated CUDA-class device.

    Parameters
    ----------
    params:
        Hardware model parameters; defaults to the paper's GTX 280.
    enforce_memory_limit:
        When True (default), allocating past the modeled card's global
        memory raises :class:`DeviceMemoryError`, exactly like ``cudaMalloc``
        returning ``cudaErrorMemoryAllocation``.
    """

    def __init__(
        self,
        params: GpuModelParams = GTX280_PARAMS,
        *,
        enforce_memory_limit: bool = True,
    ):
        self.params = params
        self.model = GpuCostModel(params)
        self.enforce_memory_limit = enforce_memory_limit
        self.clock = 0.0
        self.stats = DeviceStats()
        self._section_stack: list[tuple[str, float]] = []
        #: Optional event timeline (``None`` unless :meth:`record_timeline`
        #: enabled it).  Cleared together with the stats on
        #: :meth:`reset_stats`, so between two resets it holds exactly the
        #: events of the work executed in between (one solve, typically).
        self.timeline: list[TimelineEvent] | None = None
        #: Active plan-capture buffer (``None`` = normal execution).  While
        #: set, :meth:`launch` records instead of executing; see
        #: :mod:`repro.gpu.plan`.
        self._capture: list[CapturedLaunch] | None = None
        #: The status word and batch number of :meth:`halting`, if active.
        self._halt: "tuple[DeviceArray, float] | None" = None

    def record_timeline(self, enable: bool = True) -> None:
        """Start (or stop) recording every kernel launch and transfer as a
        :class:`TimelineEvent`.  The batch scheduler replays these timelines
        to model stream-interleaved execution of several LPs."""
        self.timeline = [] if enable else None

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    def alloc(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate an uninitialised device array (``cudaMalloc``)."""
        dtype = np.dtype(dtype)
        shape = (shape,) if np.isscalar(shape) else tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._reserve(nbytes)
        data = np.empty(shape, dtype=dtype)
        return DeviceArray(self, data)

    def zeros(self, shape, dtype=np.float32) -> DeviceArray:
        """Allocate and zero-fill (``cudaMalloc`` + ``cudaMemset``)."""
        arr = self.alloc(shape, dtype)
        self.memset(arr, 0)
        return arr

    def region(
        self,
        layout: Mapping[str, tuple[tuple[int, ...], np.dtype]],
        column_major: Collection[str] = (),
        aligned: bool = False,
    ) -> DeviceRegion:
        """Allocate one region holding the named buffers of ``layout``
        (name -> (shape, dtype)) back to back, uninitialised, the matrices
        named in ``column_major`` column-major and, if ``aligned``, every
        matrix on a memory segment; fill runs of them with
        :meth:`DeviceRegion.fill`."""
        return DeviceRegion(self, layout, column_major, aligned)

    def place(self, hosts: Mapping[str, np.ndarray]) -> DeviceRegion:
        """Allocate a region shaped like the named host arrays and copy all
        of them in with one HtoD transfer."""
        region = self.region({k: (h.shape, h.dtype) for k, h in hosts.items()})
        region.fill(hosts)
        return region

    def to_device(self, host: np.ndarray, dtype=None) -> DeviceArray:
        """Allocate on device and copy a host array in (HtoD transfer): the
        one-buffer case of :meth:`place`."""
        host = np.asarray(host)
        if dtype is not None:
            host = host.astype(dtype, copy=False)
        return self.place({"array": host})["array"]

    def memset(self, arr: DeviceArray, value: int) -> None:
        """``cudaMemset``: fill with a byte value (0 fills with zeros)."""
        if self._capture is not None:
            raise InvalidLaunchError(
                "memset inside a plan capture is not supported; use "
                "blas.fill (a capturable kernel) in plan sections"
            )
        arr._check_live()
        arr.data.fill(value)
        seconds = event_seconds(self.model, "kernel", "memset", nbytes=arr.nbytes)
        cost = OpCost(bytes_written=arr.nbytes, threads=max(1, arr.size))
        self._account_kernel("memset", seconds, cost, arr.dtype, DEFAULT_BLOCK)

    def _reserve(self, nbytes: int) -> None:
        limit = self.params.global_mem_bytes
        if (
            self.enforce_memory_limit
            and self.stats.bytes_in_use + nbytes > limit
        ):
            raise DeviceMemoryError(
                f"device OOM on {self.params.name}: requested {nbytes} B with "
                f"{self.stats.bytes_in_use} B in use of {limit} B"
            )
        self.stats.allocations += 1
        self.stats.bytes_in_use += nbytes
        self.stats.peak_bytes_in_use = max(
            self.stats.peak_bytes_in_use, self.stats.bytes_in_use
        )
        _metrics.record_allocation(nbytes, self.stats.bytes_in_use)

    def _release(self, nbytes: int) -> None:
        self.stats.frees += 1
        self.stats.bytes_in_use -= nbytes
        _metrics.record_free(nbytes, self.stats.bytes_in_use)

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------

    def launch(
        self,
        name: str,
        body: Callable[[], None],
        cost: OpCost,
        *,
        dtype=np.float32,
        block: int = DEFAULT_BLOCK,
        fusable: bool = False,
        reads: tuple = (),
        writes: tuple = (),
        read_bytes: "Mapping[DeviceArray, int] | None" = None,
    ) -> None:
        """Launch a kernel: run ``body`` functionally, advance the clock.

        ``cost.threads`` is the logical work size; the launch configuration
        (grid size) is derived from it and validated against device limits.

        ``fusable`` marks elementwise/map kernels the plan lowerer may fold
        into a neighbouring launch; ``reads``/``writes`` name the operand
        :class:`~repro.gpu.memory.DeviceArray` buffers so fusion can count
        shared operands' global-memory traffic once.  ``read_bytes`` gives
        what ``cost`` charges for reading an operand where that is not its
        size (a read charged by the segments it touches), so the fusion
        credits a re-read in the units it was charged.  All four are
        ignored outside a plan capture.
        """
        cfg = launch_config(cost.threads, block, self.params)
        if cfg.grid > 65535 * 65535:  # 2D grid limit of the modeled hardware
            raise InvalidLaunchError(f"grid of {cfg.grid} blocks exceeds device limits")
        if self._capture is not None:
            operand_bytes = {
                id(a): int(a.nbytes) for a in (*reads, *writes)
            }
            for a, nbytes in (read_bytes or {}).items():
                operand_bytes[id(a)] = int(nbytes)
            self._capture.append(
                CapturedLaunch(
                    name=name, body=body, cost=cost, dtype=np.dtype(dtype),
                    block=block, fusable=fusable,
                    reads=tuple(id(a) for a in reads),
                    writes=tuple(id(a) for a in writes),
                    operand_bytes=operand_bytes,
                )
            )
            return
        if self._halt is not None:
            body, cost = self._guarded(body, cost)
        body()
        dtype = np.dtype(dtype)
        seconds = event_seconds(
            self.model, "kernel", name, cost=cost, dtype=dtype, block=cfg.block
        )
        self._account_kernel(name, seconds, cost, dtype, cfg.block)

    @contextlib.contextmanager
    def halting(self, word: DeviceArray, batch: float) -> Iterator[None]:
        """Run the launches issued inside as one batch whose verdict halts
        it: every launch first reads ``word`` (one segment through the
        read-only cache, charged), and once a kernel has stored ``batch``
        there it does nothing and is charged as an empty launch — the
        launch overhead and that read over its grid."""
        if self._halt is not None:
            raise InvalidLaunchError("nested halting batch")
        self._halt = (word, batch)
        try:
            yield
        finally:
            self._halt = None

    def _guarded(self, body: Callable[[], None],
                 cost: OpCost) -> tuple[Callable[[], None], OpCost]:
        word, batch = self._halt
        read = self.params.transaction_bytes
        if word.data[0] == batch:
            return _halted, OpCost(bytes_read=read, threads=cost.threads)
        return body, dataclasses.replace(cost, bytes_read=cost.bytes_read + read)

    def _account_kernel(self, name: str, seconds: float, cost: OpCost,
                        dtype: np.dtype, block: int) -> None:
        """Advance the clock past one executed kernel and record it, once
        for every launch path: device stats, metrics and the timeline."""
        self._advance(seconds)
        self.stats.record_kernel(name, seconds, cost)
        _metrics.record_kernel_launch(name, seconds, cost, self.model, block)
        if self.timeline is not None:
            self.timeline.append(
                TimelineEvent(
                    "kernel", name, seconds,
                    threads=cost.threads, nbytes=int(cost.bytes_total),
                    start=self.clock - seconds,
                    cost=cost, dtype=dtype, block=block,
                )
            )

    # ------------------------------------------------------------------
    # plan capture (driven by repro.gpu.plan)
    # ------------------------------------------------------------------

    def _begin_capture(self) -> list[CapturedLaunch]:
        """Start recording launches instead of executing them.  Returns the
        capture buffer the plan lowerer consumes.  Nested captures are a
        programming error."""
        if self._capture is not None:
            raise InvalidLaunchError("nested plan capture")
        self._capture = []
        return self._capture

    def _end_capture(self) -> list[CapturedLaunch]:
        """Stop capturing; returns the recorded launch sequence."""
        if self._capture is None:
            raise InvalidLaunchError("no plan capture active")
        buf, self._capture = self._capture, None
        return buf

    # ------------------------------------------------------------------
    # transfers (called by DeviceArray; accounted here)
    # ------------------------------------------------------------------

    def _record_transfer(self, direction: str, nbytes: int) -> float:
        if self._capture is not None:
            raise InvalidLaunchError(
                "host transfer inside a plan capture: captured kernel bodies "
                "have not executed yet, so a transfer here would read or "
                "write stale device data — end the plan section first"
            )
        seconds = event_seconds(self.model, direction, "transfer", nbytes=nbytes)
        if direction == "htod":
            self.stats.htod_bytes += nbytes
        else:
            self.stats.dtoh_bytes += nbytes
        self.stats.transfer_seconds += seconds
        self._advance(seconds)
        _metrics.record_transfer(direction, nbytes, seconds)
        if self.timeline is not None:
            self.timeline.append(
                TimelineEvent(
                    direction, "transfer", seconds, nbytes=nbytes,
                    start=self.clock - seconds,
                )
            )
        return seconds

    # ------------------------------------------------------------------
    # clock and sections
    # ------------------------------------------------------------------

    def _advance(self, seconds: float) -> None:
        self.clock += seconds

    @contextlib.contextmanager
    def timed_section(self, name: str) -> Iterator[None]:
        """Accumulate the device time spent inside the block under ``name``.

        Used by the solver to attribute kernel time to algorithm phases
        (pricing / ftran / ratio-test / update) for the breakdown figure.
        """
        start = self.clock
        try:
            yield
        finally:
            delta = self.clock - start
            self.stats.sections[name] = self.stats.sections.get(name, 0.0) + delta

    def reset_stats(self) -> None:
        """Zero the statistics, the clock and any recorded timeline;
        allocations stay live."""
        self.stats.reset()
        self.clock = 0.0
        if self.timeline is not None:
            self.timeline = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Device {self.params.name!r} clock={self.clock:.6f}s "
            f"mem={self.stats.bytes_in_use}/{self.params.global_mem_bytes}B>"
        )
