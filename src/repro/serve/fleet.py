"""The device fleet: simulated workers, memory footprints, cost prediction.

A :class:`DeviceWorker` is one lane of the fleet — a simulated GPU (its own
:class:`~repro.gpu.device.Device` with timeline recording, so dispatch
groups can be priced by :class:`~repro.batch.scheduler.ConcurrentSchedule`)
or a CPU worker pool (opaque modeled-time blocks), each with its own
availability clock.  Mixing the two in one fleet is the multi-GPU +
CPU-collaboration split of Mamalis & Perlitis (arXiv:2211.10979).

Placement inputs computed here:

- :func:`estimate_footprint_bytes` — the modeled device-memory footprint of
  solving one LP with a given method, used to bin-pack a dispatch window
  against the device's global memory;
- :class:`MakespanPredictor` — a per-(method, size-bucket) running mean of
  observed single-LP machine times (each dispatched job's
  :class:`~repro.batch.scheduler.LPTimeline` feeds it), used by admission
  control to reject deadline-infeasible jobs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import SolverError
from repro.gpu.device import Device
from repro.lp.problem import LPProblem
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS


def estimate_footprint_bytes(
    problem: LPProblem, method: str = "gpu-revised", dtype=np.float64
) -> int:
    """Modeled device-memory footprint of solving ``problem``.

    A deliberate over-approximation of the working set the solver holds
    resident (standard-form constraint data, the basis representation, and
    the per-iteration vectors), used only for bin-packing placement — the
    functional solve still enforces the real allocator limit.
    """
    itemsize = np.dtype(dtype).itemsize
    index_size = np.dtype(np.int64).itemsize
    m, n = problem.num_constraints, problem.num_vars
    ncols = n + m  # standard form adds one slack/artificial per row
    if "sparse" in method and problem.is_sparse:
        nnz = problem.a.nnz + m  # + the appended identity columns
        data = nnz * (itemsize + index_size) + (ncols + 1) * index_size
    else:
        data = m * ncols * itemsize
    if "tableau" in method:
        work = (m + 1) * (ncols + 1) * itemsize  # the full tableau
    else:
        work = m * m * itemsize  # B^-1 / LU factors
    vectors = (6 * m + 4 * ncols) * itemsize
    return int(data + work + vectors)


class DeviceWorker:
    """One device of the fleet and its availability clock."""

    def __init__(
        self,
        name: str,
        params: GpuModelParams = GTX280_PARAMS,
        n_streams: int = 4,
        on_gpu: bool = True,
    ):
        if n_streams < 1:
            raise SolverError("n_streams must be >= 1")
        self.name = name
        self.params = params
        self.n_streams = n_streams
        self.on_gpu = on_gpu
        #: The shared simulated device of this worker (GPU workers only);
        #: timeline recording stays on so every dispatched solve yields an
        #: LPTimeline for the group's makespan pricing.
        self.device: Device | None = None
        if on_gpu:
            self.device = Device(params)
            self.device.record_timeline()
        #: Simulated time at which the worker finishes its current group.
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.jobs_done = 0
        self.dispatches = 0

    @property
    def mem_capacity(self) -> int:
        """Bin-packing budget: the modeled card's global memory (CPU
        workers get the same budget — host memory is not the scarce
        resource this placement models)."""
        return self.params.global_mem_bytes

    def idle_at(self, now: float) -> bool:
        return self.busy_until <= now

    def utilization(self, span_seconds: float) -> float:
        if span_seconds <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / span_seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "gpu" if self.on_gpu else "cpu"
        return (
            f"<DeviceWorker {self.name} [{kind} x{self.n_streams} streams] "
            f"busy_until={self.busy_until:.6f}s jobs={self.jobs_done}>"
        )


def make_fleet(
    n_devices: int,
    params: GpuModelParams = GTX280_PARAMS,
    n_streams: int = 4,
    on_gpu: bool = True,
) -> list[DeviceWorker]:
    """A homogeneous fleet ``dev0..devN-1`` (the common configuration)."""
    if n_devices < 1:
        raise SolverError("fleet needs at least one device")
    return [
        DeviceWorker(f"dev{i}", params=params, n_streams=n_streams, on_gpu=on_gpu)
        for i in range(n_devices)
    ]


@dataclasses.dataclass
class _RunningMean:
    count: int = 0
    mean: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count


class MakespanPredictor:
    """Running-mean machine-time predictor per (method, size bucket).

    Problems are bucketed by the base-2 magnitude of their row/column
    counts, so a 60x90 LP and a 70x100 LP share a bucket while 64x96 and
    512x768 do not.  An unseen bucket of an *observed* method is
    extrapolated from the nearest observed bucket by the work ratio between
    them (time ~ m·n, so one log2 step in each dimension doubles the
    estimate); without this, a job one bucket past the largest ever seen
    predicted 0.0 and sailed through admission control as "free", wrecking
    the deadline ledger.  Only a method with no observations at all returns
    0.0 — the honest "no estimate" answer that admission control treats as
    "unknown, admit".
    """

    def __init__(self) -> None:
        self._stats: dict[tuple[str, int, int], _RunningMean] = {}

    @staticmethod
    def _key(problem: LPProblem, method: str) -> tuple[str, int, int]:
        return (
            method,
            round(math.log2(problem.num_constraints + 1)),
            round(math.log2(problem.num_vars + 1)),
        )

    def observe(self, problem: LPProblem, method: str, seconds: float) -> None:
        self._stats.setdefault(self._key(problem, method), _RunningMean()).add(
            seconds
        )

    def predict(self, problem: LPProblem, method: str) -> float:
        method_key, rb, cb = self._key(problem, method)
        stats = self._stats.get((method_key, rb, cb))
        if stats is not None:
            return stats.mean
        # Unseen bucket: extrapolate from the nearest observed bucket of the
        # same method, scaling by 2 per log2 step in each dimension.  Ties
        # keep the larger projection (conservative for admission control).
        best: "tuple[int, float] | None" = None
        for (m_obs, rb_obs, cb_obs), s in self._stats.items():
            if m_obs != method_key:
                continue
            distance = abs(rb - rb_obs) + abs(cb - cb_obs)
            projected = s.mean * 2.0 ** ((rb - rb_obs) + (cb - cb_obs))
            if (
                best is None
                or distance < best[0]
                or (distance == best[0] and projected > best[1])
            ):
                best = (distance, projected)
        return best[1] if best is not None else 0.0

    def __len__(self) -> int:
        return len(self._stats)
