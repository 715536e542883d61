"""Simulated SIMT (CUDA-class) device substrate.

The paper runs on an NVIDIA GTX 280; this environment has no GPU, so the
substrate *simulates* one: algorithms execute functionally (kernels compute
real results on device-resident arrays) while time advances on a simulated
device clock driven by the analytic cost model in :mod:`repro.perfmodel`.
Every code path of a real CUDA port is exercised — explicit allocation,
host↔device transfers, kernel launches with grid/block configuration,
per-kernel statistics, an event timeline — so the solver in
:mod:`repro.core` reads exactly like its CUDA original.

Layers
------
- :mod:`~repro.gpu.device`   — :class:`Device`: clock, allocator, statistics,
  and the opt-in :class:`TimelineEvent` timeline of every launch, memset and
  transfer (:meth:`Device.record_timeline`).
- :mod:`~repro.gpu.memory`   — :class:`DeviceArray` and transfer helpers.
- :mod:`~repro.gpu.kernel`   — launch configuration and validation.
- :mod:`~repro.gpu.blas`     — device BLAS 1/2/3 (cuBLAS stand-in).
- :mod:`~repro.gpu.reduce`   — parallel reductions, argmin/argmax, scan.
- :mod:`~repro.gpu.sparse_kernels` — SpMV and gather/scatter kernels.
- :mod:`~repro.gpu.simt`     — thread-level SIMT interpreter (warps, shared
  memory, ``syncthreads``) used to validate the block-level kernels.
"""

from repro.gpu.device import Device, DeviceStats, KernelRecord, TimelineEvent
from repro.gpu.memory import DeviceArray
from repro.gpu.kernel import LaunchConfig, launch_config
from repro.gpu.occupancy import OccupancyResult, best_block_size, occupancy

__all__ = [
    "Device",
    "DeviceStats",
    "KernelRecord",
    "TimelineEvent",
    "DeviceArray",
    "LaunchConfig",
    "launch_config",
    "OccupancyResult",
    "occupancy",
    "best_block_size",
]
