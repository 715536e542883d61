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
- :mod:`~repro.gpu.memory`   — :class:`DeviceArray` (with a matrix's
  row- or column-major layout) and transfer helpers.
- :mod:`~repro.gpu.kernel`   — launch configuration and validation.  How
  full a launch keeps the device (occupancy) is priced by the cost model,
  :meth:`~repro.perfmodel.gpu_model.GpuCostModel.fill_factor`.
- :mod:`~repro.gpu.plan`     — launch plans: capture, fusion and lowering
  of a backend's kernel sequence, and the precision policy.
- :mod:`~repro.gpu.blas`     — device BLAS 1/2 (cuBLAS stand-in).
- :mod:`~repro.gpu.reduce`   — tree-pass costs and result stores of the
  device-resident arg-min reductions a plan section ends in.
- :mod:`~repro.gpu.sparse_kernels` — SpMV and column-scatter kernels.
- :mod:`~repro.gpu.transactions` — the 64-byte segments a kernel's access
  pattern touches in its matrix's layout, counted once per shape.
- :mod:`~repro.gpu.simt`     — thread-level SIMT interpreter (warps, shared
  memory, ``syncthreads``, a global-memory transaction recorder) used to
  validate the block-level kernels and their charges.
"""

from repro.gpu.device import Device, DeviceStats, KernelRecord, TimelineEvent
from repro.gpu.memory import DeviceArray
from repro.gpu.kernel import LaunchConfig, launch_config

__all__ = [
    "Device",
    "DeviceStats",
    "KernelRecord",
    "TimelineEvent",
    "DeviceArray",
    "LaunchConfig",
    "launch_config",
]
