"""Kernel launch configuration for the simulated device.

Mirrors the CUDA execution configuration ``<<<grid, block>>>``: callers pick
a block size, the helper derives the grid size covering ``n`` work items, and
the device validates the configuration against hardware limits at launch.
"""

from __future__ import annotations

import dataclasses

from repro.errors import InvalidLaunchError
from repro.perfmodel.gpu_model import GpuModelParams

#: Default block size used by the solver kernels; 256 threads gives full
#: occupancy granularity on every modeled device.
DEFAULT_BLOCK = 256


@dataclasses.dataclass(frozen=True)
class LaunchConfig:
    """A validated (grid, block) pair covering ``threads`` work items."""

    grid: int
    block: int
    threads: int

    @property
    def launched_threads(self) -> int:
        """Threads actually launched (grid × block ≥ threads)."""
        return self.grid * self.block


def launch_config(
    threads: int,
    block: int = DEFAULT_BLOCK,
    params: GpuModelParams | None = None,
) -> LaunchConfig:
    """Derive the grid size for ``threads`` work items at the given block size.

    Raises :class:`InvalidLaunchError` for non-positive sizes or a block
    exceeding the device limit.
    """
    if threads < 1:
        raise InvalidLaunchError(f"kernel must launch at least 1 thread, got {threads}")
    if block < 1:
        raise InvalidLaunchError(f"block size must be positive, got {block}")
    if params is not None and block > params.max_threads_per_block:
        raise InvalidLaunchError(
            f"block size {block} exceeds device limit "
            f"{params.max_threads_per_block} ({params.name})"
        )
    grid = -(-threads // block)
    return LaunchConfig(grid=grid, block=block, threads=threads)
