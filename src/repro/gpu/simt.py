"""Thread-level SIMT interpreter: warps, shared memory, ``__syncthreads``.

The block-level kernels in :mod:`repro.gpu.blas` and :mod:`repro.gpu.reduce`
compute their results with vectorised NumPy for speed.  This module provides
the ground truth they are validated against: a miniature SIMT machine that
executes **one Python generator per thread**, grouped into warps, with
block-shared memory and barrier synchronisation — the execution model of the
hardware the paper targets.

Kernel authoring model
----------------------
A SIMT kernel is a *generator function* taking a :class:`ThreadCtx` first::

    def vec_add(t, x, y, out):
        i = t.global_id
        if i < out.size:
            out[i] = x[i] + y[i]
        yield  # __syncthreads() — optional for independent threads

``yield`` is ``__syncthreads()``: the engine advances every live thread of a
block to its next ``yield`` before any proceeds.  A block in which some
threads exit while siblings wait at a barrier is *barrier divergence* —
undefined behaviour on hardware, a detected error here.

The engine reports run statistics (blocks, warps, barriers) so tests can
assert structural properties (e.g. a tree reduction executes the expected
number of barriers).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Generator

import numpy as np

from repro.errors import DeviceError, InvalidLaunchError
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS


class SimtBarrierError(DeviceError):
    """Barrier divergence: threads of one block disagree about a barrier."""


@dataclasses.dataclass
class SimtRunStats:
    """Structural statistics of one SIMT kernel run."""

    blocks: int = 0
    warps: int = 0
    threads: int = 0
    barriers: int = 0  # per-block barrier episodes, summed over blocks


class SharedMemory:
    """Block-shared scratch memory.

    ``alloc(name, shape, dtype)`` returns the same array for every thread of
    the block (first caller allocates), mirroring ``__shared__`` declarations.
    A per-block byte budget mirrors the hardware limit.
    """

    def __init__(self, limit_bytes: int):
        self.limit_bytes = limit_bytes
        self._arrays: dict[str, np.ndarray] = {}
        self._used = 0

    def alloc(self, name: str, shape, dtype=np.float32) -> np.ndarray:
        if name in self._arrays:
            return self._arrays[name]
        arr = np.zeros(shape, dtype=dtype)
        if self._used + arr.nbytes > self.limit_bytes:
            raise DeviceError(
                f"shared memory overflow: {self._used + arr.nbytes} B requested, "
                f"{self.limit_bytes} B per block available"
            )
        self._used += arr.nbytes
        self._arrays[name] = arr
        return arr


@dataclasses.dataclass
class ThreadCtx:
    """Per-thread identity, exactly the CUDA built-ins."""

    thread_idx: int  # threadIdx.x
    block_idx: int  # blockIdx.x
    block_dim: int  # blockDim.x
    grid_dim: int  # gridDim.x
    shared: SharedMemory
    warp_size: int = 32

    @property
    def global_id(self) -> int:
        """blockIdx.x * blockDim.x + threadIdx.x."""
        return self.block_idx * self.block_dim + self.thread_idx

    @property
    def lane(self) -> int:
        """Lane within the warp (threadIdx.x % warpSize)."""
        return self.thread_idx % self.warp_size

    @property
    def warp_id(self) -> int:
        """Warp index within the block (threadIdx.x // warpSize)."""
        return self.thread_idx // self.warp_size


KernelFn = Callable[..., "Generator[None, None, None] | None"]


class SimtEngine:
    """Executes SIMT kernels thread-by-thread in warp order."""

    def __init__(self, params: GpuModelParams = GTX280_PARAMS):
        self.params = params

    def run(
        self,
        kernel: KernelFn,
        grid: int,
        block: int,
        *args: Any,
    ) -> SimtRunStats:
        """Run ``kernel`` over a 1-D grid of 1-D blocks.

        Threads are created in warp order within each block; blocks run to
        completion one at a time (valid because CUDA blocks must be
        independent — inter-block communication within a launch is UB, and
        any kernel relying on it will fail visibly here).
        """
        if block < 1 or grid < 1:
            raise InvalidLaunchError("grid and block must be positive")
        if block > self.params.max_threads_per_block:
            raise InvalidLaunchError(
                f"block of {block} threads exceeds device limit "
                f"{self.params.max_threads_per_block}"
            )
        stats = SimtRunStats()
        warp = self.params.warp_size
        for bx in range(grid):
            shared = SharedMemory(self.params.shared_mem_per_block)
            generators: list[Generator[None, None, None]] = []
            for tx in range(block):
                ctx = ThreadCtx(
                    thread_idx=tx,
                    block_idx=bx,
                    block_dim=block,
                    grid_dim=grid,
                    shared=shared,
                    warp_size=warp,
                )
                result = kernel(ctx, *args)
                if result is not None:
                    generators.append(result)
            self._run_block(generators, stats)
            stats.blocks += 1
            stats.threads += block
            stats.warps += -(-block // warp)
        return stats

    @staticmethod
    def _run_block(
        generators: list["Generator[None, None, None]"], stats: SimtRunStats
    ) -> None:
        """Advance every thread of a block in lockstep barrier episodes."""
        live = generators
        while live:
            survivors: list[Generator[None, None, None]] = []
            finished = 0
            for gen in live:
                try:
                    next(gen)
                    survivors.append(gen)
                except StopIteration:
                    finished += 1
            if survivors and finished:
                raise SimtBarrierError(
                    f"barrier divergence: {finished} thread(s) exited while "
                    f"{len(survivors)} thread(s) reached __syncthreads()"
                )
            if survivors:
                stats.barriers += 1
            live = survivors


# ---------------------------------------------------------------------------
# Reference SIMT kernels (used by the validation test-suite and as worked
# examples of the authoring model).
# ---------------------------------------------------------------------------


def simt_vector_add(t: ThreadCtx, x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """out := x + y, one element per thread (guard-clause pattern)."""
    i = t.global_id
    if i < out.size:
        out[i] = x[i] + y[i]
    return
    yield  # pragma: no cover - marks this as a generator function


def simt_block_sum(t: ThreadCtx, x: np.ndarray, partials: np.ndarray):
    """Classic shared-memory tree reduction: one partial sum per block.

    Mirrors the CUDA SDK ``reduce3`` kernel: strided load, then a halving
    tree with a barrier per level.
    """
    sdata = t.shared.alloc("sdata", t.block_dim, dtype=np.float64)
    i = t.global_id
    sdata[t.thread_idx] = x[i] if i < x.size else 0.0
    yield  # barrier: all loads complete

    stride = t.block_dim // 2
    while stride > 0:
        if t.thread_idx < stride:
            sdata[t.thread_idx] += sdata[t.thread_idx + stride]
        yield  # barrier per tree level
        stride //= 2

    if t.thread_idx == 0:
        partials[t.block_idx] = sdata[0]


def simt_dot_partial(
    t: ThreadCtx, x: np.ndarray, y: np.ndarray, partials: np.ndarray
):
    """Per-block partial dot product with a grid-stride load loop."""
    sdata = t.shared.alloc("sdata", t.block_dim, dtype=np.float64)
    acc = 0.0
    i = t.global_id
    stride = t.block_dim * t.grid_dim
    while i < x.size:
        acc += float(x[i]) * float(y[i])
        i += stride
    sdata[t.thread_idx] = acc
    yield

    s = t.block_dim // 2
    while s > 0:
        if t.thread_idx < s:
            sdata[t.thread_idx] += sdata[t.thread_idx + s]
        yield
        s //= 2

    if t.thread_idx == 0:
        partials[t.block_idx] = sdata[0]


def simt_gemv_warp_per_row(
    t: ThreadCtx, a: np.ndarray, x: np.ndarray, y: np.ndarray
):
    """y := A x with one warp per matrix row — the mapping the device BLAS
    charges for GEMV.  Lanes stride across the row (coalesced reads), then
    reduce within the warp via shared memory.
    """
    m, n = a.shape
    row = t.global_id // t.warp_size
    lane = t.lane
    sdata = t.shared.alloc("warp_sums", t.block_dim, dtype=np.float64)
    acc = 0.0
    if row < m:
        j = lane
        while j < n:
            acc += float(a[row, j]) * float(x[j])
            j += t.warp_size
    sdata[t.thread_idx] = acc
    yield  # barrier: all partial sums in shared memory

    # warp-local tree reduction (lockstep lanes; barrier per level keeps the
    # interpreter honest about ordering)
    offset = t.warp_size // 2
    while offset > 0:
        if lane < offset:
            sdata[t.thread_idx] += sdata[t.thread_idx + offset]
        yield
        offset //= 2
    if lane == 0 and row < m:
        y[row] = sdata[t.thread_idx]


def simt_spmv_csr_vector(
    t: ThreadCtx,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 1.0,
    beta: float = 0.0,
):
    """y := alpha · A x + beta · y for CSR A with one warp per row — the
    CSR-vector mapping the device SpMVs charge.  Lanes stride through the
    row's contiguous segment of ``indices``/``data`` (gathering x), then
    reduce within the warp as :func:`simt_gemv_warp_per_row` does.  Given
    the arrays of a CSC matrix it computes Aᵀx, as ``spmv_csc_t`` does.
    """
    rows = indptr.size - 1
    row = t.global_id // t.warp_size
    lane = t.lane
    sdata = t.shared.alloc("warp_sums", t.block_dim, dtype=np.float64)
    acc = 0.0
    if row < rows:
        k = int(indptr[row]) + lane
        while k < indptr[row + 1]:
            acc += float(data[k]) * float(x[indices[k]])
            k += t.warp_size
    sdata[t.thread_idx] = acc
    yield  # barrier: all partial sums in shared memory

    offset = t.warp_size // 2
    while offset > 0:
        if lane < offset:
            sdata[t.thread_idx] += sdata[t.thread_idx + offset]
        yield
        offset //= 2
    if lane == 0 and row < rows:
        s = alpha * sdata[t.thread_idx]
        y[row] = s if beta == 0.0 else s + beta * y[row]


def simt_block_argmin(
    t: ThreadCtx, x: np.ndarray, out_val: np.ndarray, out_idx: np.ndarray
):
    """Per-block arg-min with (value, index) pairs in shared memory and the
    lowest-index tie-break — the ground truth for ``reduce.argmin``."""
    vals = t.shared.alloc("vals", t.block_dim, dtype=np.float64)
    idxs = t.shared.alloc("idxs", t.block_dim, dtype=np.int64)
    i = t.global_id
    if i < x.size:
        vals[t.thread_idx] = x[i]
        idxs[t.thread_idx] = i
    else:
        vals[t.thread_idx] = np.inf
        idxs[t.thread_idx] = 2**62
    yield

    stride = t.block_dim // 2
    while stride > 0:
        if t.thread_idx < stride:
            other = t.thread_idx + stride
            better = vals[other] < vals[t.thread_idx] or (
                vals[other] == vals[t.thread_idx]
                and idxs[other] < idxs[t.thread_idx]
            )
            if better:
                vals[t.thread_idx] = vals[other]
                idxs[t.thread_idx] = idxs[other]
        yield
        stride //= 2

    if t.thread_idx == 0:
        out_val[t.block_idx] = vals[0]
        out_idx[t.block_idx] = idxs[0]


def simt_eta_update_row(
    t: ThreadCtx,
    binv: np.ndarray,
    eta_minus_ep: np.ndarray,
    row_p: np.ndarray,
):
    """One thread per B⁻¹ element: the rank-1 eta update GER, the exact
    per-thread body of the solver's basis-update kernel."""
    m = binv.shape[0]
    idx = t.global_id
    if idx < m * m:
        i, j = divmod(idx, m)
        binv[i, j] += eta_minus_ep[i] * row_p[j]
    return
    yield  # pragma: no cover - marks this as a generator function


def simt_ratio_test(
    t: ThreadCtx,
    beta: np.ndarray,
    alpha: np.ndarray,
    ratios: np.ndarray,
    tol: float,
):
    """The simplex ratio-test map kernel: ratios[i] = βᵢ/αᵢ where αᵢ > tol,
    +inf elsewhere — exactly the per-thread body of the solver's kernel."""
    i = t.global_id
    if i < ratios.size:
        a = alpha[i]
        ratios[i] = beta[i] / a if a > tol else np.inf
    return
    yield  # pragma: no cover - marks this as a generator function
