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

Global-memory transactions
--------------------------
Arrays wrapped by the engine's :class:`GlobalMemory` recorder
(``engine.memory.array(name, data)``) count the transactions their
accesses cost, by the convention :mod:`repro.gpu.transactions` charges:
the k-th access of each lane of a half-warp to one array (reads and
writes apart) forms one memory instruction, which costs the distinct
``transaction_bytes``-aligned segments its lanes touch.  Addresses come
from the wrapped array's own strides, so a Fortran-ordered array *is* a
column-major matrix, after the array's byte ``offset`` in its allocation
(0 by default: on a segment boundary).  An array wrapped ``cached=True``
is read through the read-only (texture) cache: each distinct segment
costs once per run.
``SimtRunStats.memory_bytes`` holds the counted bytes per array.

Every dense kernel of :mod:`repro.gpu.blas` and
:mod:`repro.core.gpu_kernels` has a twin here, run with the launch
configuration its charge implies: :func:`simt_gemv_split_line` with the
k warps per line that ``blas.warps_per_line`` derives,
:func:`simt_gemv_tiled`, :func:`simt_ger` and the row, column and
entering-column copies.
"""

from __future__ import annotations

import collections
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
    #: Global-memory transaction bytes per recorded array (see
    #: :class:`GlobalMemory`).
    memory_bytes: dict[str, int] = dataclasses.field(default_factory=dict)


class GlobalMemory:
    """Counts the global-memory transactions of one SIMT run.

    The engine tells the recorder which thread runs; each access through
    an array from :meth:`array` is filed under its memory instruction (see
    the module docstring).
    """

    def __init__(self, params: GpuModelParams):
        self.transaction = params.transaction_bytes
        self.half_warp = params.warp_size // 2
        self.thread = (0, 0)  # (blockIdx.x, threadIdx.x) of the running thread
        self.reset()

    def reset(self) -> None:
        self._accesses: collections.Counter = collections.Counter()
        self._instructions: dict[tuple, set[int]] = collections.defaultdict(set)
        self._cached: dict[str, set[int]] = collections.defaultdict(set)

    def array(self, name: str, data: np.ndarray, *, cached: bool = False,
              offset: int = 0) -> "GlobalArray":
        """``data`` as a global-memory array ``offset`` bytes into a
        segment-aligned allocation, whose accesses are counted."""
        return GlobalArray(self, name, data, cached, offset)

    def touch(self, name: str, kind: str, offset: int, cached: bool) -> None:
        segment = offset // self.transaction
        if cached:
            if kind != "read":
                raise DeviceError(f"write to {name!r} through the read-only cache")
            self._cached[name].add(segment)
            return
        block, tx = self.thread
        lane_key = (name, kind, block, tx)
        k = self._accesses[lane_key]
        self._accesses[lane_key] = k + 1
        self._instructions[(name, kind, block, tx // self.half_warp, k)].add(segment)

    def bytes(self) -> dict[str, int]:
        """Transaction bytes per array counted since the last reset."""
        out: collections.Counter = collections.Counter()
        for (name, *_), segments in self._instructions.items():
            out[name] += len(segments) * self.transaction
        for name, segments in self._cached.items():
            out[name] += len(segments) * self.transaction
        return dict(out)


class GlobalArray:
    """An ndarray in global memory whose element accesses the
    :class:`GlobalMemory` recorder counts.  Kernels index it like the
    array; ``.T`` is the transposed view of the same memory."""

    __slots__ = ("_memory", "name", "_data", "_cached", "_base")

    def __init__(self, memory: GlobalMemory, name: str, data: np.ndarray,
                 cached: bool, base: int = 0):
        self._memory = memory
        self.name = name
        self._data = data
        self._cached = cached
        self._base = base

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def strides(self) -> tuple[int, ...]:
        return self._data.strides

    @property
    def T(self) -> "GlobalArray":
        return GlobalArray(
            self._memory, self.name, self._data.T, self._cached, self._base
        )

    def _offset(self, index) -> int:
        index = index if isinstance(index, tuple) else (index,)
        return self._base + sum(
            int(i) * s for i, s in zip(index, self._data.strides)
        )

    def __getitem__(self, index):
        self._memory.touch(self.name, "read", self._offset(index), self._cached)
        return self._data[index]

    def __setitem__(self, index, value) -> None:
        self._memory.touch(self.name, "write", self._offset(index), self._cached)
        self._data[index] = value


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
        #: Transaction recorder of the arrays kernels access through it;
        #: reset at the start of every run.
        self.memory = GlobalMemory(params)

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
        self.memory.reset()
        for bx in range(grid):
            shared = SharedMemory(self.params.shared_mem_per_block)
            generators: list[tuple[int, Generator[None, None, None]]] = []
            for tx in range(block):
                ctx = ThreadCtx(
                    thread_idx=tx,
                    block_idx=bx,
                    block_dim=block,
                    grid_dim=grid,
                    shared=shared,
                    warp_size=warp,
                )
                self.memory.thread = (bx, tx)
                result = kernel(ctx, *args)
                if result is not None:
                    generators.append((tx, result))
            self._run_block(bx, generators, stats)
            stats.blocks += 1
            stats.threads += block
            stats.warps += -(-block // warp)
        stats.memory_bytes = self.memory.bytes()
        return stats

    def _run_block(
        self,
        bx: int,
        generators: list[tuple[int, "Generator[None, None, None]"]],
        stats: SimtRunStats,
    ) -> None:
        """Advance every thread of a block in lockstep barrier episodes."""
        live = generators
        while live:
            survivors: list[tuple[int, Generator[None, None, None]]] = []
            finished = 0
            for tx, gen in live:
                self.memory.thread = (bx, tx)
                try:
                    next(gen)
                    survivors.append((tx, gen))
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


def simt_gemv_split_line(
    t: ThreadCtx, a, x, y, alpha: float = 1.0, beta: float = 0.0,
    warps_per_line: int = 1,
):
    """y := alpha · A x + beta · y with ``warps_per_line`` (k) warps per
    matrix row — the mapping ``blas.gemv`` charges when its outputs are the
    matrix's lines.  The 32·k lanes of a row stride across it together
    (each half-warp reads 16 consecutive words: coalesced when A is
    row-major), each warp reduces in a tree, the row's k warp sums reduce
    in shared memory, and the block's rows then write their outputs
    together.  A row's warps share the block, so the block holds
    ``block_dim / 32k`` whole rows.  Given ``a.T`` of a column-major A it
    is the GEMVᵀ that prices over A.
    """
    m, n = a.shape
    k = warps_per_line
    width = k * t.warp_size
    if t.block_dim % width:
        raise InvalidLaunchError(
            f"a row of {width} threads does not fit whole in a block of "
            f"{t.block_dim}"
        )
    rows = t.block_dim // width
    row = t.global_id // width
    lane = t.lane
    sdata = t.shared.alloc("lanes", t.block_dim, dtype=np.float64)
    warp_sums = t.shared.alloc(
        "warp_sums", t.block_dim // t.warp_size, dtype=np.float64
    )
    acc = 0.0
    if row < m:
        j = t.thread_idx % width
        while j < n:
            acc += float(a[row, j]) * float(x[j])
            j += width
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
    if lane == 0:
        warp_sums[t.warp_id] = sdata[t.thread_idx]
    yield  # barrier: every warp's sum in shared memory

    # the row's k warp sums, in a tree
    offset = k // 2
    while offset > 0:
        if lane == 0 and t.warp_id % k < offset:
            warp_sums[t.warp_id] += warp_sums[t.warp_id + offset]
        yield
        offset //= 2

    out = t.block_idx * rows + t.thread_idx
    if t.thread_idx < rows and out < m:
        s = alpha * warp_sums[t.thread_idx * k]
        y[out] = s if beta == 0.0 else s + beta * y[out]


def simt_gemv_tiled(
    t: ThreadCtx, a, x, y, alpha: float = 1.0, beta: float = 0.0
):
    """y := alpha · Aᵀx + beta · y for a row-major A with a tile of 16
    outputs per block — the mapping ``blas.gemv`` charges when its outputs
    run along the matrix's lines (π = B⁻ᵀc_B).  Lane c of half-warp s reads
    A[k, 16·block + c] for every k ≡ s (mod slices), so each half-warp
    reads 16 consecutive words of a row, one coalesced instruction on
    GT200; the slices' partial sums then reduce in shared memory and the
    first half-warp writes the 16 outputs.  Given ``a.T`` of a
    column-major A it computes A x.
    """
    rows, cols = a.shape
    width = t.warp_size // 2
    slices = t.block_dim // width
    c, s = t.thread_idx % width, t.thread_idx // width
    col = t.block_idx * width + c
    part = t.shared.alloc("tile", (slices, width), dtype=np.float64)
    acc = 0.0
    if col < cols:
        k = s
        while k < rows:
            acc += float(a[k, col]) * float(x[k])
            k += slices
    part[s, c] = acc
    yield  # barrier: every slice's partial sums in shared memory

    half = slices // 2
    while half > 0:
        if s < half:
            part[s, c] += part[s + half, c]
        yield
        half //= 2
    if s == 0 and col < cols:
        v = alpha * part[0, c]
        y[col] = v if beta == 0.0 else v + beta * y[col]


def simt_extract_row(t: ThreadCtx, a, i: int, out):
    """out := A[i, :], one thread per element — ``extract_row``'s mapping;
    given ``a.T`` it is ``extract_column``'s."""
    j = t.global_id
    if j < out.size:
        out[j] = a[i, j]
    return
    yield  # pragma: no cover - marks this as a generator function


def simt_write_row(t: ThreadCtx, a, i: int, row):
    """A[i, :] := row, one thread per element — ``write_row_kernel``."""
    j = t.global_id
    if j < row.size:
        a[i, j] = row[j]
    return
    yield  # pragma: no cover - marks this as a generator function


def simt_load_column(t: ThreadCtx, choice, a, out):
    """out := A[:, q] with q = choice[0] read on the device, one thread
    per element — the dense path of ``load_entering_column``."""
    q = int(choice[0])
    i = t.global_id
    if i < out.size:
        out[i] = a[i, q]
    return
    yield  # pragma: no cover - marks this as a generator function


def simt_ger(t: ThreadCtx, a, x, y, alpha: float = 1.0):
    """A := A + alpha · x yᵀ, one thread per element in A's memory order
    (consecutive threads take consecutive addresses) — ``blas.ger``, and
    with x = η − e_p and y = row p of B⁻¹ the exact per-thread body of the
    solver's basis-inverse update."""
    m, n = a.shape
    idx = t.global_id
    if idx < m * n:
        if a.strides[0] < a.strides[1]:  # column-major
            j, i = divmod(idx, m)
        else:
            i, j = divmod(idx, n)
        a[i, j] = a[i, j] + alpha * x[i] * y[j]
    return
    yield  # pragma: no cover - marks this as a generator function


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
    reduce within the warp as :func:`simt_gemv_split_line` does with one
    warp per row.  Given the arrays of a CSC matrix it computes Aᵀx, as
    ``spmv_csc_t`` does.
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
