"""Device BLAS: the cuBLAS stand-in the GPU solver is written against.

Level-1 routines follow the cuBLAS convention of returning scalars to the
host (charged a latency-dominated DtoH transfer — a real per-iteration cost
of GPU simplex codes).  Level-2 routines read the layout of their matrix
(:attr:`~repro.gpu.memory.DeviceArray.layout`) and pick the thread mapping
that walks it along its lines (rows when row-major, columns when
column-major):

- GEMV whose outputs are the matrix's lines (y = A x row-major, y = Aᵀx
  column-major: FTRAN over B⁻¹ and pricing over A) runs k warps per
  output (:func:`warps_per_line`): the fewest, a power of two, whose
  threads fill the device, so long as every lane reads a word and a
  line's warps share a block.  The lanes of a line's k warps stride
  across it together, so each half-warp instruction still reads 16
  consecutive words, and the line's segments are those one warp reads;
  each warp reduces in a tree, the k warp sums reduce in shared memory,
  and a block's 8/k lines write their outputs together.
- GEMV whose outputs run along the lines (y = Aᵀx row-major: π = B⁻ᵀc_B
  over B⁻¹) runs 16-output × 16-slice tiles of 256 threads: the lanes of
  a half-warp read 16 consecutive words of a line (GT200 coalesces per
  half-warp, so a 16-word run is as whole as a 32-word one and the grid
  has twice the blocks), the 16 half-warps take every 16th line, and the
  slices reduce in shared memory.  No grid barrier, so it is one launch.
- GER maps one thread per matrix element in memory order.

Their main-memory traffic is charged as the 64-byte segments their
half-warp instructions touch where the operands sit
(:mod:`repro.gpu.transactions`), so the cost carries no coalescing guess.
The vector operands every warp re-reads (GEMV's x, GER's x and y) go
through the read-only texture cache: each of their segments is fetched
once per launch.  Each launch also reports what it charged for reading
each operand (``read_bytes``), so a fused launch that keeps a re-read
operand in registers is credited in the units it was charged.
``repro.gpu.simt`` holds a thread-level twin of each mapping whose
counted transactions equal the charge.

Costs charged to the device clock (itemsize ``w``; ``seg(·)`` is the
bytes of the segments an operand's accesses touch):

=========  ==========  ========================================  ==============
routine    FLOPs       main-memory traffic                        threads
=========  ==========  ========================================  ==============
copy       0           r n·w, w n·w                               n
scal       n           r n·w, w n·w                               n
axpy       2n          r 2n·w, w n·w                              n
cast       n           r n·w_src, w n·w_dst                       n
dot        2n          r 2n·w (+ partials)                        n
nrm2       2n+√        r n·w (+ partials)                         n
gemv       2mn         r seg(A by lines) + seg(x) (+seg(y)),      32·k per output
                       w seg(y)                                   or 256 per 16
ger        2mn         r seg(A) + seg(x) + seg(y), w seg(A)       m·n
=========  ==========  ========================================  ==============
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu._checks import (
    require_device_array,
    require_float_dtype,
    require_matrix,
    require_same_device,
    require_same_dtype,
    require_vector,
)
from repro.gpu import transactions as tx
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import COLUMN_MAJOR, DeviceArray
from repro.perfmodel.ops import OpCost


def _prep(*arrays: DeviceArray) -> tuple[Device, np.dtype, int]:
    """Common validation; returns (device, dtype, itemsize)."""
    for i, a in enumerate(arrays):
        require_device_array(f"arg{i}", a)
        require_float_dtype(f"arg{i}", a)
    require_same_device(*arrays)
    dtype = require_same_dtype(*arrays)
    return arrays[0].device, dtype, np.dtype(dtype).itemsize


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------


def copy(x: DeviceArray, y: DeviceArray) -> None:
    """y := x (``cublasScopy``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size
    dev.launch(
        "blas.copy",
        lambda: y.data.__setitem__(slice(None), x.data),
        OpCost(bytes_read=n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x,),
        writes=(y,),
    )


def scal(alpha: float, x: DeviceArray) -> None:
    """x := alpha * x (``cublasSscal``)."""
    dev, dtype, w = _prep(x)
    require_vector("x", x)
    n = x.size
    dev.launch(
        "blas.scal",
        lambda: x.data.__imul__(dtype.type(alpha)),
        OpCost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x,),
        writes=(x,),
    )


def axpy(alpha: float, x: DeviceArray, y: DeviceArray) -> None:
    """y := alpha * x + y (``cublasSaxpy``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size

    def body() -> None:
        y.data[:] = y.data + dtype.type(alpha) * x.data

    dev.launch(
        "blas.axpy",
        body,
        OpCost(flops=2 * n, bytes_read=2 * n * w, bytes_written=n * w, threads=n),
        dtype=dtype,
        fusable=True,
        reads=(x, y),
        writes=(y,),
    )


def _reduction_launches(dev: Device, name: str, n: int, w: int, dtype,
                        flops_per_elem: float) -> None:
    """Charge the tree-reduction passes that follow a level-1 map kernel."""
    remaining = -(-n // (2 * 256))
    while remaining > 1:
        nxt = -(-remaining // (2 * 256))
        dev.launch(
            name,
            lambda: None,
            OpCost(
                flops=flops_per_elem * remaining,
                bytes_read=remaining * w,
                bytes_written=nxt * w,
                threads=max(1, remaining // 2),
            ),
            dtype=dtype,
        )
        remaining = nxt


def dot(x: DeviceArray, y: DeviceArray) -> float:
    """Return xᵀy on the host (``cublasSdot``)."""
    dev, dtype, w = _prep(x, y)
    require_vector("x", x)
    require_vector("y", y, x.size)
    n = x.size
    out = np.zeros((), dtype=dtype)

    def body() -> None:
        out[...] = x.data @ y.data

    partials = -(-n // (2 * 256))
    dev.launch(
        "blas.dot",
        body,
        OpCost(
            flops=2 * n,
            bytes_read=2 * n * w,
            bytes_written=partials * w,
            threads=n,
        ),
        dtype=dtype,
    )
    _reduction_launches(dev, "blas.dot", n, w, dtype, 1.0)
    dev._record_transfer("dtoh", w)
    return float(out)


def nrm2(x: DeviceArray) -> float:
    """Return ‖x‖₂ on the host (``cublasSnrm2``)."""
    dev, dtype, w = _prep(x)
    require_vector("x", x)
    n = x.size
    out = np.zeros((), dtype=np.float64)

    def body() -> None:
        out[...] = np.sqrt(np.sum(x.data.astype(np.float64) ** 2))

    partials = -(-n // (2 * 256))
    dev.launch(
        "blas.nrm2",
        body,
        OpCost(flops=2 * n, bytes_read=n * w, bytes_written=partials * w, threads=n),
        dtype=dtype,
    )
    _reduction_launches(dev, "blas.nrm2", n, w, dtype, 1.0)
    dev._record_transfer("dtoh", w)
    return float(out)


def cast(x: DeviceArray, out: DeviceArray) -> None:
    """out := x converted to ``out``'s dtype — the explicit fp32↔fp64 kernel.

    Mixed-precision schemes round-trip vectors between precisions.  The
    conversion is a real kernel with real traffic (read at the source width,
    write at the destination width), never a silent free view — which is why
    ``_prep`` keeps its strict same-dtype rule for every other routine.
    """
    for name, a in (("x", x), ("out", out)):
        require_device_array(name, a)
        require_float_dtype(name, a)
    require_same_device(x, out)
    require_vector("x", x)
    require_vector("out", out, x.size)
    if x.dtype == out.dtype:
        raise DeviceArrayError(
            "blas.cast source and destination share a dtype; use blas.copy"
        )
    n = x.size
    w_src = x.dtype.itemsize
    w_dst = out.dtype.itemsize
    dst_t = out.dtype

    def body() -> None:
        out.data[:] = x.data.astype(dst_t)

    x.device.launch(
        "blas.cast",
        body,
        OpCost(
            flops=n,
            bytes_read=n * w_src,
            bytes_written=n * w_dst,
            threads=max(1, n),
        ),
        dtype=out.dtype,
        fusable=True,
        reads=(x,),
        writes=(out,),
    )


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------


def gemv(
    a: DeviceArray,
    x: DeviceArray,
    y: DeviceArray,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
) -> None:
    """y := alpha · op(A) x + beta · y, with op(A) = A or Aᵀ (``cublasSgemv``).

    k warps per output when the outputs are A's lines, a 16-output tile
    of 256 threads when they run along the lines (see the module
    docstring); either way the matrix is read along its layout.
    """
    dev, dtype, w = _prep(a, x, y)
    require_matrix("A", a)
    m, n = a.shape
    if not trans:
        require_vector("x", x, n)
        require_vector("y", y, m)
    else:
        require_vector("x", x, m)
        require_vector("y", y, n)

    alpha_t = dtype.type(alpha)
    beta_t = dtype.type(beta)

    def body() -> None:
        av = a.data if not trans else a.data.T
        if beta == 0.0:
            y.data[:] = alpha_t * (av @ x.data)
        else:
            y.data[:] = alpha_t * (av @ x.data) + beta_t * y.data

    cost, read_bytes = _gemv_cost(a, x, y, trans, beta != 0.0)
    dev.launch(
        "blas.gemv_t" if trans else "blas.gemv",
        body,
        cost,
        dtype=dtype,
        reads=(a, x, y) if beta != 0.0 else (a, x),
        writes=(y,),
        read_bytes=read_bytes,
    )


def _gemv_cost(
    a: DeviceArray, x: DeviceArray, y: DeviceArray, trans: bool,
    accumulate: bool,
) -> tuple[OpCost, dict]:
    """What :func:`gemv` charges, and its read of each operand: the
    segments its mapping touches where the operands sit."""
    p = a.device.params
    t = p.transaction_bytes
    cost, a_read, x_read, y_read = _gemv_shape_cost(
        a.shape, a.itemsize, a.layout, trans, accumulate, p,
        a.offset % t, x.offset % t, y.offset % t,
    )
    return cost, {a: a_read, x: x_read, y: y_read}


def warps_per_line(lines: int, length: int, p) -> int:
    """The k warps a line-walking GEMV gives each of its ``lines`` lines of
    ``length`` words: the fewest, a power of two, whose lines·32·k threads
    fill the device, but no more than leave every lane a word
    (32·k ≤ length) and no more than one block holds (a line's warps share
    a block)."""
    k = 1
    while (lines * p.warp_size * k < p.concurrent_threads
           and 2 * k * p.warp_size <= min(length, DEFAULT_BLOCK)):
        k *= 2
    return k


@functools.lru_cache(maxsize=256)
def _gemv_shape_cost(shape, w, layout, trans, accumulate, p, a_at, x_at, y_at):
    m, n = shape
    t = p.transaction_bytes
    half = p.warp_size // 2
    out_len, in_len = (n, m) if trans else (m, n)
    if trans == (layout == COLUMN_MAJOR):
        # k warps per line; a block's lines write their outputs together
        k = warps_per_line(out_len, in_len, p)
        threads = out_len * p.warp_size * k
        y_bytes = tx.run_bytes(
            out_len, w, y_at, DEFAULT_BLOCK // (p.warp_size * k), t
        )
    else:
        # tiles of 16 outputs × 16 line slices; half-warp 0 writes the
        # outputs
        threads = -(-out_len // half) * DEFAULT_BLOCK
        y_bytes = tx.run_bytes(out_len, w, y_at, half, t)
    lines = (n, m) if layout == COLUMN_MAJOR else (m, n)
    a_read = tx.walk_bytes(*lines, w, a_at, half, t)
    x_read = tx.span_bytes(in_len, w, x_at, t)
    y_read = y_bytes if accumulate else 0
    cost = OpCost(
        flops=2 * m * n + (2 * out_len if accumulate else 0),
        bytes_read=a_read + x_read + y_read,
        bytes_written=y_bytes,
        threads=threads,
    )
    return cost, a_read, x_read, y_read


def ger(
    x: DeviceArray,
    y: DeviceArray,
    a: DeviceArray,
    alpha: float = 1.0,
) -> None:
    """A := A + alpha · x yᵀ (``cublasSger``), one thread per element in
    A's memory order."""
    dev, dtype, w = _prep(x, y, a)
    require_matrix("A", a)
    m, n = a.shape
    require_vector("x", x, m)
    require_vector("y", y, n)
    alpha_t = dtype.type(alpha)

    def body() -> None:
        a.data[...] = a.data + alpha_t * np.outer(x.data, y.data)

    cost, read_bytes = ger_cost(x, y, a)
    dev.launch(
        "blas.ger", body, cost, dtype=dtype, reads=(x, y, a), writes=(a,),
        read_bytes=read_bytes,
    )


def ger_cost(x: DeviceArray, y: DeviceArray, a: DeviceArray) -> tuple[OpCost, dict]:
    """What a rank-1 update of ``a`` charges, and its read of each operand:
    A read and written in coalesced runs whatever its layout, x and y
    through the texture cache."""
    p = a.device.params
    t = p.transaction_bytes
    cost, a_read, x_read, y_read = _ger_shape_cost(
        a.shape, a.itemsize, p, a.offset % t, x.offset % t, y.offset % t
    )
    return cost, {a: a_read, x: x_read, y: y_read}


@functools.lru_cache(maxsize=256)
def _ger_shape_cost(shape, w, p, a_at, x_at, y_at):
    m, n = shape
    t = p.transaction_bytes
    matrix = tx.run_bytes(m * n, w, a_at, p.warp_size // 2, t)
    x_read = tx.span_bytes(m, w, x_at, t)
    y_read = tx.span_bytes(n, w, y_at, t)
    cost = OpCost(
        flops=2 * m * n,
        bytes_read=matrix + x_read + y_read,
        bytes_written=matrix,
        threads=m * n,
    )
    return cost, matrix, x_read, y_read


# ---------------------------------------------------------------------------
# Elementwise helpers used by the solver (not in BLAS proper, but standard
# device utility kernels).
# ---------------------------------------------------------------------------


def fill(x: DeviceArray, value: float) -> None:
    """x[:] := value."""
    dev, dtype, w = _prep(x)
    n = x.size
    dev.launch(
        "blas.fill",
        lambda: x.data.fill(dtype.type(value)),
        OpCost(bytes_written=n * w, threads=max(1, n)),
        dtype=dtype,
        fusable=True,
        writes=(x,),
    )
