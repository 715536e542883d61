"""Device BLAS: the cuBLAS stand-in the GPU solver is written against.

Level-1 routines follow the cuBLAS convention of returning scalars to the
host (charged a latency-dominated DtoH transfer — a real per-iteration cost
of GPU simplex codes).  Level-2 GEMV uses a warp-per-row mapping, the layout
the paper's implementation relies on for coalesced access; GER maps one
thread per matrix element.

Costs charged to the device clock (itemsize ``w``):

=========  ==========  ======================================  ===========
routine    FLOPs       main-memory traffic                      threads
=========  ==========  ======================================  ===========
copy       0           r n·w, w n·w                             n
scal       n           r n·w, w n·w                             n
axpy       2n          r 2n·w, w n·w                            n
cast       n           r n·w_src, w n·w_dst                     n
dot        2n          r 2n·w (+ partials)                      n
nrm2       2n+√        r n·w (+ partials)                       n
gemv(N)    2mn         r (mn+n)·w, w m·w                        32·m
gemv(T)    2mn         r (mn+m)·w, w n·w                        32·n
ger        2mn         r (mn+m+n)·w, w mn·w                     m·n
=========  ==========  ======================================  ===========
"""

from __future__ import annotations

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
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
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

    Warp-per-row mapping (warp-per-column for the transposed case): each
    warp reduces one dot product with coalesced row segments.
    """
    dev, dtype, w = _prep(a, x, y)
    require_matrix("A", a)
    m, n = a.shape
    if not trans:
        require_vector("x", x, n)
        require_vector("y", y, m)
        out_len, in_len = m, n
    else:
        require_vector("x", x, m)
        require_vector("y", y, n)
        out_len, in_len = n, m

    alpha_t = dtype.type(alpha)
    beta_t = dtype.type(beta)

    def body() -> None:
        av = a.data if not trans else a.data.T
        if beta == 0.0:
            y.data[:] = alpha_t * (av @ x.data)
        else:
            y.data[:] = alpha_t * (av @ x.data) + beta_t * y.data

    extra = out_len * w if beta != 0.0 else 0
    cost = OpCost(
        flops=2 * m * n + (2 * out_len if beta != 0.0 else 0),
        bytes_read=m * n * w + in_len * w + extra,
        bytes_written=out_len * w,
        threads=out_len * dev.params.warp_size,
        # The transposed walk strides down columns; GT200 coalesces it only
        # partially without an explicit transpose, which the paper's layout
        # avoids for the hot path (we keep a mild penalty here).
        coalesced_fraction=1.0 if not trans else 0.85,
    )
    dev.launch(
        "blas.gemv_t" if trans else "blas.gemv",
        body,
        cost,
        dtype=dtype,
        reads=(a, x, y) if beta != 0.0 else (a, x),
        writes=(y,),
    )


def ger(
    x: DeviceArray,
    y: DeviceArray,
    a: DeviceArray,
    alpha: float = 1.0,
) -> None:
    """A := A + alpha · x yᵀ (``cublasSger``), one thread per element."""
    dev, dtype, w = _prep(x, y, a)
    require_matrix("A", a)
    m, n = a.shape
    require_vector("x", x, m)
    require_vector("y", y, n)
    alpha_t = dtype.type(alpha)

    def body() -> None:
        a.data[...] = a.data + alpha_t * np.outer(x.data, y.data)

    cost = OpCost(
        flops=2 * m * n,
        bytes_read=m * n * w + (m + n) * w,
        bytes_written=m * n * w,
        threads=m * n,
    )
    dev.launch(
        "blas.ger", body, cost, dtype=dtype, reads=(x, y, a), writes=(a,)
    )


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
