"""Device-resident sparse matrices and SpMV kernels.

The sparse path of the GPU solver keeps the constraint matrix on the device
in CSC form (column extraction per iteration) and prices with a
CSR-transpose SpMV.  Both SpMVs use the CSR-vector mapping (Bell & Garland,
SC'09) that cuSPARSE-class code runs and that ``blas.gemv`` charges for
dense GEMV: one warp per output, whose lanes stride through the row's (or
column's) contiguous segment and then reduce in a warp tree
(``repro.gpu.simt.simt_spmv_csr_vector`` is the thread-level twin).

Costs charged to the device clock (itemsize ``w``, ``L`` outputs, ``nnz``
stored entries, 32-bit indices; ``seg`` is the bytes of the 64-byte
transactions the segments' values and indices span from where their
arrays sit, counted once when the matrix is built, so a one-entry segment
pays a whole transaction for each):

=============  ============  ================================================  ========
routine        FLOPs         main-memory traffic                               threads
=============  ============  ================================================  ========
spmv_csr       2·nnz         r seg + (L+1)·4 + nnz·w gathered, w L·w           32·L
spmv_csc_t     2·nnz (+2L)   r seg + (L+1)·4 + nnz·w gathered (+L·w), w L·w    32·L
scatter_col    0             r k·(w+4) + 8, w k·w (scattered)                  k
fill_zero      0             w m·w                                             m
=============  ============  ================================================  ========

Gathered x entries are charged uncoalesced (one transaction each); the
segments, the pointers, the β·y reads and the y writes stream.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu.memory import DeviceArray, DeviceRegion
from repro.gpu.transactions import spanned_bytes
from repro.perfmodel.ops import OpCost
from repro.sparse.base import segment_sums
from repro.sparse.csc import CscMatrix

#: Index width on the device (32-bit, as real sparse GPU kernels use).
INDEX_BYTES = 4


class _DeviceCompressed:
    """The three arrays of a compressed sparse matrix resident in device
    memory: ``indptr`` and ``indices`` (32-bit) and ``data``.

    The matrix takes the views named ``f"{name}.indptr"``,
    ``f"{name}.indices"`` and ``f"{name}.data"`` of a region its owner
    placed from :meth:`arrays`, alone or alongside other data; freeing the
    matrix frees that region.
    """

    def __init__(self, host, region: DeviceRegion, name: str = "a"):
        self.shape = host.shape
        self.nnz = host.nnz
        self.indptr = region[f"{name}.indptr"]
        self.indices = region[f"{name}.indices"]
        self.data = region[f"{name}.data"]
        self.dtype = self.data.dtype
        self.device = region.device
        #: Host-resident mirror of the segment pointers, captured at upload.
        #: Real sparse GPU codes keep the pointer array on the host for
        #: exactly this: the launch parameters of a segment kernel (lo, hi)
        #: are host scalars, and reading them from device memory would
        #: either cost a DtoH transfer per segment or silently bypass the
        #: device cost model.
        self.host_indptr = host.indptr.astype(np.int64, copy=True)
        #: Bytes of the transactions the segments' values and indices span,
        #: each array from where its region placed it: what the warps of a
        #: CSR-vector SpMV read of the matrix.
        tx = self.device.params.transaction_bytes
        self.segment_bytes = spanned_bytes(
            self.host_indptr, self.data.itemsize, tx, first=self.data.offset
        ) + spanned_bytes(
            self.host_indptr, INDEX_BYTES, tx, first=self.indices.offset
        )

    @staticmethod
    def arrays(host, dtype, name: str = "a") -> dict[str, np.ndarray]:
        """The host arrays to place, under the names the views take."""
        return {
            f"{name}.indptr": host.indptr.astype(np.int32),
            f"{name}.indices": host.indices.astype(np.int32),
            f"{name}.data": host.data.astype(dtype),
        }

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def free(self) -> None:
        self.data.free()


class DeviceCsrMatrix(_DeviceCompressed):
    """A CSR matrix resident in device memory."""


class DeviceCscMatrix(_DeviceCompressed):
    """A CSC matrix resident in device memory."""

    def __init__(self, host: CscMatrix, region: DeviceRegion, name: str = "a"):
        super().__init__(host, region, name)
        #: Nonzeros of the widest column: what a kernel that learns its
        #: column index on the device must be sized for.
        self.max_col_nnz = int(np.diff(self.host_indptr).max(initial=0))

    def getcol_device(self, j: int, out: DeviceArray) -> int:
        """Scatter column j into the dense device vector ``out``.

        Returns the column's nnz.  Two kernels on hardware: a fill and a
        scatter over the column's entries.
        """
        if not 0 <= j < self.shape[1]:
            raise DeviceArrayError(f"column {j} out of range for {self.shape}")
        if out.shape != (self.shape[0],):
            raise DeviceArrayError("output vector has wrong length")
        dev = self.device
        w = out.itemsize
        lo = int(self.host_indptr[j])
        hi = int(self.host_indptr[j + 1])
        col_nnz = hi - lo

        dev.launch(
            "sparse.fill_zero",
            lambda: out.data.fill(0),
            OpCost(bytes_written=out.nbytes, threads=max(1, out.size)),
            dtype=self.dtype,
            fusable=True,
            writes=(out,),
        )

        def scatter() -> None:
            rows = self.indices.data[lo:hi]
            out.data[rows] = self.data.data[lo:hi]

        dev.launch(
            "sparse.scatter_col",
            scatter,
            OpCost(
                bytes_read=col_nnz * (w + INDEX_BYTES) + 2 * INDEX_BYTES,
                bytes_written=col_nnz * w,
                threads=max(1, col_nnz),
                coalesced_fraction=0.25,  # scattered row-index writes
            ),
            dtype=self.dtype,
            fusable=True,
            writes=(out,),
        )
        return col_nnz


def _spmv_cost(
    a: _DeviceCompressed, w: int, out_len: int, beta: float
) -> OpCost:
    """The CSR-vector SpMV's cost: one warp per output; the segments are
    charged by the transactions they span, the gathered x entries
    uncoalesced, and pointers, β·y reads and y writes as streamed traffic."""
    gathered = a.nnz * w
    streamed = (
        a.segment_bytes
        + (out_len + 1) * INDEX_BYTES
        + (out_len * w if beta != 0.0 else 0)
    )
    written = out_len * w
    total = streamed + gathered + written
    return OpCost(
        flops=2 * a.nnz + (2 * out_len if beta != 0.0 else 0),
        bytes_read=streamed + gathered,
        bytes_written=written,
        threads=max(1, out_len) * a.device.params.warp_size,
        coalesced_fraction=1.0 - gathered / total,
    )


def spmv_csr(a: DeviceCsrMatrix, x: DeviceArray, y: DeviceArray) -> None:
    """y := A x for device CSR A (CSR-vector kernel: one warp per row)."""
    m, n = a.shape
    if x.shape != (n,) or y.shape != (m,):
        raise DeviceArrayError(
            f"spmv_csr shapes: A {a.shape}, x {x.shape}, y {y.shape}"
        )

    def body() -> None:
        host = a  # device-resident structure
        prods = host.data.data.astype(np.float64) * x.data[host.indices.data]
        y.data[:] = segment_sums(prods, host.indptr.data).astype(y.dtype)

    a.device.launch(
        "sparse.spmv_csr", body, _spmv_cost(a, x.itemsize, m, 0.0),
        dtype=a.dtype, reads=(x,), writes=(y,),
    )


def spmv_csc_t(
    a: DeviceCscMatrix,
    x: DeviceArray,
    y: DeviceArray,
    alpha: float = 1.0,
    beta: float = 0.0,
) -> None:
    """y := alpha · Aᵀ x + beta · y for device CSC A (the ``blas.gemv``
    convention).

    A CSC matrix read column-by-column *is* the CSR of Aᵀ, so this is the
    CSR-vector kernel with one warp per column of A — the pricing kernel's
    access pattern (reduced cost of every nonbasic column in one launch).
    ``beta = 1`` accumulates into y in place, so ``d := c − Aᵀπ`` is a copy
    of c followed by one launch, the copy→SpMV(β=1) pair the plan layer
    fuses.
    """
    m, n = a.shape
    if x.shape != (m,) or y.shape != (n,):
        raise DeviceArrayError(
            f"spmv_csc_t shapes: A {a.shape}, x {x.shape}, y {y.shape}"
        )
    alpha_t = y.dtype.type(alpha)
    beta_t = y.dtype.type(beta)

    def body() -> None:
        prods = a.data.data.astype(np.float64) * x.data[a.indices.data]
        s = segment_sums(prods, a.indptr.data).astype(y.dtype)
        if beta == 0.0:
            y.data[:] = s if alpha == 1.0 else alpha_t * s
        else:
            y.data[:] = alpha_t * s + beta_t * y.data

    a.device.launch(
        "sparse.spmv_csc_t", body, _spmv_cost(a, x.itemsize, n, beta),
        dtype=a.dtype, reads=(x, y) if beta != 0.0 else (x,), writes=(y,),
    )
