"""Solver-specific device kernels of the GPU simplex implementations.

Everything here is a thin kernel over :class:`~repro.gpu.device.Device` with
an explicit cost, mirroring the custom (non-cuBLAS) kernels a CUDA port
writes around the BLAS calls: the ratio-test map, eta-column construction,
the β update, masked pricing preparation and entering selection, and
matrix row/column extraction, plus the basis-swap bookkeeping those
launches carry as scalar stores.

Layout: each dense matrix carries its layout from where it is placed
(:attr:`~repro.gpu.memory.DeviceArray.layout`), and every kernel here that
reads or writes one charges the 64-byte segments its thread mapping
touches in that layout (:mod:`repro.gpu.transactions`).  The revised
backends place A **column-major**, as the paper's cuBLAS code holds it:
pricing's ``blas.gemv(trans=True)`` walks contiguous columns (k warps
per column, :func:`~repro.gpu.blas.warps_per_line`), and the
entering-column load (:func:`load_entering_column`) reads one contiguous
column.  The basis inverse B⁻¹ is **row-major**: FTRAN's GEMV walks its
rows the same way, the eta
update reads row p (:func:`extract_row`) contiguously, and the stale-π
multiply π = B⁻ᵀc_B is the one walk across a row-major matrix, which
GEMV runs as 16-column tiles.  The tableau T is **column-major**: its
entering-column load is contiguous, while the pivot row's read
(:func:`extract_row`) and write (:func:`write_row_kernel`) stride across
columns and pay a segment per element.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu import blas
from repro.gpu import transactions as tx
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.sparse_kernels import INDEX_BYTES, DeviceCscMatrix
from repro.perfmodel.ops import OpCost
from repro.simplex.ratio import bounded_ratios

#: Value standing in for +inf in the ratio vector (a float32-safe infinity).
#: Kernels must materialise it **in the vector's own dtype**
#: (``arr.dtype.type(RATIO_INF)``): a bare ``np.inf`` is a Python float, and
#: ``np.where(cond, fp32_arr, np.inf)`` silently promotes the whole result to
#: fp64 mid-kernel under pre-NEP50 promotion rules.
RATIO_INF = np.inf


def tie_cut(theta: float) -> float:
    """The Harris-style cut of the Bland-compatible ratio test: rows whose
    ratio is within this bound of the minimum θ count as tied."""
    return theta * (1.0 + 1e-6) + 1e-30


@dataclasses.dataclass(frozen=True)
class ScalarStores:
    """Single-element stores a kernel performs after its main body.

    A GPU simplex changes a handful of device-resident scalars per pivot:
    the entering and leaving mask bits, the new c_B entry, the basis key of
    the pivot row.  Issued from the host, each one is a latency-bound HtoD
    transfer.  Instead the host passes the ``(buffer, index, value)``
    triples as parameters of a launch that already runs; its cost carries
    the extra bytes and its ``writes`` name the buffers.
    """

    items: tuple[tuple[DeviceArray, int, float], ...] = ()

    def __add__(self, other: "ScalarStores") -> "ScalarStores":
        return ScalarStores(self.items + other.items)

    def apply(self) -> None:
        """Perform the stores (called from inside a kernel body)."""
        for buf, index, value in self.items:
            buf.data[index] = value

    @property
    def nbytes(self) -> int:
        return sum(buf.itemsize for buf, _, _ in self.items)

    @property
    def buffers(self) -> tuple[DeviceArray, ...]:
        return tuple(buf for buf, _, _ in self.items)


def basis_swap(st, p: int, q: int, c_q: float, n_mask: int) -> ScalarStores:
    """Exchange row ``p``'s basic variable for ``q``.

    ``st`` is a backend state holding the host bookkeeping (``basis``,
    ``in_basis``) and the device buffers ``mask``, ``c_b`` and
    ``basis_keys``.  The host arrays change in place; the device side comes
    back as stores for the next update launch: q's mask bit cleared and the
    leaving variable's set (for columns below ``n_mask`` only),
    ``c_b[p] := c_q`` and ``basis_keys[p] := q``.
    """
    leaving = int(st.basis[p])
    st.in_basis[leaving] = False
    st.in_basis[q] = True
    st.basis[p] = q
    items = []
    if q < n_mask:
        items.append((st.mask, q, 0.0))
    if leaving < n_mask:
        items.append((st.mask, leaving, 1.0))
    items += [(st.c_b, p, c_q), (st.basis_keys, p, float(q))]
    return ScalarStores(tuple(items))


def _copy_cost(matrix_bytes: int, vector: DeviceArray, *,
               into_matrix: bool = False) -> OpCost:
    """One thread per element moving the words of ``vector``, read or
    written in coalesced runs, to or from a dense matrix (``matrix_bytes``,
    by its layout)."""
    run = tx.vector_bytes(vector)
    read, written = (run, matrix_bytes) if into_matrix else (matrix_bytes, run)
    return OpCost(bytes_read=read, bytes_written=written,
                  threads=max(1, vector.size))


def extract_column(dev: Device, a: DeviceArray, j: int, out: DeviceArray) -> None:
    """out := A[:, j] for a dense device matrix: a contiguous read when A
    is column-major (the tableau T), a segment per element when it is
    row-major."""
    m, n = a.shape
    if not 0 <= j < n:
        raise DeviceArrayError(f"column {j} out of range for {a.shape}")
    if out.shape != (m,):
        raise DeviceArrayError("output vector has wrong length")
    def body() -> None:
        out.data[:] = a.data[:, j]

    dev.launch(
        "kernel.extract_col",
        body,
        _copy_cost(tx.column_bytes(a, j), out),
        dtype=a.dtype,
        fusable=True,
        # the matrix is *partially* read (one column), so it must not be
        # declared a fusion-resident operand — only the output vector is
        writes=(out,),
    )


def extract_row(dev: Device, a: DeviceArray, i: int, out: DeviceArray) -> None:
    """out := A[i, :] for a dense device matrix: a contiguous read when A
    is row-major (B⁻¹), a segment per element when it is column-major
    (the tableau)."""
    m, n = a.shape
    if not 0 <= i < m:
        raise DeviceArrayError(f"row {i} out of range for {a.shape}")
    if out.shape != (n,):
        raise DeviceArrayError("output vector has wrong length")
    def body() -> None:
        out.data[:] = a.data[i, :]

    dev.launch(
        "kernel.extract_row",
        body,
        _copy_cost(tx.row_bytes(a, i), out),
        dtype=a.dtype,
        fusable=True,
        # partial read of the matrix (one row): not a resident operand
        writes=(out,),
    )


def unit_vector(dev: Device, out: DeviceArray, i: int) -> None:
    """out := e_i (artificial-column synthesis: fill + one scatter)."""
    if not 0 <= i < out.size:
        raise DeviceArrayError(f"index {i} out of range for e_i of size {out.size}")
    w = out.itemsize

    def body() -> None:
        out.data.fill(0)
        out.data[i] = 1

    dev.launch(
        "kernel.unit_vector",
        body,
        OpCost(bytes_written=out.nbytes + w, threads=max(1, out.size)),
        dtype=out.dtype,
        fusable=True,
        writes=(out,),
    )


def load_entering_column(
    dev: Device,
    choice: DeviceArray,
    out: DeviceArray,
    *,
    n_real: int,
    dense: "DeviceArray | None" = None,
    csc: "DeviceCscMatrix | None" = None,
) -> None:
    """out := column q of the constraint data, with q read on the device.

    ``choice[0]`` holds the pricing reduction's entering index, so the
    host launches this before it knows q.  One kernel covers every case:
    a column of the ``dense`` matrix (read by its layout, with q through
    the texture cache), a scatter of column q of the device CSC matrix
    ``csc``, or the artificial e_{q − n_real} for q ≥ ``n_real``.  When
    pricing found no entering column (``NO_INDEX``) it writes zeros, so
    FTRAN and the ratio test of an optimal iteration run on a null column.
    The cost is sized for the costliest column.
    """
    m = out.size
    w = out.itemsize
    read_bytes = None
    if csc is not None:
        indices, values = csc.indices, csc.data
        indptr = csc.host_indptr
        widest = csc.max_col_nnz
        # the fill of the CSC path's two-kernel getcol, plus its scatter
        # (scattered row-index writes) sized for the widest column
        cost = OpCost.fuse(
            OpCost(bytes_read=w, bytes_written=m * w, threads=max(1, m)),
            OpCost(
                bytes_read=widest * (w + INDEX_BYTES) + 2 * INDEX_BYTES,
                bytes_written=widest * w,
                threads=max(1, widest),
                coalesced_fraction=0.25,
            ),
        )
    else:
        # q is one word of choice, read through the texture cache
        choice_read = tx.span_bytes(
            1, w, choice.offset, dev.params.transaction_bytes
        )
        cost = _copy_cost(choice_read + tx.widest_column_bytes(dense), out)
        read_bytes = {choice: choice_read}

    def body() -> None:
        j = int(choice.data[0])
        col = out.data
        if 0 <= j < n_real and csc is None:
            col[:] = dense.data[:, j]
            return
        col.fill(0)
        if j >= n_real:
            col[j - n_real] = 1
        elif j >= 0:
            lo, hi = indptr[j], indptr[j + 1]
            col[indices.data[lo:hi]] = values.data[lo:hi]

    dev.launch(
        "kernel.load_col",
        body,
        cost,
        dtype=out.dtype,
        fusable=True,
        # the matrix is *partially* read (one column), so it is not a
        # fusion-resident operand — only the choice and the output are
        reads=(choice,),
        writes=(out,),
        read_bytes=read_bytes,
    )


def ratio_kernel(
    dev: Device,
    beta: DeviceArray,
    alpha: DeviceArray,
    ratios: DeviceArray,
    tol_pivot: float,
) -> None:
    """ratios[i] := β_i/α_i where α_i > tol, +inf elsewhere.

    The per-row map of the ratio test; the branch makes warps mildly
    divergent, which the cost carries.
    """
    m = beta.size
    if alpha.size != m or ratios.size != m:
        raise DeviceArrayError("ratio kernel operand size mismatch")
    w = beta.itemsize
    tol = beta.dtype.type(tol_pivot)
    inf = ratios.dtype.type(RATIO_INF)

    def body() -> None:
        a = alpha.data
        positive = a > tol
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(positive, beta.data / np.where(positive, a, 1), inf)
        # feasible β cannot produce negative ratios except via round-off
        ratios.data[:] = np.where(r < 0, 0, r).astype(ratios.dtype)

    dev.launch(
        "kernel.ratio",
        body,
        OpCost(
            flops=2 * m,
            bytes_read=2 * m * w,
            bytes_written=m * w,
            threads=max(1, m),
            divergent_fraction=0.15,
        ),
        dtype=beta.dtype,
        fusable=True,
        reads=(beta, alpha),
        writes=(ratios,),
    )


def tie_break_key_kernel(
    dev: Device,
    ratios: DeviceArray,
    best: DeviceArray,
    basis_keys: DeviceArray,
    out: DeviceArray,
) -> None:
    """out[i] := basis_keys[i] where ratios[i] <= cut, +inf elsewhere.

    Second pass of the Bland-compatible ratio test: among the rows tied at
    the minimum ratio, the leaving variable must be the one with the lowest
    *variable index* (not row index) for the anti-cycling guarantee to hold.
    ``basis_keys`` holds each row's basic-variable index as a float.  θ
    comes from ``best[1]``, where the device-resident arg-min over the
    ratios left it, and the cut is :func:`tie_cut` of it.
    """
    m = ratios.size
    if basis_keys.size != m or out.size != m:
        raise DeviceArrayError("tie-break kernel operand size mismatch")
    w = ratios.itemsize
    inf = out.dtype.type(RATIO_INF)

    def body() -> None:
        cut = ratios.dtype.type(tie_cut(float(best.data[1])))
        out.data[:] = np.where(ratios.data <= cut, basis_keys.data, inf).astype(
            out.dtype
        )

    dev.launch(
        "kernel.tie_break",
        body,
        OpCost(
            flops=m,
            bytes_read=2 * m * w + w,
            bytes_written=m * w,
            threads=max(1, m),
            divergent_fraction=0.05,
        ),
        dtype=ratios.dtype,
        fusable=True,
        reads=(ratios, best, basis_keys),
        writes=(out,),
    )


def eta_kernel(
    dev: Device,
    alpha: DeviceArray,
    p: int,
    pivot: float,
    out: DeviceArray,
    stores: ScalarStores = ScalarStores(),
) -> None:
    """out := η − e_p, the rank-1 factor of the basis-inverse update.

    η_i = −α_i/α_p (i ≠ p), η_p = 1/α_p; subtracting e_p folds the
    "replace row p" correction into a single GER:
    ``B⁻¹ += (η − e_p) ⊗ (B⁻¹)_{p,·}``.  ``stores`` run after it.
    """
    m = alpha.size
    if out.size != m:
        raise DeviceArrayError("eta kernel operand size mismatch")
    if pivot == 0.0:
        raise DeviceArrayError("eta kernel called with zero pivot")
    w = alpha.itemsize
    inv_piv = alpha.dtype.type(1.0 / pivot)

    def body() -> None:
        out.data[:] = -alpha.data * inv_piv
        out.data[p] = inv_piv - out.dtype.type(1.0)
        stores.apply()

    dev.launch(
        "kernel.eta",
        body,
        OpCost(
            flops=2 * m,
            bytes_read=m * w,
            bytes_written=m * w + stores.nbytes,
            threads=max(1, m),
        ),
        dtype=alpha.dtype,
        fusable=True,
        reads=(alpha,),
        writes=(out, *stores.buffers),
    )


def update_beta_kernel(
    dev: Device,
    beta: DeviceArray,
    alpha: DeviceArray,
    theta: float,
    p: int,
    stores: ScalarStores = ScalarStores(),
) -> None:
    """β := max(β − θα, 0) elementwise, then β_p := θ (one fused kernel).

    ``stores`` carry the pivot's basis-swap bookkeeping (see
    :func:`basis_swap`); they run after the β update."""
    m = beta.size
    if alpha.size != m:
        raise DeviceArrayError("beta update operand size mismatch")
    w = beta.itemsize
    theta_t = beta.dtype.type(theta)

    def body() -> None:
        b = beta.data
        b -= theta_t * alpha.data
        np.clip(b, 0, None, out=b)
        b[p] = theta_t
        stores.apply()

    dev.launch(
        "kernel.update_beta",
        body,
        OpCost(
            flops=3 * m,
            bytes_read=2 * m * w,
            bytes_written=m * w + stores.nbytes,
            threads=max(1, m),
        ),
        dtype=beta.dtype,
        fusable=True,
        reads=(beta, alpha),
        writes=(beta, *stores.buffers),
    )


def clamp_nonneg_kernel(dev: Device, x: DeviceArray) -> None:
    """x := max(x, 0) elementwise — the β feasibility clamp after a rebuild."""
    n = x.size
    w = x.itemsize

    def body() -> None:
        np.clip(x.data, 0, None, out=x.data)

    dev.launch(
        "kernel.clamp",
        body,
        OpCost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=max(1, n)),
        dtype=x.dtype,
        fusable=True,
        reads=(x,),
        writes=(x,),
    )


def masked_for_min(
    dev: Device,
    values: DeviceArray,
    mask: DeviceArray,
    out: DeviceArray,
) -> None:
    """out[i] := values[i] where mask[i] != 0, +inf elsewhere.

    Prepares the pricing vector for the arg-min reduction (basic and
    otherwise ineligible columns masked out).
    """
    n = values.size
    if mask.size != n or out.size != n:
        raise DeviceArrayError("mask kernel operand size mismatch")
    w = values.itemsize
    inf = out.dtype.type(RATIO_INF)

    def body() -> None:
        out.data[:] = np.where(mask.data != 0, values.data, inf).astype(out.dtype)

    dev.launch(
        "kernel.mask_min",
        body,
        OpCost(
            flops=n,
            bytes_read=2 * n * w,
            bytes_written=n * w,
            threads=max(1, n),
            divergent_fraction=0.05,
        ),
        dtype=values.dtype,
        fusable=True,
        reads=(values, mask),
        writes=(out,),
    )


def select_entering(
    sec, work: DeviceArray, choice: DeviceArray, tol: float, bland: bool
) -> None:
    """Leave (q, d_q) of the masked reduced costs ``work`` in ``choice`` on
    the device: the lowest index below −tol under Bland, the arg-min below
    −tol otherwise (``NO_INDEX`` when no column prices in).  ``sec`` is the
    open pricing :class:`~repro.gpu.plan.LaunchPlan` section."""
    if bland:
        sec.first_below_to_device(work, -tol, choice)
    else:
        sec.argmin_to_device(work, choice, below=-tol)


def masked_signed_for_min(
    dev: Device,
    values: DeviceArray,
    mask: DeviceArray,
    sigma: DeviceArray,
    out: DeviceArray,
) -> None:
    """out[i] := sigma[i]·values[i] where mask[i] != 0, +inf elsewhere.

    The bounded-variable pricing map: σ = +1 for nonbasic-at-lower columns
    (improve when d < 0), σ = −1 for nonbasic-at-upper columns (improve when
    d > 0); the arg-min over σ·d finds the best candidate of either kind.
    """
    n = values.size
    if mask.size != n or out.size != n or sigma.size != n:
        raise DeviceArrayError("signed mask kernel operand size mismatch")
    w = values.itemsize
    inf = out.dtype.type(RATIO_INF)

    def body() -> None:
        out.data[:] = np.where(
            mask.data != 0, sigma.data * values.data, inf
        ).astype(out.dtype)

    dev.launch(
        "kernel.mask_signed_min",
        body,
        OpCost(
            flops=2 * n,
            bytes_read=3 * n * w,
            bytes_written=n * w,
            threads=max(1, n),
            divergent_fraction=0.05,
        ),
        dtype=values.dtype,
        fusable=True,
        reads=(values, mask, sigma),
        writes=(out,),
    )


def bounded_ratio_kernel(
    dev: Device,
    x_b: DeviceArray,
    alpha: DeviceArray,
    u_basis: DeviceArray,
    sigma: DeviceArray,
    choice: DeviceArray,
    tol_pivot: float,
    ratios: DeviceArray,
    to_upper: DeviceArray,
) -> None:
    """The three-way bounded ratio-test map.

    With the entering variable q moving by σ·t (t >= 0), each basic moves
    at rate δ_i = −σ·α_i; q comes from the device-resident pricing
    ``choice`` and σ = ``sigma[q]`` (+1 when pricing found none).  Per row:

    - δ < −tol: blocks at its lower bound after t = x_i / (−δ),
    - δ > +tol and u_i finite: blocks at its upper after t = (u_i − x_i)/δ,
    - otherwise never blocks (ratio +inf).

    ``ratios`` gets the blocking step; ``to_upper`` is 1 where the blocking
    event is the *upper* bound (the leaving variable parks at u).
    """
    m = x_b.size
    if alpha.size != m or u_basis.size != m or ratios.size != m or to_upper.size != m:
        raise DeviceArrayError("bounded ratio kernel operand size mismatch")
    w = x_b.itemsize
    tol = x_b.dtype.type(tol_pivot)
    one = x_b.dtype.type(1.0)

    def body() -> None:
        q = int(choice.data[0])
        s = sigma.data[q] if q >= 0 else one
        t_dec, t_inc = bounded_ratios(
            x_b.data.astype(np.float64),
            (-s * alpha.data).astype(np.float64),
            u_basis.data.astype(np.float64),
            tol,
        )
        ratios.data[:] = np.minimum(t_dec, t_inc).astype(ratios.dtype)
        to_upper.data[:] = (t_inc < t_dec).astype(to_upper.dtype)

    dev.launch(
        "kernel.bounded_ratio",
        body,
        OpCost(
            flops=6 * m,
            bytes_read=3 * m * w + 2 * w,
            bytes_written=2 * m * w,
            threads=max(1, m),
            divergent_fraction=0.2,
        ),
        dtype=x_b.dtype,
        fusable=True,
        # σ and the choice are read one element each: not resident operands
        reads=(x_b, alpha, u_basis),
        writes=(ratios, to_upper),
    )


def bounded_update_beta_kernel(
    dev: Device,
    beta: DeviceArray,
    alpha: DeviceArray,
    step: float,
    p: int,
    p_value: float,
    stores: ScalarStores = ScalarStores(),
) -> None:
    """β := clip(β + step·α, 0, ·), then β_p := p_value.

    The bounded update: ``step = −σθ`` folds the direction in, and the
    pivot row receives the entering variable's new value (θ from lower,
    u_q − θ from upper).  ``p < 0`` skips the pivot write (bound flips).
    ``stores`` (the basis swap, or a flip's σ sign) run last."""
    m = beta.size
    if alpha.size != m:
        raise DeviceArrayError("bounded beta update operand size mismatch")
    w = beta.itemsize
    s = beta.dtype.type(step)

    def body() -> None:
        b = beta.data
        b += s * alpha.data
        np.clip(b, 0, None, out=b)
        if p >= 0:
            b[p] = beta.dtype.type(p_value)
        stores.apply()

    dev.launch(
        "kernel.bounded_update_beta",
        body,
        OpCost(
            flops=3 * m,
            bytes_read=2 * m * w,
            bytes_written=m * w + stores.nbytes,
            threads=max(1, m),
        ),
        dtype=beta.dtype,
        fusable=True,
        reads=(beta, alpha),
        writes=(beta, *stores.buffers),
    )


def scale_row_kernel(
    dev: Device, src_row: DeviceArray, inv_pivot: float, out: DeviceArray
) -> None:
    """out := src_row · (1/pivot) — the pivot-row normalisation of the
    tableau method (kept separate from BLAS scal: different buffers)."""
    n = src_row.size
    if out.size != n:
        raise DeviceArrayError("row scale operand size mismatch")
    w = src_row.itemsize
    s = src_row.dtype.type(inv_pivot)

    def body() -> None:
        out.data[:] = src_row.data * s

    dev.launch(
        "kernel.scale_row",
        body,
        OpCost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=max(1, n)),
        dtype=src_row.dtype,
        fusable=True,
        reads=(src_row,),
        writes=(out,),
    )


def write_row_kernel(dev: Device, mat: DeviceArray, i: int, row: DeviceArray) -> None:
    """mat[i, :] := row: a coalesced write when ``mat`` is row-major, a
    segment per element when it is column-major (the tableau's pivot
    row)."""
    m, n = mat.shape
    if not 0 <= i < m or row.size != n:
        raise DeviceArrayError("row write operand mismatch")
    def body() -> None:
        mat.data[i, :] = row.data

    cost = _copy_cost(tx.row_bytes(mat, i), row, into_matrix=True)
    dev.launch(
        "kernel.write_row",
        body,
        cost,
        dtype=mat.dtype,
        fusable=True,
        reads=(row,),
        writes=(mat,),
        read_bytes={row: cost.bytes_read},
    )


def ger_column_major(
    dev: Device,
    x: DeviceArray,
    y: DeviceArray,
    a: DeviceArray,
    alpha: float = 1.0,
) -> None:
    """A := A + alpha·x yᵀ for the column-major tableau.

    Computes and costs what :func:`repro.gpu.blas.ger` does; kept separate
    so the tableau update is attributed its own kernel name in
    breakdowns and fuses with the elementwise kernels around it.
    """
    m, n = a.shape
    if x.size != m or y.size != n:
        raise DeviceArrayError("ger operand mismatch")
    alpha_t = a.dtype.type(alpha)

    def body() -> None:
        a.data[...] = a.data + alpha_t * np.outer(x.data, y.data)

    cost, read_bytes = blas.ger_cost(x, y, a)
    dev.launch(
        "kernel.tableau_ger",
        body,
        cost,
        dtype=a.dtype,
        fusable=True,
        reads=(x, y, a),
        writes=(a,),
        read_bytes=read_bytes,
    )
