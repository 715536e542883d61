"""Solver-specific device kernels of the GPU simplex implementations.

Everything here is a thin kernel over :class:`~repro.gpu.device.Device` with
an explicit cost, mirroring the custom (non-cuBLAS) kernels a CUDA port
writes around the BLAS calls: the ratio-test map, eta-column construction,
the β update, masked pricing preparation and entering selection, and
matrix row/column extraction.  The launches that act on a pivot read the
iteration's decision on the device, from the slot of the decision ring
its ratio test stored (:class:`~repro.gpu.reduce.Slot`): the host issues
them without knowing p, q or θ, and each does nothing when its slot holds
no pivot (a verdict, or a bound flip).  The basis swap's stores are
formed there too (:class:`BasisHeader`).

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
from typing import Callable

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu import blas
from repro.gpu import transactions as tx
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.reduce import (
    BLOCKED, D_Q, FLIPPED, PIVOT, PIVOTED, Q, ROW, SIGMA, SLOT_FIELDS, STATUS,
    THETA, TO_UPPER, UNBOUNDED, Slot,
)
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
    """The tie bound of the Bland-compatible ratio test: rows whose ratio
    is at most θ·(1 + 1e-6) + 1e-30 count as tied at the minimum θ, and
    the lowest basic-variable index among them leaves."""
    return theta * (1.0 + 1e-6) + 1e-30


@dataclasses.dataclass(frozen=True)
class BasisHeader:
    """The device side of the basis header: the pricing ``mask`` over the
    first ``n_mask`` columns, c_B, each row's basic-variable key, and the
    costs c_B's entries come from.

    A pivot swaps row p's basic variable for q with :meth:`swap`, inside
    the update launch that reads p and q from the decision slot, so none
    of it crosses PCIe."""

    mask: DeviceArray
    c_b: DeviceArray
    keys: DeviceArray
    costs: DeviceArray
    n_mask: int

    def swap(self, p: int, q: int) -> int:
        """q's mask bit cleared and the leaving variable's set (for
        columns below ``n_mask`` only), ``c_b[p] := c[q]`` and
        ``keys[p] := q``; returns the leaving variable (``keys[p]``
        before).  Kernel bodies only."""
        leaving = int(self.keys.data[p])
        if q < self.n_mask:
            self.mask.data[q] = 0.0
        if leaving < self.n_mask:
            self.mask.data[leaving] = 1.0
        self.c_b.data[p] = self.costs.data[q]
        self.keys.data[p] = q
        return leaving

    def cost(self) -> tuple[int, int]:
        """(bytes read, bytes written) of :meth:`swap`: the key and the
        cost read one segment each, four words stored."""
        w = self.keys.itemsize
        return 2 * self.keys.device.params.transaction_bytes, 4 * w


def _row_of(i: "int | Slot") -> int:
    return int(i[ROW]) if isinstance(i, Slot) else i


def _reading(slot: "Slot | None", cost: OpCost, *reads: DeviceArray,
             read_bytes: "dict | None" = None) -> dict:
    """The ``cost``, ``reads`` and ``read_bytes`` launch arguments of a
    kernel that reads the operands ``reads`` (charged ``read_bytes`` where
    that is not their size) and ``slot``: the slot's bytes are added to
    ``cost``, and its ring is declared a read operand, so a fused launch
    reads it once."""
    read_bytes = dict(read_bytes or {})
    if slot is not None:
        cost = dataclasses.replace(
            cost, bytes_read=cost.bytes_read + slot.read_bytes
        )
        reads += (slot.ring,)
        read_bytes[slot.ring] = slot.read_bytes
    return {"cost": cost, "reads": reads, "read_bytes": read_bytes}


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


def extract_row(dev: Device, a: DeviceArray, i: "int | Slot",
                out: DeviceArray) -> None:
    """out := A[i, :] for a dense device matrix: a contiguous read when A
    is row-major (B⁻¹), a segment per element when it is column-major
    (the tableau).  With a :class:`Slot` for ``i`` the row is the slot's
    leaving row, read on the device; the launch does nothing unless the
    slot holds a pivot, and is charged for the costliest row."""
    m, n = a.shape
    if not isinstance(i, Slot) and not 0 <= i < m:
        raise DeviceArrayError(f"row {i} out of range for {a.shape}")
    if out.shape != (n,):
        raise DeviceArrayError("output vector has wrong length")
    slot = i if isinstance(i, Slot) else None

    def body() -> None:
        if slot is None or slot.pivots:
            out.data[:] = a.data[_row_of(i), :]

    cost = _copy_cost(
        tx.row_bytes(a, i) if slot is None else tx.widest_row_bytes(a), out
    )
    dev.launch(
        "kernel.extract_row",
        body,
        dtype=a.dtype,
        fusable=True,
        # partial read of the matrix (one row): not a resident operand
        writes=(out,),
        **_reading(slot, cost),
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
    slot: Slot,
    out: DeviceArray,
) -> None:
    """out := η − e_p, the rank-1 factor of the basis-inverse update, for
    the pivot ``slot`` holds (p and α_p read from it; nothing otherwise).

    η_i = −α_i/α_p (i ≠ p), η_p = 1/α_p; subtracting e_p folds the
    "replace row p" correction into a single GER:
    ``B⁻¹ += (η − e_p) ⊗ (B⁻¹)_{p,·}``.
    """
    m = alpha.size
    if out.size != m:
        raise DeviceArrayError("eta kernel operand size mismatch")
    w = alpha.itemsize

    def body() -> None:
        if not slot.pivots:
            return
        p = int(slot[ROW])
        inv_piv = alpha.dtype.type(1.0 / slot[PIVOT])
        out.data[:] = -alpha.data * inv_piv
        out.data[p] = inv_piv - out.dtype.type(1.0)

    dev.launch(
        "kernel.eta",
        body,
        dtype=alpha.dtype,
        fusable=True,
        writes=(out,),
        **_reading(slot, OpCost(
            flops=2 * m, bytes_read=m * w, bytes_written=m * w,
            threads=max(1, m),
        ), alpha),
    )


def update_beta_kernel(
    dev: Device,
    beta: DeviceArray,
    alpha: DeviceArray,
    slot: Slot,
    header: BasisHeader,
    reduced: "DeviceArray | None" = None,
) -> None:
    """For the pivot ``slot`` holds (nothing otherwise): β := max(β − θα,
    0) elementwise, then β_p := θ, and row p's basis header swaps to q
    (:meth:`BasisHeader.swap`) — one fused kernel.  ``reduced`` (the
    tableau's d) also gets d_q := 0."""
    m = beta.size
    if alpha.size != m:
        raise DeviceArrayError("beta update operand size mismatch")
    w = beta.itemsize
    swap_read, swap_written = header.cost()

    def body() -> None:
        if not slot.pivots:
            return
        p, q = int(slot[ROW]), int(slot[Q])
        theta_t = beta.dtype.type(slot[THETA])
        b = beta.data
        b -= theta_t * alpha.data
        np.clip(b, 0, None, out=b)
        b[p] = theta_t
        header.swap(p, q)
        if reduced is not None:
            reduced.data[q] = 0.0

    stored = swap_written + (w if reduced is not None else 0)
    dev.launch(
        "kernel.update_beta",
        body,
        dtype=beta.dtype,
        fusable=True,
        writes=(beta, header.mask, header.c_b, header.keys,
                *(() if reduced is None else (reduced,))),
        **_reading(slot, OpCost(
            flops=3 * m,
            bytes_read=2 * m * w + swap_read,
            bytes_written=m * w + stored,
            threads=max(1, m),
        ), beta, alpha),
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
    slot: Slot,
    header: BasisHeader,
    sigma: DeviceArray,
    upper: DeviceArray,
    u_basis: DeviceArray,
) -> None:
    """The boxed update of the decision ``slot`` holds, with the choice
    between a bound flip and a pivot made here, on the device.

    A ratio test's decision (BLOCKED or UNBOUNDED) flips q, whose sign σ_q
    is ``sigma[q]``, when its own bound ``upper[q]`` is finite and within
    the step: u_q ≤ θ·(1 + 1e-12), or no row blocks; with no row blocking
    and no bound, the verdict stands and halts the batch.  The slot then
    records FLIPPED or PIVOTED, σ_q and the un-signed d_q = σ_q·(σd)_q.
    Then β := clip(β − σ_qθα, 0, ·), with θ = u_q for a flip; a flip
    changes σ_q's sign, and a pivot stores the entering variable's new
    value in β_p (θ from lower, u_q − θ from upper), swaps row p's basis
    header (:meth:`BasisHeader.swap`), stores the σ signs of the entering
    and leaving variables (−1 when the leaving one exits at its finite
    upper bound) and u_B[p] := u_q.  A verdict does nothing."""
    m = beta.size
    if alpha.size != m:
        raise DeviceArrayError("bounded beta update operand size mismatch")
    w = beta.itemsize
    seg = dev.params.transaction_bytes
    swap_read, swap_written = header.cost()

    def body() -> None:
        status = slot[STATUS]
        if status not in (BLOCKED, PIVOTED, UNBOUNDED):
            return
        q = int(slot[Q])
        u_q = float(upper.data[q])
        theta = slot[THETA]
        s = float(sigma.data[q])
        if status != PIVOTED:
            if np.isfinite(u_q) and u_q <= theta * (1.0 + 1e-12):
                status, theta = FLIPPED, u_q
            elif status == UNBOUNDED:
                slot.stop()
                return
            else:
                status = PIVOTED
            slot[STATUS], slot[SIGMA], slot[D_Q] = status, s, s * slot[D_Q]
        b = beta.data
        b += beta.dtype.type(-s * theta) * alpha.data
        np.clip(b, 0, None, out=b)
        if status == FLIPPED:
            sigma.data[q] = -s
            return
        p = int(slot[ROW])
        b[p] = beta.dtype.type(u_q - theta if s < 0 else theta)
        leaving = header.swap(p, q)
        sigma.data[q] = 1.0
        if leaving < header.n_mask:
            goes_up = slot[TO_UPPER] != 0.0 and np.isfinite(upper.data[leaving])
            sigma.data[leaving] = -1.0 if goes_up else 1.0
        u_basis.data[p] = u_q

    dev.launch(
        "kernel.bounded_update_beta",
        body,
        dtype=beta.dtype,
        fusable=True,
        # σ and u are read and written one element each: not resident
        writes=(beta, header.mask, header.c_b, header.keys, u_basis, slot.ring),
        **_reading(slot, OpCost(
            flops=3 * m,
            # the pivot's σ and u reads, a segment each
            bytes_read=2 * m * w + swap_read + 3 * seg,
            # the swap, σ_q, σ_leaving, u_B[p] and three slot fields
            bytes_written=m * w + swap_written + 6 * w,
            threads=max(1, m),
            divergent_fraction=0.05,
        ), beta, alpha),
    )


def scale_row_kernel(
    dev: Device, src_row: DeviceArray, slot: Slot, out: DeviceArray
) -> None:
    """out := src_row · (1/α_p) with α_p the pivot ``slot`` holds (nothing
    otherwise) — the pivot-row normalisation of the tableau method (kept
    separate from BLAS scal: different buffers)."""
    n = src_row.size
    if out.size != n:
        raise DeviceArrayError("row scale operand size mismatch")
    w = src_row.itemsize

    def body() -> None:
        if slot.pivots:
            out.data[:] = src_row.data * src_row.dtype.type(1.0 / slot[PIVOT])

    dev.launch(
        "kernel.scale_row",
        body,
        dtype=src_row.dtype,
        fusable=True,
        writes=(out,),
        **_reading(slot, OpCost(
            flops=n, bytes_read=n * w, bytes_written=n * w, threads=max(1, n)
        ), src_row),
    )


def write_row_kernel(dev: Device, mat: DeviceArray, i: "int | Slot",
                     row: DeviceArray) -> None:
    """mat[i, :] := row: a coalesced write when ``mat`` is row-major, a
    segment per element when it is column-major (the tableau's pivot
    row).  With a :class:`Slot` for ``i``, as :func:`extract_row`."""
    m, n = mat.shape
    if row.size != n or not (isinstance(i, Slot) or 0 <= i < m):
        raise DeviceArrayError("row write operand mismatch")
    slot = i if isinstance(i, Slot) else None

    def body() -> None:
        if slot is None or slot.pivots:
            mat.data[_row_of(i), :] = row.data

    cost = _copy_cost(
        tx.row_bytes(mat, i) if slot is None else tx.widest_row_bytes(mat),
        row, into_matrix=True,
    )
    dev.launch(
        "kernel.write_row",
        body,
        dtype=mat.dtype,
        fusable=True,
        writes=(mat,),
        **_reading(slot, cost, row, read_bytes={row: cost.bytes_read}),
    )


def pivot_ger(
    dev: Device,
    x: DeviceArray,
    y: DeviceArray,
    a: DeviceArray,
    alpha: float = 1.0,
    slot: "Slot | None" = None,
    *,
    name: str = "kernel.ger",
    then: "Callable[[], None] | None" = None,
) -> None:
    """A := A + alpha·x yᵀ, a pivot's rank-1 update: of B⁻¹ (``kernel.ger``)
    or of the column-major tableau (``kernel.tableau_ger``).

    Costed by :func:`repro.gpu.blas.ger_cost` (``cublasSger``'s mapping);
    it fuses with the elementwise kernels around it, and with a ``slot``
    does nothing unless the slot holds a pivot.  ``then`` is an uncharged
    diagnostic the body runs last (the B⁻¹ fill samples of F8).
    """
    m, n = a.shape
    if x.size != m or y.size != n:
        raise DeviceArrayError("ger operand mismatch")
    alpha_t = a.dtype.type(alpha)

    def body() -> None:
        if slot is None or slot.pivots:
            a.data[...] = a.data + alpha_t * np.outer(x.data, y.data)
        if then is not None:
            then()

    cost, read_bytes = blas.ger_cost(x, y, a)
    dev.launch(
        name,
        body,
        dtype=a.dtype,
        fusable=True,
        writes=(a,),
        **_reading(slot, cost, x, y, a, read_bytes=read_bytes),
    )


def pivot_axpy(
    dev: Device,
    slot: Slot,
    x: DeviceArray,
    y: DeviceArray,
    scale: Callable[[float, float], float],
) -> None:
    """y := y + s·x with s = ``scale(d_q, α_p)`` of the pivot ``slot``
    holds (nothing otherwise): π += (d_q/α_p)·ρ_p for an explicit B⁻¹,
    d −= d_q·(normalised pivot row) for the tableau."""
    n = x.size
    if y.size != n:
        raise DeviceArrayError("pivot axpy operand size mismatch")
    w = x.itemsize

    def body() -> None:
        if slot.pivots:
            s = y.dtype.type(scale(slot[D_Q], slot[PIVOT]))
            y.data[:] = y.data + s * x.data

    dev.launch(
        "kernel.pivot_axpy",
        body,
        dtype=y.dtype,
        fusable=True,
        writes=(y,),
        **_reading(slot, OpCost(
            flops=2 * n, bytes_read=2 * n * w, bytes_written=n * w, threads=n
        ), x, y),
    )


def drive_decision(
    dev: Device,
    slot: Slot,
    p: int,
    j: int,
    alpha: DeviceArray,
    beta: "DeviceArray | None" = None,
    reduced: "DeviceArray | None" = None,
) -> None:
    """Store a drive-out pivot in ``slot``: column j enters at row p with
    α_p from ``alpha``, θ = β_p/α_p when ``beta`` is given (else 0: a
    degenerate swap), and d_j from ``reduced`` (the tableau's d; else 0).
    The update launches then read it as they read a ratio test's
    decision; one thread."""
    w = slot.ring.itemsize
    seg = dev.params.transaction_bytes
    words = 1 + (beta is not None) + (reduced is not None)

    def body() -> None:
        a_p = float(alpha.data[p])
        theta = 0.0 if beta is None else float(beta.data[p]) / a_p
        d_j = 0.0 if reduced is None else float(reduced.data[j])
        fields = np.zeros(SLOT_FIELDS)
        fields[[Q, D_Q, ROW, THETA, PIVOT, SIGMA, STATUS]] = (
            j, d_j, p, theta, a_p, 1.0, PIVOTED,
        )
        slot.ring.data[slot.index] = fields

    dev.launch(
        "kernel.drive_decision",
        body,
        OpCost(flops=1, bytes_read=words * seg,
               bytes_written=SLOT_FIELDS * w, threads=1),
        dtype=slot.ring.dtype,
        fusable=True,
        writes=(slot.ring,),
    )
