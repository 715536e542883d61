"""Sparse revised simplex on the (simulated) GPU.

The sparse counterpart of :mod:`repro.core.gpu_revised_simplex`, following
the explicit-sparse-memory design of Gahrouei & Ghatee (arXiv:1803.04378)
rather than the paper's dense layout: the constraint matrix stays on the
device in CSC form, pricing is one ``spmv_csc_t`` launch (the CSC of A *is*
the CSR of Aᵀ, so one thread per column prices every nonbasic variable),
and the dense m×m basis inverse — the allocation that capped the dense
solver's problem size — is replaced by sparse LU factors plus a sparse eta
file whose device footprint scales with their nonzeros.

Factor placement follows the hybrid scheme real sparse-simplex GPU codes
use: the triangular solves (FTRAN/BTRAN) launch as device kernels whose
modeled cost scales with ``nnz(L)+nnz(U)+nnz(etas)``, while the *numerics*
of those solves are mirrored by a host-side
:class:`~repro.simplex.sparse_basis.SparseLUBasis` (uncharged — it is the
functional backing store of the device factors, exactly as dense device
arrays are backed by host ndarrays).  Refactorisation happens on the host
— sparse LU pivoting is sequential and branchy, the classic CPU-side step
— and the fresh factors are uploaded over PCIe, which the model charges.

Per-iteration kernel schedule:

======== ==========================================================
section  kernels
======== ==========================================================
pricing  sparse.btran_lu (π), copy of c then sparse.spmv_csc_t with
         β = 1 (d = c − Aᵀπ), mask map, device-resident arg-min (q, d_q)
ftran    column load reading q on the device (CSC scatter or e_i),
         sparse.ftran_lu
ratio    ratio map kernel, device-resident arg-min; tie-break map,
         arg-min whose one readback brings (q, d_q, p, θ, α_p)
update   β update kernel (also stores the basis swap: mask bits, c_B
         entry, basis key), sparse.eta_append
======== ==========================================================

Per iteration the host reads one struct back and writes nothing; the
column load, FTRAN and the ratio test run on the device-resident pricing
choice (see :mod:`repro.core.gpu_revised_simplex`).  The pivot is checked
against the host factor mirror before the update launches, so a pivot the
eta file rejects never leaves a half-swapped device state.

Runs as a :class:`~repro.engine.backend.DeviceBackend`; instrumentation
flows only through the engine observer hooks.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.core.gpu_revised_simplex import _GpuPricing
from repro.engine import DeviceBackend, attach_standard_solution, rule_label
from repro.errors import SingularBasisError, SolverError
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.reduce import NO_INDEX
from repro.gpu.sparse_kernels import INDEX_BYTES, DeviceCscMatrix, spmv_csc_t
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PreparedLP,
    initial_basis,
    phase1_costs,
    phase2_costs,
    prepare,
)
from repro.simplex.options import SolverOptions
from repro.simplex.revised_sparse import _as_sparse_prep
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc
from repro.status import SolveStatus


class GpuSparseRevisedSimplex(DeviceBackend):
    """Two-phase sparse revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint is factorised sparsely on the host and the factors are
    uploaded (one PCIe round trip).  A singular or primal-infeasible hint
    falls back to the cold crash basis.  Dense inputs are converted to CSC
    on entry — this method always runs the sparse data path.
    """

    name = "gpu-revised-sparse"
    accepts_warm_start = True

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
        if self.options.pricing in ("devex", "steepest-edge"):
            raise SolverError(
                f"pricing {self.options.pricing!r} needs tableau columns; "
                "use the tableau solvers"
            )

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        self.prep = prep = _as_sparse_prep(prepare(problem, opts))
        dtype = self._start_machine()
        dev = self.dev

        m, n = prep.m, prep.n_total
        self._st = st = _SparseState(prep, dev, dtype)
        self.stats = stats = IterationStats()
        basis, needs_phase1 = initial_basis(prep)
        st.init_basis(basis)
        self._arm(m=m, n=n, pricing=opts.pricing, nnz=prep.nnz)

        if warm_hint is not None:
            from repro.simplex.common import validate_warm_basis

            warm = validate_warm_basis(prep, warm_hint)
            warm_beta = None
            try:
                # host-side trial factorisation (the backing store of the
                # device factors; the upload below is what the model charges)
                st.lu.refactorize(basis_columns_csc(prep, warm))
                warm_beta = st.lu.ftran(prep.b)
            except SingularBasisError:
                pass
            if warm_beta is not None and warm_beta.min() >= -1e-7:
                st.init_basis(warm)
                st.upload_factor()
                with dev.timed_section("transfer"):
                    st.beta.copy_from_host(
                        np.clip(warm_beta, 0.0, None).astype(dtype)
                    )
                needs_phase1 = bool(np.any(warm >= n))
                stats.refactorizations += 1
            else:
                st.lu.reset_identity()

        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        return self._run_phase(self._st, c_full, self.stats, phase)

    def phase1_objective(self) -> float:
        return blas.dot(self._st.c_b, self._st.beta)

    # ------------------------------------------------------------------

    def _run_phase(
        self,
        st: "_SparseState",
        c_full: np.ndarray,
        stats: IterationStats,
        phase: int,
    ) -> tuple[SolveStatus, int]:
        opts = self.options
        dev = st.dev
        prep = st.prep
        m, n = prep.m, prep.n_total
        cap = opts.iteration_cap(m, n)
        pricing = _GpuPricing(opts.pricing, opts.stall_window)

        st.load_phase_costs(c_full)
        z = blas.dot(st.c_b, st.beta)
        iters = 0
        tr = self.hooks if self.hooks.enabled else None

        while iters < cap:
            iters += 1

            # -- pricing: π = B⁻ᵀ c_B (sparse BTRAN);  d = c − Aᵀπ;
            #    masked selection, left on the device
            with dev.timed_section("pricing"), self.plan.section("pricing") as sec:
                st.btran_lu(st.c_b, st.pi)
                blas.copy(st.c_real, st.d)
                spmv_csc_t(st.a_sparse, st.pi, st.d, alpha=-1.0, beta=1.0)
                pricing.select(
                    sec, st.d, st.mask, st.tmp_n, st.choice, self._tol_rc
                )

            # -- ftran: α = B⁻¹ a_q through the sparse factors, q read on
            #    the device
            with dev.timed_section("ftran"):
                with self.plan.section("ftran"):
                    st.load_entering()
                    alpha_h = st.ftran_lu(st.a_q, st.alpha)
                alpha64 = alpha_h["x"]

            # -- ratio test (device map + reductions, Bland tie-break); one
            #    readback brings (q, d_q, p, θ, α_p)
            with dev.timed_section("ratio"):
                with self.plan.section("ratio.map") as sec:
                    K.ratio_kernel(dev, st.beta, st.alpha, st.ratios,
                                   self._tol_piv)
                    sec.argmin_to_device(st.ratios, st.ratio_min)
                with self.plan.section("ratio.tie") as sec:
                    K.tie_break_key_kernel(dev, st.ratios, st.ratio_min,
                                           st.basis_keys, st.tmp_m)
                    q, d_q, p, theta, (pivot,) = sec.ratio_readback(
                        st.choice, st.tmp_m, st.ratio_min, (st.alpha,)
                    )
            if q == NO_INDEX:
                stats.bland_activations += pricing.activations
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="optimal",
                        pricing_rule=rule_label(pricing),
                        eta_count=st.lu.eta_count, objective=float(z),
                    )
                return SolveStatus.OPTIMAL, iters
            if not np.isfinite(theta):
                stats.bland_activations += pricing.activations
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="unbounded",
                        entering=int(q), pricing_rule=rule_label(pricing),
                        eta_count=st.lu.eta_count, objective=float(z),
                    )
                return SolveStatus.UNBOUNDED, iters
            if theta <= opts.tol_zero:
                stats.degenerate_steps += 1
            if tr is not None:
                # uncharged diagnostic peeks at the functional backing store
                trace_leaving = int(st.basis[p])
                trace_ties = int(np.count_nonzero(st.ratios.data <= K.tie_cut(theta)))

            if abs(alpha64[p]) <= self._tol_piv:
                # pivot too small for the factors: refactorise and retry
                if not self._refactor(st, stats):
                    if tr is not None:
                        tr.record(
                            phase=phase, iteration=iters, event="numerical",
                            entering=int(q), leaving_row=int(p),
                            pricing_rule=rule_label(pricing), objective=float(z),
                        )
                    return SolveStatus.NUMERICAL, iters
                z = blas.dot(st.c_b, st.beta)
                continue

            # -- update: β, eta file, objective; the basis swap's device
            #    stores ride on the β-update launch
            with dev.timed_section("update"), self.plan.section("update"):
                swap = K.basis_swap(st, p, q, float(c_full[q]), n)
                K.update_beta_kernel(dev, st.beta, st.alpha, theta, p, swap)
                st.append_eta(alpha64, p, self._tol_piv)
            z += theta * d_q
            if tr is not None:
                tr.record(
                    phase=phase, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(p),
                    leaving_var=trace_leaving,
                    pivot=float(pivot), theta=float(theta),
                    ratio_ties=trace_ties, pricing_rule=rule_label(pricing),
                    eta_count=st.lu.eta_count, objective=float(z),
                    degenerate=theta <= opts.tol_zero,
                )
            pricing.notify(theta * (-d_q) > 1e-12 * (1.0 + abs(z)))

            # periodic *or* fill-triggered refactorisation
            if (
                opts.refactor_period and iters % opts.refactor_period == 0
            ) or st.lu.needs_refresh():
                if not self._refactor(st, stats):
                    return SolveStatus.NUMERICAL, iters
                z = blas.dot(st.c_b, st.beta)

        stats.bland_activations += pricing.activations
        return SolveStatus.ITERATION_LIMIT, iters

    def _refactor(self, st: "_SparseState", stats: IterationStats) -> bool:
        try:
            with self.hooks.span("engine.refactor"):
                st.refactor()
        except SingularBasisError:
            return False
        stats.refactorizations += 1
        return True

    # ------------------------------------------------------------------

    def drive_out_artificials(self) -> None:
        """Replace zero-valued artificial basics by real columns: the
        transformed row e_pᵀB⁻¹A comes from a sparse BTRAN plus one SpMVᵀ."""
        st = self._st
        tol_piv = self._tol_piv
        dev = st.dev
        prep = st.prep
        m, n = prep.m, prep.n_total
        for p in np.nonzero(st.basis >= n)[0]:
            p = int(p)
            e_p = np.zeros(m)
            e_p[p] = 1.0
            with dev.timed_section("transfer"):
                st.tmp_m.copy_from_host(e_p.astype(st.dtype))
            st.btran_lu(st.tmp_m, st.tmp_m)
            spmv_csc_t(st.a_sparse, st.tmp_m, st.tmp_n)
            alpha_row = st.tmp_n.copy_to_host().astype(np.float64)
            eligible = (~st.in_basis[:n]) & (np.abs(alpha_row) > 1e-5)
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[np.argmax(np.abs(alpha_row[candidates]))])
            st.load_column(j)
            alpha64 = st.ftran_lu(st.a_q, st.alpha)["x"]
            pivot = float(alpha64[p])
            if abs(pivot) <= tol_piv:
                continue
            beta_p = st.beta.scalar_to_host(p)
            theta = beta_p / pivot
            swap = K.basis_swap(st, p, j, 0.0, n)
            K.update_beta_kernel(dev, st.beta, st.alpha, theta, p, swap)
            st.append_eta(alpha64, p, tol_piv)

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        st = self._st
        result.extra["a_nnz"] = st.prep.nnz
        result.extra["lu_nnz"] = st.lu.lu_nnz
        result.extra["eta_nnz"] = st.lu.eta_nnz
        result.extra["fill_ratio"] = st.lu.fill_ratio

    def extract(self, result: SolveResult) -> None:
        st = self._st
        beta_host = st.beta.copy_to_host().astype(np.float64)
        attach_standard_solution(result, self.prep, st.basis, beta_host)


class _SparseState:
    """Device-resident sparse solver state plus host-side bookkeeping.

    The device holds: the CSC constraint matrix, all dense m/n work vectors,
    a byte buffer standing for the packed LU factors and one small buffer
    per sparse eta.  The host mirrors the factor *numerics* in ``self.lu``
    (the functional backing store) and the basis index bookkeeping.
    """

    def __init__(self, prep: PreparedLP, dev: Device, dtype: np.dtype):
        self.prep = prep
        self.dev = dev
        self.dtype = dtype
        m, n = prep.m, prep.n_total
        self._w = int(np.dtype(dtype).itemsize)

        self.lu = SparseLUBasis(m, recorder=None)
        self.factor_buf: DeviceArray | None = None
        self.eta_bufs: list[DeviceArray] = []
        try:
            with dev.timed_section("transfer"):
                self.a_sparse = DeviceCscMatrix(dev, prep.a, dtype)
                self.b = dev.to_device(prep.b, dtype)
                self.beta = dev.to_device(prep.b, dtype)
                self.c_real = dev.to_device(np.zeros(n), dtype)
                self.c_b = dev.to_device(np.zeros(m), dtype)
                self.mask = dev.to_device(np.ones(n), dtype)
            self.pi = dev.zeros(m, dtype)
            self.d = dev.zeros(n, dtype)
            self.tmp_n = dev.zeros(n, dtype)
            self.tmp_m = dev.zeros(m, dtype)
            self.basis_keys = dev.zeros(m, dtype)
            self.a_q = dev.zeros(m, dtype)
            self.alpha = dev.zeros(m, dtype)
            self.ratios = dev.zeros(m, dtype)
            #: (q, d_q) of the pricing reduction, read by the column load
            self.choice = dev.alloc(2, dtype)
            #: (row, θ) of the ratio map's arg-min, read by the tie pass
            self.ratio_min = dev.alloc(2, dtype)
            self.upload_factor()  # identity factors of the crash basis
        except Exception:
            # a failed allocation (device OOM) must not leak what was
            # already placed on the card
            self.free()
            raise

        self.basis = np.zeros(m, dtype=np.int64)
        self.in_basis = np.zeros(n + m, dtype=bool)

    # -- factor placement --------------------------------------------------

    def _factor_nbytes(self) -> int:
        return max(1, self.lu.lu_nnz * (self._w + INDEX_BYTES))

    def upload_factor(self) -> None:
        """(Re)place the packed factors on the device; frees stale etas.

        The upload is a real HtoD transfer in the model — refactorisation
        is host work and the fresh factors must cross PCIe.
        """
        for buf in self.eta_bufs:
            if not buf.is_freed:
                buf.free()
        self.eta_bufs.clear()
        if self.factor_buf is not None and not self.factor_buf.is_freed:
            self.factor_buf.free()
        with self.dev.timed_section("transfer"):
            self.factor_buf = self.dev.to_device(
                np.zeros(self._factor_nbytes(), dtype=np.uint8)
            )

    def _lu_solve_cost(self) -> OpCost:
        # Vector-style level-scheduled triangular solve (cuSPARSE csrsv2
        # lineage): one thread per stored nonzero, columns of a level in
        # parallel, factor segments streamed contiguously.  Same thread and
        # coalescing convention as the SpMV kernels above it in the stack.
        work = self.lu.lu_nnz + self.lu.eta_nnz
        m = self.prep.m
        w = self._w
        return OpCost(
            flops=2.0 * work,
            bytes_read=work * (w + INDEX_BYTES) + m * w,
            bytes_written=m * w,
            threads=max(1, work),
            coalesced_fraction=0.6,
        )

    def ftran_lu(
        self, src: DeviceArray, dst: DeviceArray
    ) -> dict[str, np.ndarray]:
        """α := B⁻¹ src through the device factors.

        Returns a holder dict whose ``"x"`` entry is the exact float64
        result (the factor mirror's arithmetic) for the eta update.  The
        entry appears when the kernel body *executes* — inside a capturing
        plan section that is at section exit, so read it after the section
        closes.
        """
        holder: dict[str, np.ndarray] = {}

        def body() -> None:
            x = self.lu.ftran(src.data.astype(np.float64))
            holder["x"] = x
            dst.data[:] = x.astype(self.dtype)

        gpu_plan.emit(
            self.dev, "sparse.ftran_lu", body, self._lu_solve_cost(),
            dtype=self.dtype, reads=(src,), writes=(dst,),
        )
        return holder

    def btran_lu(self, src: DeviceArray, dst: DeviceArray) -> None:
        """dst := B⁻ᵀ src through the device factors."""

        def body() -> None:
            pi = self.lu.btran(src.data.astype(np.float64))
            dst.data[:] = pi.astype(self.dtype)

        gpu_plan.emit(
            self.dev, "sparse.btran_lu", body, self._lu_solve_cost(),
            dtype=self.dtype, reads=(src,), writes=(dst,),
        )

    def append_eta(self, alpha64: np.ndarray, p: int, tol_pivot: float) -> None:
        """Mirror the pivot into the factor file and charge the device eta
        kernel + its buffer.  The caller has checked the pivot against
        ``tol_pivot`` (the factor update raises below it)."""
        before = self.lu.eta_nnz
        self.lu.update(alpha64, p, tol_pivot)
        added = self.lu.eta_nnz - before
        m = self.prep.m
        w = self._w
        # the kernel scans α once and writes the compacted eta column
        gpu_plan.emit(
            self.dev,
            "sparse.eta_append",
            lambda: None,  # numerics live in the host factor mirror
            OpCost(
                flops=float(m),
                bytes_read=m * w,
                bytes_written=added * (w + INDEX_BYTES),
                threads=max(1, m),
                coalesced_fraction=0.6,
            ),
            dtype=self.dtype,
            reads=(self.alpha,),
        )
        self.eta_bufs.append(
            self.dev.alloc(max(1, added * (w + INDEX_BYTES)), np.uint8)
        )

    def refactor(self) -> None:
        """Host refactorisation from the basis' CSC columns, PCIe upload,
        and a device β refresh through the fresh factors."""
        self.lu.refactorize(basis_columns_csc(self.prep, self.basis))
        self.upload_factor()
        self.ftran_lu(self.b, self.beta)
        K.clamp_nonneg_kernel(self.dev, self.beta)

    # -- basis bookkeeping ------------------------------------------------

    def init_basis(self, basis: np.ndarray) -> None:
        self.basis = basis.astype(np.int64).copy()
        self.in_basis = np.zeros(self.prep.n_total + self.prep.m, dtype=bool)
        self.in_basis[self.basis] = True
        mask_host = np.where(self.in_basis[: self.prep.n_total], 0.0, 1.0)
        with self.dev.timed_section("transfer"):
            self.mask.copy_from_host(mask_host.astype(self.dtype))
            self.basis_keys.copy_from_host(self.basis.astype(self.dtype))

    def load_phase_costs(self, c_full: np.ndarray) -> None:
        """Upload the phase cost data: c over real columns and c_B."""
        n = self.prep.n_total
        with self.dev.timed_section("transfer"):
            self.c_real.copy_from_host(c_full[:n].astype(self.dtype))
            self.c_b.copy_from_host(c_full[self.basis].astype(self.dtype))

    def load_entering(self) -> None:
        """a_q := the column pricing chose, q read on the device."""
        K.load_entering_column(
            self.dev, self.choice, self.a_q, n_real=self.prep.n_total,
            csc=self.a_sparse,
        )

    def load_column(self, j: int) -> None:
        """a_q := column j (CSC scatter or synthesised artificial e_i)."""
        n = self.prep.n_total
        if j >= n:
            K.unit_vector(self.dev, self.a_q, j - n)
        else:
            self.a_sparse.getcol_device(j, self.a_q)

    def free(self) -> None:
        """Release every device allocation; tolerates partially-constructed
        state (OOM during ``__init__``)."""
        for name in (
            "b", "beta", "c_real", "c_b", "mask",
            "pi", "d", "tmp_n", "tmp_m", "basis_keys",
            "a_q", "alpha", "ratios", "choice", "ratio_min",
        ):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
        if self.factor_buf is not None and not self.factor_buf.is_freed:
            self.factor_buf.free()
        for buf in self.eta_bufs:
            if not buf.is_freed:
                buf.free()
        self.eta_bufs.clear()
        a = getattr(self, "a_sparse", None)
        if a is not None and not a.data.is_freed:
            a.free()
