"""The paper's solver: revised simplex on the (simulated) GPU.

Data placement follows the IPDPS 2009 design: the constraint matrix A
(dense m×n, uploaded row-major, or CSC), the basis inverse B⁻¹ (row-major,
dense), β, the simplex multipliers π, the pricing vector and all scratch
buffers live in device global memory for the whole solve; the host only
sees per-iteration scalars (entering/leaving indices, step length, pivot)
and drives control flow.

Per-iteration kernel schedule (names match the breakdown figure F3):

======== =========================================================
section  kernels
======== =========================================================
pricing  copy of c then GEMVᵀ/SpMVᵀ with β = 1 (d = c − Aᵀπ), mask
         map, device-resident arg-min (q, d_q); GEMVᵀ π = B⁻ᵀc_B
         first only when π is stale
ftran    column load reading q on the device (dense extract, CSC
         scatter or e_i synthesis), GEMV (α = B⁻¹a_q)
ratio    ratio map kernel, device-resident arg-min; tie-break map,
         arg-min whose one readback brings (q, d_q, p, θ, α_p)
update   β update kernel (also stores the basis swap: mask bits, c_B
         entry, basis key), η kernel, row extract ρ_p = e_pᵀB⁻¹,
         AXPY π += (d_q/α_p)·ρ_p, GER rank-1 B⁻¹ update
======== =========================================================

Per iteration the host reads one struct back and writes nothing: pricing
leaves its choice on the device (``NO_INDEX`` when no column prices in),
the column load, FTRAN and the ratio test run without waiting for the
host, and the swap's device bookkeeping travels as kernel parameters of
the β update.  The host tests optimality (``q == NO_INDEX``) before
unboundedness (θ = ∞), so each phase's last iteration also pays for its
column load, FTRAN and ratio test.

π is multiplied fresh at the start of each phase (which also follows a
warm-start upload of B⁻¹) and after a rebuild of B⁻¹, and otherwise
updated from the pivot row already extracted for the GER
(:class:`~repro.core.gpu_kernels.Multipliers`).  A terminal verdict is
accepted only from a freshly multiplied π: when an updated π prices every
column out, or picks a column with no blocking row, the iteration is
redone after a fresh multiply, and is not counted.  A phase therefore
pays one extra iteration at its end, or more only if a fresh π
contradicts an updated one.

Phase 1 uses implicit artificial columns (e_i synthesised on demand);
phase 2 reuses the phase-1 basis inverse, exactly as in the paper.  The
explicit-inverse scheme does not refactorise by default (``refactor_period``
applies if set; the rebuild happens on the host with PCIe-charged round
trips, as 2009-era codes did).

Runs as a :class:`~repro.engine.backend.DeviceBackend` on the shared
:mod:`repro.engine` lifecycle (which also guarantees the device state is
freed on every exit path).
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.engine import DeviceBackend, attach_standard_solution, rule_label
from repro.errors import SolverError
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.reduce import NO_INDEX
from repro.gpu.sparse_kernels import DeviceCscMatrix, spmv_csc_t
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.gpu_model import GpuModelParams
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
from repro.status import SolveStatus


class _GpuPricing:
    """Host-side pricing state machine driving the device reductions.

    Implements dantzig / bland / hybrid over the masked reduced-cost buffer
    (``devex``/``steepest-edge`` need tableau columns and are rejected at
    construction of the solver).
    """

    def __init__(self, mode: str, stall_window: int):
        self.mode = mode
        self.stall_window = stall_window
        self.using_bland = mode == "bland"
        self.stalled = 0
        self.improved_streak = 0
        self.activations = 0

    def select(
        self,
        sec: "gpu_plan._PlanSection",
        d: DeviceArray,
        mask: DeviceArray,
        work: DeviceArray,
        choice: DeviceArray,
        tol: float,
    ) -> None:
        """Leave (q, d_q) in ``choice`` on the device, or ``NO_INDEX`` when
        no column prices in."""
        K.masked_for_min(d.device, d, mask, work)
        if self.using_bland:
            sec.first_below_to_device(work, -tol, choice)
        else:
            sec.argmin_to_device(work, choice, below=-tol)

    def notify(self, improved: bool) -> None:
        if self.mode != "hybrid":
            return
        if improved:
            self.stalled = 0
            if self.using_bland:
                self.improved_streak += 1
                if self.improved_streak >= 5:
                    self.using_bland = False
                    self.improved_streak = 0
        else:
            self.stalled += 1
            self.improved_streak = 0
            if not self.using_bland and self.stalled >= self.stall_window:
                self.using_bland = True
                self.activations += 1
                self.stalled = 0


class GpuRevisedSimplex(DeviceBackend):
    """Two-phase revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint's B⁻¹ is factorised on the host and uploaded (one PCIe
    round trip — exactly how a CUDA port would warm-start).  A singular or
    primal-infeasible hint falls back to the cold crash basis.
    """

    name = "gpu-revised"
    accepts_warm_start = True

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
        fill_stats_every: int = 0,
    ):
        """``fill_stats_every > 0`` samples the fraction of non-negligible
        entries of the device-resident B⁻¹ every that-many pivots into
        ``result.extra["binv_fill"]`` — free instrumentation (reads the
        functional backing store; no modeled time is charged), used by the
        F8 fill-in experiment."""
        super().__init__(options, device, gpu_params)
        if self.options.pricing in ("devex", "steepest-edge"):
            raise SolverError(
                f"pricing {self.options.pricing!r} needs tableau columns; "
                "use the tableau solvers"
            )
        self._fill_every = int(fill_stats_every)

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        self.prep = prep = prepare(problem, opts)
        dtype = self._start_machine()
        dev = self.dev

        m, n = prep.m, prep.n_total
        self._st = st = _State(prep, dev, dtype)
        self.stats = stats = IterationStats()
        basis, needs_phase1 = initial_basis(prep)
        st.init_basis(basis)
        self._arm(m=m, n=n, pricing=opts.pricing)
        self._eta_updates = 0
        self._global_iter = 0
        self._fill_curve: list[tuple[int, float]] = []

        if warm_hint is not None:
            from repro.simplex.common import validate_warm_basis

            warm = validate_warm_basis(prep, warm_hint)
            try:
                binv = np.linalg.solve(prep.basis_matrix(warm), np.eye(m))
                warm_beta = binv @ prep.b
            except np.linalg.LinAlgError:
                warm_beta = None
            if warm_beta is not None and warm_beta.min() >= -1e-7:
                st.init_basis(warm)
                with dev.timed_section("transfer"):
                    st.binv.copy_from_host(binv.astype(dtype))
                    st.beta.copy_from_host(
                        np.clip(warm_beta, 0.0, None).astype(dtype)
                    )
                needs_phase1 = bool(np.any(warm >= n))
                stats.refactorizations += 1

        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        return self._run_phase(
            self._st, c_full, self.stats, self._tol_rc, self._tol_piv,
            phase=phase,
        )

    def phase1_objective(self) -> float:
        return blas.dot(self._st.c_b, self._st.beta)

    # ------------------------------------------------------------------

    def _run_phase(
        self,
        st: "_State",
        c_full: np.ndarray,
        stats: IterationStats,
        tol_rc: float,
        tol_piv: float,
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

            # -- pricing: π = B⁻ᵀ c_B if stale;  d = c − Aᵀπ;  masked
            #    selection, left on the device
            with dev.timed_section("pricing"), self.plan.section("pricing") as sec:
                st.multipliers.refresh()
                blas.copy(st.c_real, st.d)
                if st.a_sparse is not None:
                    spmv_csc_t(st.a_sparse, st.pi, st.d, alpha=-1.0, beta=1.0)
                else:
                    blas.gemv(st.a_dense, st.pi, st.d, alpha=-1.0, beta=1.0, trans=True)
                pricing.select(sec, st.d, st.mask, st.tmp_n, st.choice, tol_rc)

            # -- ftran: α = B⁻¹ a_q, q read on the device
            with dev.timed_section("ftran"), self.plan.section("ftran"):
                st.load_entering()
                blas.gemv(st.binv, st.a_q, st.alpha)

            # -- ratio test (Bland-compatible: ties break to the lowest
            #    basic-variable index via a second keyed reduction).  The
            #    map's arg-min stays on the device, the tie pass reads θ
            #    from it, and one readback returns (q, d_q, p, θ, α_p).
            with dev.timed_section("ratio"):
                with self.plan.section("ratio.map") as sec:
                    K.ratio_kernel(dev, st.beta, st.alpha, st.ratios, tol_piv)
                    sec.argmin_to_device(st.ratios, st.ratio_min)
                with self.plan.section("ratio.tie") as sec:
                    K.tie_break_key_kernel(
                        dev, st.ratios, st.ratio_min, st.basis_keys, st.tmp_m
                    )
                    q, d_q, p, theta, (pivot,) = sec.ratio_readback(
                        st.choice, st.tmp_m, st.ratio_min, (st.alpha,)
                    )
            terminal = q == NO_INDEX or not np.isfinite(theta)
            if terminal and not st.multipliers.confirms():
                iters -= 1  # verify with a fresh π; the redo is not counted
                continue
            if q == NO_INDEX:
                stats.bland_activations += pricing.activations
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="optimal",
                        pricing_rule=rule_label(pricing),
                        eta_count=self._eta_updates, objective=float(z),
                    )
                return SolveStatus.OPTIMAL, iters
            if not np.isfinite(theta):
                stats.bland_activations += pricing.activations
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="unbounded",
                        entering=int(q), pricing_rule=rule_label(pricing),
                        eta_count=self._eta_updates, objective=float(z),
                    )
                return SolveStatus.UNBOUNDED, iters
            if theta <= opts.tol_zero:
                stats.degenerate_steps += 1
            if tr is not None:
                # Uncharged diagnostic peeks (host reads of the functional
                # backing store): leaving variable before the basis swap,
                # ratio-test tie count below the Harris-style cut.
                trace_leaving = int(st.basis[p])
                trace_ties = int(np.count_nonzero(st.ratios.data <= K.tie_cut(theta)))

            # -- update: β, π, B⁻¹, objective; the basis swap's device
            #    stores ride on the β-update launch
            with dev.timed_section("update"), self.plan.section("update"):
                swap = K.basis_swap(st, p, q, float(c_full[q]), n)
                K.update_beta_kernel(dev, st.beta, st.alpha, theta, p, swap)
                K.eta_kernel(dev, st.alpha, p, pivot, st.eta)
                K.extract_row(dev, st.binv, p, st.row_p)
                st.multipliers.update(d_q, pivot, st.row_p)
                blas.ger(st.eta, st.row_p, st.binv)
            z += theta * d_q
            self._eta_updates += 1
            if tr is not None:
                tr.record(
                    phase=phase, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(p),
                    leaving_var=trace_leaving,
                    pivot=float(pivot), theta=float(theta),
                    ratio_ties=trace_ties, pricing_rule=rule_label(pricing),
                    eta_count=self._eta_updates, objective=float(z),
                    degenerate=theta <= opts.tol_zero,
                )
            self._global_iter += 1
            if self._fill_every and self._global_iter % self._fill_every == 0:
                # diagnostic peek at the functional backing store (uncharged)
                frac = float(np.mean(np.abs(st.binv.data) > 1e-7))
                self._fill_curve.append((self._global_iter, frac))
            pricing.notify(theta * (-d_q) > 1e-12 * (1.0 + abs(z)))

            if (
                opts.refactor_period
                and iters % opts.refactor_period == 0
            ):
                with self.hooks.span("engine.refactor"):
                    st.refactor_host()
                stats.refactorizations += 1
                self._eta_updates = 0

        stats.bland_activations += pricing.activations
        return SolveStatus.ITERATION_LIMIT, iters

    # ------------------------------------------------------------------

    def drive_out_artificials(self) -> None:
        """Replace zero-valued artificial basics by real columns (host-driven,
        device-computed): row p of B⁻¹ is read directly (it *is* e_pᵀB⁻¹),
        the transformed row over real columns comes from one GEMVᵀ/SpMVᵀ."""
        st = self._st
        tol_piv = self._tol_piv
        dev = st.dev
        prep = st.prep
        n = prep.n_total
        for p in np.nonzero(st.basis >= n)[0]:
            p = int(p)
            K.extract_row(dev, st.binv, p, st.row_p)
            if st.a_sparse is not None:
                spmv_csc_t(st.a_sparse, st.row_p, st.tmp_n)
            else:
                blas.gemv(st.a_dense, st.row_p, st.tmp_n, trans=True)
            alpha_row = st.tmp_n.copy_to_host().astype(np.float64)
            eligible = (~st.in_basis[:n]) & (np.abs(alpha_row) > 1e-5)
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[np.argmax(np.abs(alpha_row[candidates]))])
            st.load_column(j)
            blas.gemv(st.binv, st.a_q, st.alpha)
            pivot = st.alpha.scalar_to_host(p)
            if abs(pivot) <= tol_piv:
                continue
            beta_p = st.beta.scalar_to_host(p)
            theta = beta_p / pivot
            swap = K.basis_swap(st, p, j, 0.0, n)
            K.update_beta_kernel(dev, st.beta, st.alpha, theta, p, swap)
            K.eta_kernel(dev, st.alpha, p, pivot, st.eta)
            K.extract_row(dev, st.binv, p, st.row_p)
            blas.ger(st.eta, st.row_p, st.binv)

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        if self._fill_every:
            result.extra["binv_fill"] = list(getattr(self, "_fill_curve", []))

    def extract(self, result: SolveResult) -> None:
        st = self._st
        if self._policy.refine:
            beta_host = self._refined_beta(result)
        else:
            beta_host = st.beta.copy_to_host().astype(np.float64)
        attach_standard_solution(result, self.prep, st.basis, beta_host)

    def _refined_beta(self, result: SolveResult) -> np.ndarray:
        """Mixed-precision extraction: fp64 residuals on the host drive
        fp32 correction solves on the device (dx = B⁻¹r via the resident
        inverse), with the solution accumulated in fp64 — the classic
        iterative-refinement scheme.  Every round trip is transfer-costed
        and the fp32↔fp64 conversions run as :func:`repro.gpu.blas.cast`
        kernels."""
        st = self._st
        dev = self.dev
        m = self.prep.m
        basis_matrix = np.asarray(
            self.prep.basis_matrix(st.basis), dtype=np.float64
        )
        b64 = np.asarray(self.prep.b, dtype=np.float64)
        scale = 1.0 + float(np.max(np.abs(b64))) if m else 1.0
        x64 = st.beta.copy_to_host().astype(np.float64)
        steps = 0
        residual = float(np.max(np.abs(b64 - basis_matrix @ x64))) if m else 0.0
        r64 = dev.alloc(m, np.float64)
        r32 = dev.alloc(m, np.float32)
        dx32 = dev.alloc(m, np.float32)
        try:
            while steps < 3 and residual > 1e-12 * scale:
                with dev.timed_section("transfer"):
                    r64.copy_from_host(b64 - basis_matrix @ x64)
                with dev.timed_section("refine"):
                    blas.cast(r64, r32)
                    blas.gemv(st.binv, r32, dx32)
                x64 += dx32.copy_to_host().astype(np.float64)
                steps += 1
                residual = float(np.max(np.abs(b64 - basis_matrix @ x64)))
        finally:
            for buf in (r64, r32, dx32):
                buf.free()
        result.extra["refinement_steps"] = steps
        result.extra["residual_after_refinement"] = residual
        return x64


class _State:
    """Device-resident solver state plus the host-side basis bookkeeping."""

    def __init__(self, prep: PreparedLP, dev: Device, dtype: np.dtype):
        self.prep = prep
        self.dev = dev
        self.dtype = dtype
        m, n = prep.m, prep.n_total

        self.a_sparse: DeviceCscMatrix | None = None
        self.a_dense: DeviceArray | None = None
        try:
            with dev.timed_section("transfer"):
                if prep.is_sparse:
                    self.a_sparse = DeviceCscMatrix(dev, prep.a, dtype)
                else:
                    self.a_dense = dev.to_device(np.asarray(prep.a), dtype)
                self.b = dev.to_device(prep.b, dtype)
                self.binv = dev.to_device(np.eye(m), dtype)
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
            self.eta = dev.zeros(m, dtype)
            self.row_p = dev.zeros(m, dtype)
        except Exception:
            # a failed allocation (device OOM) must not leak what was
            # already placed on the card
            self.free()
            raise

        self.multipliers = K.Multipliers(self.binv, self.c_b, self.pi)
        self.basis = np.zeros(m, dtype=np.int64)
        self.in_basis = np.zeros(n + m, dtype=bool)
        self._c_full = np.zeros(n + m)

    # -- basis bookkeeping ------------------------------------------------

    def init_basis(self, basis: np.ndarray) -> None:
        self.basis = basis.astype(np.int64).copy()
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        mask_host = np.where(self.in_basis[: self.prep.n_total], 0.0, 1.0)
        with self.dev.timed_section("transfer"):
            self.mask.copy_from_host(mask_host.astype(self.dtype))
            self.basis_keys.copy_from_host(self.basis.astype(self.dtype))

    def load_phase_costs(self, c_full: np.ndarray) -> None:
        """Upload the phase cost data: c over real columns and c_B."""
        self._c_full = c_full
        n = self.prep.n_total
        with self.dev.timed_section("transfer"):
            self.c_real.copy_from_host(c_full[:n].astype(self.dtype))
            self.c_b.copy_from_host(c_full[self.basis].astype(self.dtype))
        self.multipliers.invalidate()

    def load_entering(self) -> None:
        """a_q := the column pricing chose, q read on the device."""
        K.load_entering_column(
            self.dev, self.choice, self.a_q, n_real=self.prep.n_total,
            dense=self.a_dense, csc=self.a_sparse,
        )

    def load_column(self, j: int) -> None:
        """a_q := column j (real column or synthesised artificial e_i)."""
        n = self.prep.n_total
        if j >= n:
            K.unit_vector(self.dev, self.a_q, j - n)
        elif self.a_sparse is not None:
            self.a_sparse.getcol_device(j, self.a_q)
        else:
            K.extract_column(self.dev, self.a_dense, j, self.a_q)

    def refactor_host(self) -> None:
        """Rebuild B⁻¹ exactly on the host (PCIe round trip), refresh β;
        π is multiplied afresh at the next pricing."""
        b_matrix = self.prep.basis_matrix(self.basis)
        binv = np.linalg.solve(b_matrix, np.eye(self.prep.m))
        with self.dev.timed_section("transfer"):
            self.binv.copy_from_host(binv.astype(self.dtype))
        blas.gemv(self.binv, self.b, self.beta)
        K.clamp_nonneg_kernel(self.dev, self.beta)
        self.multipliers.invalidate()

    def free(self) -> None:
        """Release every device allocation; tolerates partially-constructed
        state (OOM during ``__init__``)."""
        for name in (
            "b", "binv", "beta", "c_real", "c_b", "mask",
            "pi", "d", "tmp_n", "tmp_m", "basis_keys",
            "a_q", "alpha", "ratios", "choice", "ratio_min", "eta", "row_p",
        ):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
        if self.a_dense is not None and not self.a_dense.is_freed:
            self.a_dense.free()
        if self.a_sparse is not None and not self.a_sparse.data.is_freed:
            self.a_sparse.free()
