"""Bounded-variable revised simplex on the simulated GPU.

The device port of :class:`~repro.simplex.bounded.BoundedRevisedSimplexSolver`:
upper bounds live in device memory alongside the data, the pricing map is a
signed masked arg-min (σ·d with σ = ±1 by resting bound), the ratio test is
the three-way bounded map kernel, and bound flips cost a single AXPY-class
kernel — no basis update, no GER, no eta, and no change to π.

Per-iteration kernel schedule:

======== =========================================================
section  kernels
======== =========================================================
pricing  copy of c then GEMVᵀ/SpMVᵀ with β = 1 (d = c − Aᵀπ), signed
         mask map, device-resident arg-min (q, σ_q·d_q); GEMVᵀ
         π = B⁻ᵀc_B first only when π is stale
ftran    column load reading q on the device, GEMV (α = B⁻¹a_q)
ratio    bounded ratio map (reads σ_q on the device), arg-min;
         tie-break map, arg-min whose one readback brings
         (q, σ·d_q, p, θ, α_p, to_upper[p])
update   pivot: bounded β update (carries the swap stores), η
         kernel, row extract ρ_p, AXPY π += (d_q/α_p)·ρ_p, GER;
         bound flip: the bounded β update alone
======== =========================================================

As in ``gpu-revised``, π = B⁻ᵀc_B is multiplied fresh only at the start
of each phase and is otherwise updated from the pivot row
(:class:`~repro.core.gpu_kernels.Multipliers`); a terminal verdict priced
with an updated π is verified by redoing the iteration with a fresh one.

Compared to ``gpu-revised`` on a fully boxed problem, this solver keeps the
basis at m instead of m + #bounds; A5 measures the effect.

Per iteration the host reads one struct back — (q, σ·d_q, p, θ, α_p,
to_upper[p]), after pricing, the column load and the ratio map (which
reads σ_q on the device) all ran without it — and writes nothing: the
basis swap (mask bits, σ signs, c_B, basis key, u_B entry) and a flip's σ
sign are stores of the update launch.  The flip-or-pivot choice needs θ on
the host, so a bound flip runs the tie-break pass too.

Runs as a :class:`~repro.engine.backend.DeviceBackend` on the shared
:mod:`repro.engine` lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.engine import DeviceBackend
from repro.errors import SolverError
from repro.gpu import blas
from repro.gpu.device import Device
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

#: Pivot-row marker for a bound flip.
BOUND_FLIP = -2


class GpuBoundedRevisedSimplex(DeviceBackend):
    """Two-phase bounded-variable revised simplex on the simulated device."""

    name = "gpu-revised-bounded"

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
        if self.options.pricing not in ("dantzig", "bland", "hybrid"):
            raise SolverError(
                "gpu-revised-bounded supports dantzig/bland/hybrid pricing"
            )
        if self.options.scale:
            raise SolverError("the bounded solver does not combine with scaling")

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        self.prep = prep = prepare(problem, opts, range_bounds_as_rows=False)
        dtype = self._start_machine()

        self._st = st = _BState(prep, self.dev, dtype)
        self.stats = IterationStats()
        basis, needs_phase1 = initial_basis(prep)
        st.init_basis(basis)
        self._arm(m=prep.m, n=prep.n_total, pricing=opts.pricing)
        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        return self._run_phase(
            self._st, c_full, self.stats, self._tol_rc, self._tol_piv,
            phase=phase,
        )

    def phase1_objective(self) -> float:
        return blas.dot(self._st.c_b, self._st.x_b)

    # ------------------------------------------------------------------

    def _run_phase(self, st: "_BState", c_full, stats, tol_rc, tol_piv,
                   phase: int = 2):
        opts = self.options
        dev = st.dev
        tr = self.hooks if self.hooks.enabled else None
        prep = st.prep
        m, n = prep.m, prep.n_total
        cap = opts.iteration_cap(m, n)
        use_bland = opts.pricing == "bland"
        stalled = 0

        st.load_phase_costs(c_full)
        z = blas.dot(st.c_b, st.x_b)  # nonbasic-at-upper share added at finish
        iters = 0

        def rule_name() -> str:
            if opts.pricing == "hybrid":
                return "hybrid:bland" if use_bland else "hybrid:dantzig"
            return opts.pricing

        while iters < cap:
            iters += 1

            with dev.timed_section("pricing"), self.plan.section("pricing") as sec:
                st.multipliers.refresh()
                blas.copy(st.c_real, st.d)
                if st.a_sparse is not None:
                    spmv_csc_t(st.a_sparse, st.pi, st.d, alpha=-1.0, beta=1.0)
                else:
                    blas.gemv(st.a_dense, st.pi, st.d, alpha=-1.0, beta=1.0,
                              trans=True)
                K.masked_signed_for_min(dev, st.d, st.mask, st.sigma, st.tmp_n)
                if use_bland:
                    sec.first_below_to_device(st.tmp_n, -tol_rc, st.choice)
                else:
                    sec.argmin_to_device(st.tmp_n, st.choice, below=-tol_rc)

            with dev.timed_section("ftran"), self.plan.section("ftran"):
                st.load_entering()
                blas.gemv(st.binv, st.a_q, st.alpha)

            with dev.timed_section("ratio"):
                with self.plan.section("ratio.map") as sec:
                    K.bounded_ratio_kernel(
                        dev, st.x_b, st.alpha, st.u_basis, st.sigma,
                        st.choice, tol_piv, st.ratios, st.to_upper,
                    )
                    sec.argmin_to_device(st.ratios, st.ratio_min)
                # Bland-compatible tie-break among blocking rows
                with self.plan.section("ratio.tie") as sec:
                    K.tie_break_key_kernel(dev, st.ratios, st.ratio_min,
                                           st.basis_keys, st.tmp_m)
                    q, signed_dq, p, theta, (pivot, to_upper_p) = (
                        sec.ratio_readback(
                            st.choice, st.tmp_m, st.ratio_min,
                            (st.alpha, st.to_upper),
                        )
                    )
            if q != NO_INDEX:
                sigma = -1.0 if st.at_upper[q] else 1.0
                d_q = sigma * signed_dq  # un-sign: actual reduced cost
                pivot_kind = "basic"
                u_q = float(st.u_host[q])
                if np.isfinite(u_q) and u_q <= theta * (1.0 + 1e-12):
                    theta = u_q
                    pivot_kind = "flip"
            terminal = q == NO_INDEX or not np.isfinite(theta)
            if terminal and not st.multipliers.confirms():
                iters -= 1  # verify with a fresh π; the redo is not counted
                continue
            if q == NO_INDEX:
                if tr is not None:
                    tr.record(phase=phase, iteration=iters, event="optimal",
                              pricing_rule=rule_name(), objective=float(z))
                return SolveStatus.OPTIMAL, iters
            if not np.isfinite(theta):
                if tr is not None:
                    tr.record(phase=phase, iteration=iters, event="unbounded",
                              entering=int(q), pricing_rule=rule_name(),
                              objective=float(z))
                return SolveStatus.UNBOUNDED, iters
            degenerate = theta <= opts.tol_zero
            if degenerate:
                stats.degenerate_steps += 1
            if tr is not None and pivot_kind == "basic":
                # Uncharged diagnostic peeks at the functional backing store.
                trace_leaving = int(st.basis[p])
                trace_ties = int(np.count_nonzero(st.ratios.data <= K.tie_cut(theta)))

            with dev.timed_section("update"), self.plan.section("update"):
                if pivot_kind == "flip":
                    K.bounded_update_beta_kernel(
                        dev, st.x_b, st.alpha, -sigma * theta, -1, 0.0,
                        st.flip(q),
                    )
                else:
                    x_q_new = u_q - theta if sigma < 0 else theta
                    swap = st.swap(p, q, float(c_full[q]), to_upper_p != 0.0)
                    K.bounded_update_beta_kernel(
                        dev, st.x_b, st.alpha, -sigma * theta, p, x_q_new, swap
                    )
                    K.eta_kernel(dev, st.alpha, p, pivot, st.eta)
                    K.extract_row(dev, st.binv, p, st.row_p)
                    st.multipliers.update(d_q, pivot, st.row_p)
                    blas.ger(st.eta, st.row_p, st.binv)
            z += d_q * sigma * theta
            if tr is not None:
                if pivot_kind == "flip":
                    tr.record(
                        phase=phase, iteration=iters, event="flip",
                        entering=int(q), theta=float(theta),
                        pricing_rule=rule_name(), objective=float(z),
                        degenerate=degenerate,
                    )
                else:
                    tr.record(
                        phase=phase, iteration=iters, event="pivot",
                        entering=int(q), leaving_row=int(p),
                        leaving_var=trace_leaving,
                        pivot=float(pivot), theta=float(theta),
                        ratio_ties=trace_ties, pricing_rule=rule_name(),
                        objective=float(z), degenerate=degenerate,
                    )

            improved = (-d_q * sigma) * theta > 1e-12 * (1.0 + abs(z))
            if opts.pricing == "hybrid":
                if improved:
                    stalled = 0
                    use_bland = False
                else:
                    stalled += 1
                    if stalled >= opts.stall_window and not use_bland:
                        use_bland = True
                        stats.bland_activations += 1
                        stalled = 0

        return SolveStatus.ITERATION_LIMIT, iters

    def drive_out_artificials(self) -> None:
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
            row = st.tmp_n.copy_to_host().astype(np.float64)
            candidates = np.nonzero((~st.in_basis[:n]) & (np.abs(row) > 1e-5))[0]
            if candidates.size == 0:
                continue
            j = int(candidates[np.argmax(np.abs(row[candidates]))])
            st.load_column(j)
            blas.gemv(st.binv, st.a_q, st.alpha)
            pivot = st.alpha.scalar_to_host(p)
            if abs(pivot) <= tol_piv:
                continue
            # degenerate swap: no value moves; the new basic takes its
            # current resting value, stored with the swap by the η launch
            value = float(st.u_host[j]) if st.at_upper[j] else 0.0
            swap = st.swap(p, j, 0.0, leaves_at_upper=False)
            swap += K.ScalarStores(((st.x_b, p, value),))
            K.eta_kernel(dev, st.alpha, p, pivot, st.eta, swap)
            K.extract_row(dev, st.binv, p, st.row_p)
            blas.ger(st.eta, st.row_p, st.binv)

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        result.extra["bound_flips"] = self._st.flips

    def extract(self, result: SolveResult) -> None:
        st = self._st
        prep = self.prep
        n = prep.n_total
        x_b = st.x_b.copy_to_host().astype(np.float64)
        x_std = np.zeros(n)
        x_std[st.at_upper] = st.u_host[:n][st.at_upper]
        real = st.basis < n
        x_std[st.basis[real]] = x_b[real]
        z_std = float(prep.std.c @ x_std)
        result.objective = prep.std.original_objective(z_std)
        result.x = prep.std.recover_x(x_std)
        result.residuals = SolveResult.compute_residuals(
            prep.std.a, prep.std.b, x_std
        )
        result.extra["basis"] = st.basis.copy()
        result.extra["x_std"] = x_std
        result.extra["at_upper"] = st.at_upper.copy()


class _BState:
    """Device-resident bounded-solver state + host bookkeeping."""

    def __init__(self, prep: PreparedLP, dev: Device, dtype: np.dtype):
        self.prep = prep
        self.dev = dev
        self.dtype = dtype
        m, n = prep.m, prep.n_total
        self.u_host = np.concatenate(
            [prep.std.upper_bounds(), np.full(m, np.inf)]
        )

        self.a_sparse: DeviceCscMatrix | None = None
        self.a_dense = None
        try:
            with dev.timed_section("transfer"):
                if prep.is_sparse:
                    self.a_sparse = DeviceCscMatrix(dev, prep.a, dtype)
                else:
                    self.a_dense = dev.to_device(np.asarray(prep.a), dtype)
                self.b = dev.to_device(prep.b, dtype)
                self.binv = dev.to_device(np.eye(m), dtype)
                self.x_b = dev.to_device(prep.b, dtype)
                self.c_real = dev.to_device(np.zeros(n), dtype)
                self.c_b = dev.to_device(np.zeros(m), dtype)
                self.mask = dev.to_device(np.ones(n), dtype)
                self.sigma = dev.to_device(np.ones(n), dtype)
                self.u_basis = dev.to_device(np.full(m, np.inf), dtype)
            self.pi = dev.zeros(m, dtype)
            self.d = dev.zeros(n, dtype)
            self.tmp_n = dev.zeros(n, dtype)
            self.tmp_m = dev.zeros(m, dtype)
            self.basis_keys = dev.zeros(m, dtype)
            self.a_q = dev.zeros(m, dtype)
            self.alpha = dev.zeros(m, dtype)
            self.ratios = dev.zeros(m, dtype)
            #: (q, σ_q·d_q) of the pricing reduction, read by the column
            #: load and the ratio map
            self.choice = dev.alloc(2, dtype)
            #: (row, θ) of the ratio map's arg-min, read by the tie pass
            self.ratio_min = dev.alloc(2, dtype)
            self.to_upper = dev.zeros(m, dtype)
            self.eta = dev.zeros(m, dtype)
            self.row_p = dev.zeros(m, dtype)
        except Exception:
            self.free()
            raise

        self.multipliers = K.Multipliers(self.binv, self.c_b, self.pi)
        self.basis = np.zeros(m, dtype=np.int64)
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.at_upper = np.zeros(n, dtype=bool)
        self.flips = 0

    def init_basis(self, basis: np.ndarray) -> None:
        self.basis = basis.astype(np.int64).copy()
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        n = self.prep.n_total
        mask_host = np.where(self.in_basis[:n], 0.0, 1.0)
        with self.dev.timed_section("transfer"):
            self.mask.copy_from_host(mask_host.astype(self.dtype))
            self.basis_keys.copy_from_host(self.basis.astype(self.dtype))
            self.u_basis.copy_from_host(
                self.u_host[self.basis].astype(self.dtype)
            )

    def load_phase_costs(self, c_full: np.ndarray) -> None:
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
        n = self.prep.n_total
        if j >= n:
            K.unit_vector(self.dev, self.a_q, j - n)
        elif self.a_sparse is not None:
            self.a_sparse.getcol_device(j, self.a_q)
        else:
            K.extract_column(self.dev, self.a_dense, j, self.a_q)

    def flip(self, q: int) -> K.ScalarStores:
        """Bound flip of nonbasic q: host flag, plus the device σ sign
        store for the update launch."""
        self.at_upper[q] = ~self.at_upper[q]
        self.flips += 1
        return K.ScalarStores(((self.sigma, q, -1.0 if self.at_upper[q] else 1.0),))

    def swap(self, p: int, q: int, c_q: float,
             leaves_at_upper: bool) -> K.ScalarStores:
        """Basis exchange (see :func:`~repro.core.gpu_kernels.basis_swap`)
        plus the bounded extras: σ signs of the entering and leaving
        variables and the u_B entry of row p."""
        n = self.prep.n_total
        leaving = int(self.basis[p])
        stores = K.basis_swap(self, p, q, c_q, n)
        extra = []
        if q < n:
            self.at_upper[q] = False
            extra.append((self.sigma, q, 1.0))
        if leaving < n:
            goes_up = leaves_at_upper and np.isfinite(self.u_host[leaving])
            self.at_upper[leaving] = goes_up
            extra.append((self.sigma, leaving, -1.0 if goes_up else 1.0))
        # +inf is fine in fp32
        extra.append((self.u_basis, p, float(self.u_host[q])))
        return stores + K.ScalarStores(tuple(extra))

    def free(self) -> None:
        for name in (
            "b", "binv", "x_b", "c_real", "c_b", "mask", "sigma", "u_basis",
            "pi", "d", "tmp_n", "tmp_m", "basis_keys", "a_q", "alpha",
            "ratios", "choice", "ratio_min", "to_upper", "eta", "row_p",
        ):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
        if self.a_dense is not None and not self.a_dense.is_freed:
            self.a_dense.free()
        if self.a_sparse is not None and not self.a_sparse.data.is_freed:
            self.a_sparse.free()
