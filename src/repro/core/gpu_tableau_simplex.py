"""Full-tableau simplex on the simulated GPU — the A3 ablation design point.

The tableau method updates the *entire* m×n tableau with one rank-1 GER per
pivot.  On a GPU this is the maximally parallel formulation (m·n threads,
perfect device fill), but it does Θ(mn) work per iteration where the revised
method does Θ(m² + pricing); the A3 experiment measures where each wins.

Device layout: the tableau T is placed **column-major** (the per-iteration
entering column load is the hot read, and d = c − Tᵀc_B runs one warp per
contiguous column), so the pivot row's read and write stride across
columns and pay a 64-byte segment per element — the classic layout trade
the paper's discussion of coalescing covers.

Per iteration the host reads one struct back — (q, d_q, p, θ, α_p), after
the pricing reduction, the column extract and the ratio test all ran on
the device — and writes nothing: the basis swap and the zeroed reduced
cost of the entering column are stores of the β-update launch.

Runs as a :class:`~repro.engine.backend.DeviceBackend` on the shared
:mod:`repro.engine` lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.engine import DeviceBackend, attach_standard_solution
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.reduce import NO_INDEX
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PreparedLP,
    initial_basis,
    prepare,
)
from repro.simplex.pricing import StallSwitch
from repro.status import SolveStatus


class GpuTableauSimplex(DeviceBackend):
    """Two-phase full-tableau simplex on the simulated SIMT device."""

    name = "gpu-tableau"

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        self.prep = prep = prepare(problem, opts)
        dtype = self._start_machine()

        m, n = prep.m, prep.n_total
        basis, needs_phase1 = initial_basis(prep)
        self._n_cols = n_cols = n + (m if needs_phase1 else 0)

        # host-side build of the initial tableau, then one bulk upload
        t_host = np.zeros((m, n_cols))
        t_host[:, :n] = prep.a.to_dense() if prep.is_sparse else np.asarray(prep.a)
        if needs_phase1:
            t_host[:, n:] = np.eye(m)

        self._st = _TableauState(
            self.dev, dtype, t_host, prep, basis, enterable_limit=n,
            plan=self.plan,
        )
        self.stats = IterationStats()
        self._arm(m=m, n=n, pricing=opts.pricing)
        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        st = self._st
        n = self.prep.n_total
        c_full = np.zeros(self._n_cols)
        if phase == 1:
            c_full[n:] = 1.0
        else:
            c_full[:n] = self.prep.c
        st.load_costs(c_full, st.basis)
        return self._run_phase(
            st, c_full, self.stats, self._tol_rc, self._tol_piv, phase=phase
        )

    def phase1_objective(self) -> float:
        return blas.dot(self._st.c_b, self._st.beta)

    # ------------------------------------------------------------------

    def _run_phase(
        self,
        st: "_TableauState",
        c_full: np.ndarray,
        stats: IterationStats,
        tol_rc: float,
        tol_piv: float,
        phase: int = 2,
    ) -> tuple[SolveStatus, int]:
        opts = self.options
        dev = st.dev
        tr = self.hooks if self.hooks.enabled else None
        m, n_cols = st.tableau.shape
        cap = opts.iteration_cap(m, n_cols)
        switch = StallSwitch(opts.pricing, opts.stall_window)
        z = blas.dot(st.c_b, st.beta)
        iters = 0

        def finish(status: SolveStatus) -> tuple[SolveStatus, int]:
            stats.bland_activations += switch.activations
            return status, iters

        while iters < cap:
            iters += 1

            with dev.timed_section("pricing"), self.plan.section("pricing") as sec:
                K.masked_for_min(dev, st.d, st.mask, st.work)
                K.select_entering(sec, st.work, st.choice, tol_rc, switch.using_bland)

            with dev.timed_section("column"), self.plan.section("column"):
                K.load_entering_column(
                    dev, st.choice, st.alpha, n_real=n_cols, dense=st.tableau
                )

            with dev.timed_section("ratio"), self.plan.section("ratio") as sec:
                K.ratio_kernel(dev, st.beta, st.alpha, st.ratios, tol_piv)
                sec.argmin_to_device(st.ratios, st.ratio_min)
                K.tie_break_key_kernel(
                    dev, st.ratios, st.ratio_min, st.basis_keys, st.tie_keys
                )
                q, d_q, p, theta, (pivot,) = sec.ratio_readback(
                    st.choice, st.tie_keys, st.ratio_min, (st.alpha,)
                )
            if q == NO_INDEX:
                if tr is not None:
                    tr.record(phase=phase, iteration=iters, event="optimal",
                              pricing_rule=switch.label, objective=float(z))
                return finish(SolveStatus.OPTIMAL)
            if not np.isfinite(theta):
                if tr is not None:
                    tr.record(phase=phase, iteration=iters, event="unbounded",
                              entering=int(q), pricing_rule=switch.label,
                              objective=float(z))
                return finish(SolveStatus.UNBOUNDED)
            degenerate = theta <= opts.tol_zero
            if degenerate:
                stats.degenerate_steps += 1
            if tr is not None:
                # Uncharged diagnostic peeks at the functional backing store.
                trace_leaving = int(st.basis[p])
                trace_ties = int(np.count_nonzero(st.ratios.data <= K.tie_cut(theta)))

            with dev.timed_section("pivot"):
                st.pivot(p, q, pivot, theta, d_q, float(c_full[q]))
            z += theta * d_q
            if tr is not None:
                tr.record(
                    phase=phase, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(p),
                    leaving_var=trace_leaving,
                    pivot=float(pivot), theta=float(theta),
                    ratio_ties=trace_ties, pricing_rule=switch.label,
                    objective=float(z), degenerate=degenerate,
                )
            switch.notify(theta * (-d_q) > 1e-12 * (1.0 + abs(z)))

        return finish(SolveStatus.ITERATION_LIMIT)

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued artificial basics onto real columns."""
        st = self._st
        dev = st.dev
        n = st.enterable_limit
        for p in np.nonzero(st.basis >= n)[0]:
            p = int(p)
            K.extract_row(dev, st.tableau, p, st.row_buf)
            row = st.row_buf.copy_to_host().astype(np.float64)[:n]
            eligible = (~st.in_basis[:n]) & (np.abs(row) > 1e-5)
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                continue
            q = int(candidates[np.argmax(np.abs(row[candidates]))])
            K.extract_column(dev, st.tableau, q, st.alpha)
            pivot = st.alpha.scalar_to_host(p)
            beta_p = st.beta.scalar_to_host(p)
            theta = beta_p / pivot
            d_q = st.d.scalar_to_host(q)
            st.pivot(p, q, pivot, theta, d_q, 0.0)

    # -- finish participation ------------------------------------------

    def extract(self, result: SolveResult) -> None:
        st = self._st
        if self._policy.refine:
            beta_host = self._refined_beta(result)
        else:
            beta_host = st.beta.copy_to_host().astype(np.float64)
        attach_standard_solution(result, self.prep, st.basis, beta_host)

    def _refined_beta(self, result: SolveResult) -> np.ndarray:
        """fp64 iterative refinement of the fp32 basic solution.

        The tableau method keeps no factorisation of B on the device, so
        the correction solves run on the host against the fp64 basis
        matrix (host linear algebra is uncharged, matching the revised
        method's refactorisation convention); the fp32 solution download
        is the only device traffic.
        """
        st = self._st
        m = self.prep.m
        basis_matrix = np.asarray(
            self.prep.basis_matrix(st.basis), dtype=np.float64
        )
        b64 = np.asarray(self.prep.b, dtype=np.float64)
        scale = 1.0 + (float(np.max(np.abs(b64))) if m else 0.0)
        x64 = st.beta.copy_to_host().astype(np.float64)
        steps = 0
        residual = (
            float(np.max(np.abs(b64 - basis_matrix @ x64))) if m else 0.0
        )
        while steps < 3 and residual > 1e-12 * scale:
            x64 += np.linalg.solve(basis_matrix, b64 - basis_matrix @ x64)
            steps += 1
            residual = float(np.max(np.abs(b64 - basis_matrix @ x64)))
        result.extra["refinement_steps"] = steps
        result.extra["residual_after_refinement"] = residual
        return x64


class _TableauState:
    """Device tableau + vectors, and the host basis bookkeeping.

    The work vectors are allocated uninitialised (each is written before
    it is read); the tableau, β, the mask and the basis keys are placed in
    one region with one HtoD copy, behind a leading run for each phase's
    costs (c, then c_B) that :meth:`load_costs` fills with one copy.
    """

    def __init__(self, dev: Device, dtype: np.dtype, t_host: np.ndarray,
                 prep: PreparedLP, basis: np.ndarray, enterable_limit: int, *,
                 plan: gpu_plan.LaunchPlan):
        self.dev = dev
        self.dtype = dtype
        self.prep = prep
        self.plan = plan
        m, n_cols = t_host.shape
        self.basis = basis.astype(np.int64).copy()
        self.enterable_limit = enterable_limit
        self.in_basis = np.zeros(n_cols, dtype=bool)
        self.in_basis[self.basis] = True
        mask_host = np.ones(n_cols)
        mask_host[self.in_basis] = 0.0
        mask_host[enterable_limit:] = 0.0  # artificials never (re-)enter
        try:
            self.d = dev.alloc(n_cols, dtype)
            self.work = dev.alloc(n_cols, dtype)
            self.alpha = dev.alloc(m, dtype)
            self.ratios = dev.alloc(m, dtype)
            #: (q, d_q) of the pricing reduction, read by the column extract
            self.choice = dev.alloc(2, dtype)
            #: (row, θ) of the ratio map's arg-min, read by the tie pass
            self.ratio_min = dev.alloc(2, dtype)
            self.tie_keys = dev.alloc(m, dtype)
            self.row_buf = dev.alloc(n_cols, dtype)
            self.row_norm = dev.alloc(n_cols, dtype)
            hosts = {
                "tableau": t_host, "beta": prep.b, "mask": mask_host,
                "basis_keys": self.basis,
            }
            layout = {"c": ((n_cols,), dtype), "c_b": ((m,), dtype)}
            layout.update({k: (np.shape(h), dtype) for k, h in hosts.items()})
            self.region = region = dev.region(
                layout, column_major=("tableau",), aligned=True
            )
            with dev.timed_section("transfer"):
                region.fill(hosts)
            for name in layout:
                setattr(self, name, region[name])
        except Exception:
            self.free()
            raise

    def load_costs(self, c_full: np.ndarray, basis: np.ndarray) -> None:
        """Upload phase costs (one copy) and recompute d = c − c_Bᵀ T on
        the device."""
        with self.dev.timed_section("transfer"):
            self.region.fill({"c": c_full, "c_b": c_full[basis]})
        with self.dev.timed_section("pricing"), self.plan.section("pricing.load"):
            blas.copy(self.c, self.d)
            blas.gemv(self.tableau, self.c_b, self.d, alpha=-1.0, beta=1.0, trans=True)

    def pivot(self, p: int, q: int, pivot: float, theta: float,
              d_q: float, c_q: float) -> None:
        """Gauss–Jordan elimination around (p, q), all on-device.

        The β update runs last: besides the basis swap it stores
        d_q := 0 exactly, after the reduced-cost AXPY."""
        dev = self.dev
        swap = K.basis_swap(self, p, q, c_q, self.enterable_limit)
        swap += K.ScalarStores(((self.d, q, 0.0),))
        with dev.timed_section("pivot"), self.plan.section("pivot"):
            # normalised pivot row
            K.extract_row(dev, self.tableau, p, self.row_buf)
            K.scale_row_kernel(dev, self.row_buf, 1.0 / pivot, self.row_norm)
            # tableau rank-1 elimination, then rewrite row p
            K.ger_column_major(dev, self.alpha, self.row_norm, self.tableau, alpha=-1.0)
            K.write_row_kernel(dev, self.tableau, p, self.row_norm)
            # reduced costs and rhs
            blas.axpy(-d_q, self.row_norm, self.d)
            K.update_beta_kernel(dev, self.beta, self.alpha, theta, p, swap)

    def free(self) -> None:
        """Release device allocations; tolerates partial construction."""
        for name in (
            "region", "d", "work", "alpha", "ratios", "choice", "ratio_min",
            "tie_keys", "row_buf", "row_norm",
        ):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
