"""Dense two-phase revised simplex on the CPU.

This is the paper's sequential comparator: the same algorithm the GPU solver
parallelises, running against NumPy (standing in for an optimized CPU BLAS)
with modeled 2009-era CPU time recorded per operation.

Algorithm (per iteration):

1. **BTRAN**    π = c_Bᵀ B⁻¹                     (basis representation)
2. **pricing**  d = c − πᵀA; entering column q   (pricing rule)
3. **FTRAN**    α = B⁻¹ a_q
4. **ratio**    leaving row p, step θ            (ratio test)
5. **update**   β, z, B⁻¹, basis index sets

Phase 1 minimises the sum of implicit artificial variables; artificials are
driven out of the basis before phase 2 (rows that cannot be driven out are
redundant and keep their artificial pinned at zero).

The two-phase driving, status handling and result assembly live in
:mod:`repro.engine`; this module implements only the method itself behind
the :class:`~repro.engine.backend.HostBackend` interface.
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend, attach_standard_solution, rule_label
from repro.errors import SingularBasisError
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.ops import OpCost
from repro.result import IterationStats, SolveResult
from repro.simplex.basis import make_basis
from repro.simplex.common import (
    PHASE1_TOL,
    PreparedLP,
    initial_basis,
    phase1_costs,
    phase2_costs,
    prepare,
)
from repro.simplex.pricing import HybridRule, make_pricing_rule
from repro.simplex.ratio import run_ratio_test
from repro.status import SolveStatus


class RevisedSimplexSolver(HostBackend):
    """CPU revised simplex (dense or sparse standard-form data).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis (e.g. ``previous_result.extra["basis"]``).  A hint that is
    singular or infeasible silently falls back to the cold crash basis.
    """

    name = "revised-cpu"
    accepts_warm_start = True

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        self.recorder.reset()
        opts = self.options
        self.prep = prep = prepare(problem, opts)
        m, n = prep.m, prep.n_total

        self.basisrep = make_basis(opts.basis_update, m, self.recorder)
        basis, needs_phase1 = initial_basis(prep)
        self.beta = prep.b.astype(np.float64).copy()
        self.stats = stats = IterationStats()
        self._arm(m=m, n=n, pricing=opts.pricing, ratio_test=opts.ratio_test)
        self._phase = 1

        if warm_hint is not None:
            from repro.simplex.common import validate_warm_basis

            warm = validate_warm_basis(prep, warm_hint)
            try:
                self.basisrep.refactorize(prep.basis_matrix(warm))
                warm_beta = self.basisrep.ftran(prep.b)
                if warm_beta.min() >= -1e-7:
                    basis = warm
                    self.beta = np.clip(warm_beta, 0.0, None)
                    needs_phase1 = bool(np.any(warm >= n))
                    stats.refactorizations += 1
                else:
                    self.basisrep.reset_identity()  # infeasible hint: cold start
            except SingularBasisError:
                self.basisrep.reset_identity()

        self.basis = basis
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[basis] = True
        self.needs_phase1 = needs_phase1
        self.phase1_feas_tol = PHASE1_TOL
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        self._phase = phase
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        status, z, iters = self._run_phase(
            self.prep, self.basisrep, self.basis, self.in_basis, self.beta,
            c_full, self.stats,
        )
        self._z = z
        return status, iters

    def phase1_objective(self) -> float:
        return self._z

    # ------------------------------------------------------------------

    def _pricing_cost(self, prep: PreparedLP) -> OpCost:
        w = np.dtype(self.options.dtype).itemsize
        if prep.is_sparse:
            nnz = prep.nnz
            return OpCost(
                flops=2 * nnz,
                bytes_read=nnz * (w + 4) + prep.m * w,
                bytes_written=prep.n_total * w,
            )
        return OpCost(
            flops=2 * prep.m * prep.n_total,
            bytes_read=(prep.m * prep.n_total + prep.m) * w,
            bytes_written=prep.n_total * w,
        )

    def _run_phase(
        self,
        prep: PreparedLP,
        basisrep,
        basis: np.ndarray,
        in_basis: np.ndarray,
        beta: np.ndarray,
        c_full: np.ndarray,
        stats: IterationStats,
    ) -> tuple[SolveStatus, float, int]:
        opts = self.options
        m, n = prep.m, prep.n_total
        rule = make_pricing_rule(opts.pricing, opts.stall_window)
        rule.reset(n)
        cap = opts.iteration_cap(m, n)
        z = float(c_full[basis] @ beta)
        pricing_cost = self._pricing_cost(prep)

        try:
            return self._iterate(
                prep, basisrep, basis, in_basis, beta, c_full, stats,
                rule, cap, z, pricing_cost,
            )
        finally:
            # Flush the per-phase Dantzig→Bland switch count on *every* exit
            # path (optimal, unbounded, numerical, iteration limit); the rule
            # is per-phase, so this adds each phase's activations exactly once.
            if isinstance(rule, HybridRule):
                stats.bland_activations += rule.activations

    def _iterate(
        self,
        prep: PreparedLP,
        basisrep,
        basis: np.ndarray,
        in_basis: np.ndarray,
        beta: np.ndarray,
        c_full: np.ndarray,
        stats: IterationStats,
        rule,
        cap: int,
        z: float,
        pricing_cost: OpCost,
    ) -> tuple[SolveStatus, float, int]:
        opts = self.options
        m, n = prep.m, prep.n_total
        w = np.dtype(opts.dtype).itemsize
        iters = 0
        tr = self.hooks if self.hooks.enabled else None

        while iters < cap:
            iters += 1

            # 1-2: BTRAN + pricing
            pi = basisrep.btran(c_full[basis])
            d = c_full[:n] - prep.price_all(pi)
            self.recorder.charge("pricing", pricing_cost)
            eligible = ~in_basis[:n]
            q = rule.select(d, eligible, opts.tol_reduced_cost)
            if q is None:
                if tr is not None:
                    tr.record(
                        phase=self._phase, iteration=iters, event="optimal",
                        pricing_rule=rule_label(rule),
                        eta_count=int(basisrep.updates_since_refactor),
                        objective=float(z),
                    )
                return SolveStatus.OPTIMAL, z, iters

            # 3: FTRAN
            a_q = prep.column(q)
            alpha = basisrep.ftran(a_q)

            # 4: ratio test
            rr = run_ratio_test(opts.ratio_test, beta, alpha, basis, opts.tol_pivot)
            self.recorder.charge(
                "ratio", OpCost(flops=m, bytes_read=2 * m * w, bytes_written=m * w)
            )
            if rr.unbounded:
                if tr is not None:
                    tr.record(
                        phase=self._phase, iteration=iters, event="unbounded",
                        entering=int(q), pricing_rule=rule_label(rule),
                        eta_count=int(basisrep.updates_since_refactor),
                        objective=float(z),
                    )
                return SolveStatus.UNBOUNDED, z, iters
            if rr.ties > 1:
                stats.degenerate_steps += 1

            # 5: update
            theta = rr.theta
            try:
                basisrep.update(alpha, rr.row, opts.tol_pivot)
            except SingularBasisError:
                recovered = self._recover(prep, basisrep, basis, beta, stats)
                if tr is not None:
                    tr.record(
                        phase=self._phase, iteration=iters,
                        event="recovery" if recovered else "numerical",
                        entering=int(q), leaving_row=int(rr.row),
                        pricing_rule=rule_label(rule), objective=float(z),
                    )
                if not recovered:
                    return SolveStatus.NUMERICAL, z, iters
                continue
            beta -= theta * alpha
            beta[rr.row] = theta
            np.clip(beta, 0.0, None, out=beta)  # round-off guard; β >= 0 invariant
            self.recorder.charge(
                "update.beta",
                OpCost(flops=2 * m, bytes_read=2 * m * w, bytes_written=m * w),
            )
            improvement = theta * float(-d[q])
            z += theta * float(d[q])
            if tr is not None:
                tr.record(
                    phase=self._phase, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(rr.row),
                    leaving_var=int(basis[rr.row]),
                    pivot=float(rr.pivot), theta=float(theta),
                    ratio_ties=int(rr.ties), pricing_rule=rule_label(rule),
                    eta_count=int(basisrep.updates_since_refactor),
                    objective=float(z), degenerate=rr.ties > 1,
                )
            in_basis[basis[rr.row]] = False
            in_basis[q] = True
            basis[rr.row] = q
            rule.notify_pivot(q, rr.row, None, improvement > 1e-12 * (1.0 + abs(z)))

            if (
                opts.refactor_period
                and basisrep.updates_since_refactor >= opts.refactor_period
            ):
                if not self._recover(prep, basisrep, basis, beta, stats):
                    return SolveStatus.NUMERICAL, z, iters
                z = float(c_full[basis] @ beta)

        return SolveStatus.ITERATION_LIMIT, z, iters

    def _recover(self, prep, basisrep, basis, beta, stats) -> bool:
        """Refactorise from the basis columns and recompute β; False when the
        basis is genuinely singular (unrecoverable)."""
        try:
            with self.hooks.span("engine.refactor"):
                basisrep.refactorize(prep.basis_matrix(basis))
        except SingularBasisError:
            return False
        stats.refactorizations += 1
        beta[:] = basisrep.ftran(prep.b)
        np.clip(beta, 0.0, None, out=beta)
        return True

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out in favour of real columns.

        Rows where no real nonbasic column has a nonzero entry in the
        transformed row are redundant: their artificial stays basic at zero
        (it can never grow — phase 2 keeps its cost at 0 and β_p = 0).
        """
        prep, basisrep = self.prep, self.basisrep
        basis, in_basis, beta = self.basis, self.in_basis, self.beta
        m, n = prep.m, prep.n_total
        for p in np.nonzero(basis >= n)[0]:
            e_p = np.zeros(m)
            e_p[p] = 1.0
            row_binv = basisrep.btran(e_p)
            alpha_row = prep.row_all(row_binv)
            self.recorder.charge("driveout", self._pricing_cost(prep))
            candidates = np.nonzero(
                (~in_basis[:n]) & (np.abs(alpha_row) > 1e-7)
            )[0]
            if candidates.size == 0:
                continue  # redundant row
            # best pivot magnitude first for stability
            for j in candidates[np.argsort(-np.abs(alpha_row[candidates]))]:
                alpha = basisrep.ftran(prep.column(int(j)))
                try:
                    basisrep.update(alpha, int(p), self.options.tol_pivot)
                except SingularBasisError:
                    continue
                theta = beta[p] / alpha[p] if alpha[p] != 0 else 0.0
                beta -= theta * alpha
                beta[p] = theta
                np.clip(beta, 0.0, None, out=beta)
                in_basis[basis[p]] = False
                in_basis[int(j)] = True
                basis[p] = int(j)
                break

    # -- finish participation ------------------------------------------

    def extract(self, result: SolveResult) -> None:
        attach_standard_solution(result, self.prep, self.basis, self.beta)
