"""Sparse two-phase revised simplex on the CPU.

The sparse sibling of :mod:`repro.simplex.revised_cpu`: the constraint
matrix is held in CSC (dense inputs are converted on entry), the basis is
factorised by :class:`~repro.simplex.sparse_basis.SparseLUBasis` — sparse
LU from the basis' CSC columns plus a sparse product-form eta file — and
pricing is *partial*: reduced costs are computed section by section from
the CSC slices (:class:`~repro.simplex.sparse_pricing.SparsePartialPricing`),
so an iteration that finds an attractive column in the first section
touches a fraction of the matrix.

Refactorisation is periodic (``refactor_period``) **and** fill-triggered:
when the eta file grows the FTRAN/BTRAN working set past the basis'
``fill_limit`` times the fresh factors, the factors are rebuilt early —
the policy that keeps solve cost proportional to useful structure instead
of accumulated fill.

Every modeled cost scales with nonzeros (pricing 2·nnz(section), solves
2·(nnz(LU)+nnz(etas)), updates 2·nnz(α)), which is the entire point: at
1–5% density the dense comparator pays m·n where this backend pays nnz.

Runs behind the :class:`~repro.engine.backend.HostBackend` interface on
the shared :mod:`repro.engine` lifecycle; all instrumentation flows
through the engine observer hooks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.engine import HostBackend, attach_standard_solution, rule_label
from repro.errors import SingularBasisError
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.ops import OpCost
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PHASE1_TOL,
    PreparedLP,
    initial_basis,
    phase1_costs,
    phase2_costs,
    prepare,
)
from repro.simplex.ratio import run_ratio_test
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc
from repro.simplex.sparse_pricing import SparsePartialPricing
from repro.sparse.csc import CscMatrix
from repro.status import SolveStatus


def _as_sparse_prep(prep: PreparedLP) -> PreparedLP:
    """Ensure the prepared data holds a CSC matrix (convert dense inputs)."""
    if prep.is_sparse:
        if isinstance(prep.a, CscMatrix):
            return prep
        return dataclasses.replace(prep, a=prep.a.tocsc())
    return dataclasses.replace(
        prep, a=CscMatrix.from_dense(np.asarray(prep.a, dtype=np.float64))
    )


class SparseRevisedSimplexSolver(HostBackend):
    """CPU sparse revised simplex (CSC data, sparse LU basis, partial pricing).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis; a singular or infeasible hint falls back to the cold crash basis,
    exactly like the dense revised solver.
    """

    name = "revised-sparse-cpu"
    accepts_warm_start = True

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        self.recorder.reset()
        opts = self.options
        self.prep = prep = _as_sparse_prep(prepare(problem, opts))
        m, n = prep.m, prep.n_total

        # this method *is* the sparse-LU scheme; other basis_update values
        # describe dense representations and are not meaningful here
        self.basisrep = SparseLUBasis(m, self.recorder)
        basis, needs_phase1 = initial_basis(prep)
        self.beta = prep.b.astype(np.float64).copy()
        self.stats = stats = IterationStats()
        self._arm(
            m=m, n=n, pricing=opts.pricing, ratio_test=opts.ratio_test,
            nnz=prep.nnz,
        )
        self._phase = 1

        if warm_hint is not None:
            from repro.simplex.common import validate_warm_basis

            warm = validate_warm_basis(prep, warm_hint)
            try:
                self.basisrep.refactorize(basis_columns_csc(prep, warm))
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
        status, z, iters = self._run_phase(c_full)
        self._z = z
        return status, iters

    def phase1_objective(self) -> float:
        return self._z

    # ------------------------------------------------------------------

    def _run_phase(self, c_full: np.ndarray) -> tuple[SolveStatus, float, int]:
        opts = self.options
        prep = self.prep
        m, n = prep.m, prep.n_total
        rule = SparsePartialPricing(
            prep.a, opts.pricing, opts.stall_window, self.recorder, opts.dtype
        )
        rule.reset(n)
        cap = opts.iteration_cap(m, n)
        z = float(c_full[self.basis] @ self.beta)
        try:
            return self._iterate(c_full, rule, cap, z)
        finally:
            self.stats.bland_activations += rule.activations

    def _iterate(
        self,
        c_full: np.ndarray,
        rule: SparsePartialPricing,
        cap: int,
        z: float,
    ) -> tuple[SolveStatus, float, int]:
        opts = self.options
        prep, basisrep = self.prep, self.basisrep
        basis, in_basis, beta = self.basis, self.in_basis, self.beta
        stats = self.stats
        m, n = prep.m, prep.n_total
        w = np.dtype(opts.dtype).itemsize
        iters = 0
        tr = self.hooks if self.hooks.enabled else None

        while iters < cap:
            iters += 1

            # 1-2: BTRAN + partial pricing (section scan charges itself)
            pi = basisrep.btran(c_full[basis])
            choice = rule.select(pi, c_full, in_basis, opts.tol_reduced_cost)
            if choice is None:
                if tr is not None:
                    tr.record(
                        phase=self._phase, iteration=iters, event="optimal",
                        pricing_rule=rule_label(rule),
                        eta_count=int(basisrep.updates_since_refactor),
                        objective=float(z),
                    )
                return SolveStatus.OPTIMAL, z, iters
            q, d_q = choice

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
                recovered = self._recover()
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
            improvement = theta * float(-d_q)
            z += theta * float(d_q)
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

            # periodic *or* fill-triggered refactorisation
            if (
                opts.refactor_period
                and basisrep.updates_since_refactor >= opts.refactor_period
            ) or basisrep.needs_refresh():
                if not self._recover():
                    return SolveStatus.NUMERICAL, z, iters
                z = float(c_full[basis] @ beta)

        return SolveStatus.ITERATION_LIMIT, z, iters

    def _recover(self) -> bool:
        """Refactorise from the basis' CSC columns and recompute β."""
        try:
            with self.hooks.span("engine.refactor"):
                self.basisrep.refactorize(
                    basis_columns_csc(self.prep, self.basis)
                )
        except SingularBasisError:
            return False
        self.stats.refactorizations += 1
        self.beta[:] = self.basisrep.ftran(self.prep.b)
        np.clip(self.beta, 0.0, None, out=self.beta)
        return True

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out in favour of real columns.

        Identical policy to the dense revised solver; the transformed row
        comes from a sparse rmatvec and candidate columns are FTRANed
        through the sparse factors.
        """
        prep, basisrep = self.prep, self.basisrep
        basis, in_basis, beta = self.basis, self.in_basis, self.beta
        m, n = prep.m, prep.n_total
        w = np.dtype(self.options.dtype).itemsize
        nnz = prep.nnz
        row_cost = OpCost(
            flops=2 * nnz,
            bytes_read=nnz * (w + 4) + m * w,
            bytes_written=n * w,
        )
        for p in np.nonzero(basis >= n)[0]:
            e_p = np.zeros(m)
            e_p[p] = 1.0
            row_binv = basisrep.btran(e_p)
            alpha_row = prep.row_all(row_binv)
            self.recorder.charge("driveout", row_cost)
            candidates = np.nonzero(
                (~in_basis[:n]) & (np.abs(alpha_row) > 1e-7)
            )[0]
            if candidates.size == 0:
                continue  # redundant row
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

    def standard_extras(self, result: SolveResult) -> None:
        result.extra["a_nnz"] = self.prep.nnz
        result.extra["lu_nnz"] = self.basisrep.lu_nnz
        result.extra["eta_nnz"] = self.basisrep.eta_nnz
        result.extra["fill_ratio"] = self.basisrep.fill_ratio

    def extract(self, result: SolveResult) -> None:
        attach_standard_solution(result, self.prep, self.basis, self.beta)
