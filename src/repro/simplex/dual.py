"""Dual simplex method (CPU).

The primal simplex walks primal-feasible bases toward dual feasibility; the
dual simplex does the opposite: it starts from a **dual-feasible** basis
(all reduced costs non-negative) that may violate primal feasibility
(some basic values negative) and drives the infeasibilities out.

Why it exists in this library: after solving an LP, *changing the right-hand
side* leaves the optimal basis dual feasible (reduced costs don't involve b)
but typically primal infeasible — precisely the dual simplex's starting
point.  Re-optimising with it after an rhs perturbation costs a handful of
pivots where a cold primal solve replays the whole path (experiment A6).

Per iteration (Lemke's method, recompute-style like the primal solver):

1. **leaving row**  p = argmin x_B; stop OPTIMAL when x_B >= -tol
   (dual feasible + primal feasible = optimal).
2. **row generation**  w = B⁻ᵀ e_p (BTRAN), ᾱ_{p·} = wᵀA.
3. **entering column**  among nonbasic j with ᾱ_{pj} < -tol, pick
   q = argmin d_j / (−ᾱ_{pj}) — the dual ratio test, which preserves
   d >= 0.  No candidate ⇒ the primal is **infeasible** (dual unbounded).
4. **pivot**  α = B⁻¹a_q; θ_P = x_{B_p} / ᾱ_{pq} (> 0 since both negative);
   x_B ← x_B − θ_P α, x_{B_p} := θ_P; rank-1 basis update.

The solver requires a dual-feasible start (pass the previous optimal basis
via ``initial_basis_hint``); with none, it attempts the crash basis and
falls back to an exact primal pre-solve of the phase-1 type only if
``allow_primal_fallback`` is set.

Runs as a :class:`~repro.engine.backend.HostBackend`: it is the
single-phase backend (``needs_phase1`` is always False) and the one that
exercises the lifecycle's early-return path (the primal fallback produces
a finished result before the phase driver starts).
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend, attach_standard_solution
from repro.errors import SingularBasisError, SolverError
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, CpuModelParams
from repro.result import IterationStats, SolveResult
from repro.simplex.basis import make_basis
from repro.simplex.common import (
    initial_basis,
    phase2_costs,
    prepare,
    validate_warm_basis,
)
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


class DualSimplexSolver(HostBackend):
    """CPU dual simplex for re-optimisation from a dual-feasible basis."""

    name = "dual-cpu"
    accepts_warm_start = True

    def __init__(
        self,
        options: SolverOptions | None = None,
        cpu_params: CpuModelParams = CORE2_CPU_PARAMS,
        allow_primal_fallback: bool = True,
    ):
        super().__init__(options, cpu_params)
        self.allow_primal_fallback = allow_primal_fallback

    # -- engine backend interface --------------------------------------

    def begin(
        self, problem: "LPProblem | StandardFormLP", warm_hint
    ) -> "SolveResult | None":
        self.recorder.reset()
        opts = self.options
        self.prep = prep = prepare(problem, opts)
        m, n = prep.m, prep.n_total
        self.c_full = c_full = phase2_costs(prep)

        self.basisrep = basisrep = make_basis(opts.basis_update, m, self.recorder)
        if warm_hint is not None:
            basis = validate_warm_basis(prep, warm_hint)
            try:
                basisrep.refactorize(prep.basis_matrix(basis))
            except SingularBasisError:
                return self._fallback(problem, "singular warm basis")
        else:
            basis, _ = initial_basis(prep)

        # check dual feasibility of the start
        y = basisrep.btran(c_full[basis])
        d = c_full[:n] - prep.price_all(y)
        in_basis = np.zeros(n + m, dtype=bool)
        in_basis[basis] = True
        if np.any(d[~in_basis[:n]] < -1e-7):
            return self._fallback(problem, "start not dual feasible")

        self.basis = basis
        self.in_basis = in_basis
        self.x_b = basisrep.ftran(prep.b)
        self.stats = IterationStats()
        self._arm(m=m, n=n, pricing=opts.pricing)
        self.needs_phase1 = False
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        return self._iterate(
            self.prep, self.basisrep, self.basis, self.in_basis, self.x_b,
            self.c_full, self.stats,
        )

    # ------------------------------------------------------------------

    def _iterate(self, prep, basisrep, basis, in_basis, x_b, c_full, stats):
        opts = self.options
        m, n = prep.m, prep.n_total
        w_bytes = np.dtype(opts.dtype).itemsize
        cap = opts.iteration_cap(m, n)
        use_bland = opts.pricing == "bland"
        iters = 0
        feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(prep.b), initial=0.0)))
        tr = self.hooks if self.hooks.enabled else None
        row_rule = "bland" if use_bland else "dantzig"

        def objective() -> float:
            # Host-side peek for the trace only; charges no modeled time.
            return float(c_full[basis] @ x_b)

        # artificial basics are boxed at [0, 0]: a *positive* artificial is
        # as infeasible as a negative structural (generalised dual rule)
        while iters < cap:
            iters += 1

            # 1: leaving row — the most violated basic value
            artificial = basis >= n
            violation = np.where(x_b < -feas_tol, -x_b, 0.0)
            over = artificial & (x_b > feas_tol)
            violation = np.where(over, x_b, violation)
            if use_bland:
                bad = np.nonzero(violation > 0)[0]
                if bad.size == 0:
                    if tr is not None:
                        tr.record(phase=2, iteration=iters, event="optimal",
                                  pricing_rule=row_rule, objective=objective())
                    return SolveStatus.OPTIMAL, iters
                p = int(bad[np.argmin(basis[bad])])
            else:
                p = int(np.argmax(violation))
                if violation[p] <= 0:
                    if tr is not None:
                        tr.record(phase=2, iteration=iters, event="optimal",
                                  pricing_rule=row_rule, objective=objective())
                    return SolveStatus.OPTIMAL, iters
            above_upper = bool(over[p])
            self.recorder.charge(
                "leaving",
                OpCost(flops=2 * m, bytes_read=m * w_bytes, bytes_written=w_bytes),
            )

            # 2: transformed row
            e_p = np.zeros(m)
            e_p[p] = 1.0
            w = basisrep.btran(e_p)
            alpha_row = prep.price_all(w)
            self.recorder.charge(
                "row_gen",
                OpCost(
                    flops=prep.price_flops(),
                    bytes_read=(prep.nnz if prep.is_sparse else m * n) * w_bytes,
                    bytes_written=n * w_bytes,
                ),
            )

            # 3: dual ratio test
            y = basisrep.btran(c_full[basis])
            d = c_full[:n] - prep.price_all(y)
            self.recorder.charge(
                "pricing",
                OpCost(
                    flops=prep.price_flops(),
                    bytes_read=(prep.nnz if prep.is_sparse else m * n) * w_bytes,
                    bytes_written=n * w_bytes,
                ),
            )
            if above_upper:
                # drive the over-its-bound artificial *down*: entering must
                # have a positive row entry
                eligible = (~in_basis[:n]) & (alpha_row > opts.tol_pivot)
                denom = alpha_row
            else:
                eligible = (~in_basis[:n]) & (alpha_row < -opts.tol_pivot)
                denom = -alpha_row
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                if tr is not None:
                    tr.record(phase=2, iteration=iters, event="infeasible",
                              leaving_row=int(p), pricing_rule=row_rule,
                              objective=objective())
                return SolveStatus.INFEASIBLE, iters
            ratios = np.maximum(d[candidates], 0.0) / denom[candidates]
            best = float(ratios.min())
            tied = candidates[ratios <= best * (1.0 + 1e-12) + 1e-300]
            q = int(tied[0])  # lowest column index among ties (anti-cycling)

            # 4: pivot
            alpha = basisrep.ftran(prep.column(q))
            pivot = alpha[p]
            if abs(pivot) <= opts.tol_pivot:
                if tr is not None:
                    tr.record(phase=2, iteration=iters, event="numerical",
                              entering=int(q), leaving_row=int(p),
                              pivot=float(pivot), pricing_rule=row_rule,
                              objective=objective())
                return SolveStatus.NUMERICAL, iters
            theta_p = x_b[p] / pivot
            degenerate = abs(theta_p) <= opts.tol_zero
            if degenerate:
                stats.degenerate_steps += 1
            try:
                basisrep.update(alpha, p, opts.tol_pivot)
            except SingularBasisError:
                if tr is not None:
                    tr.record(phase=2, iteration=iters, event="numerical",
                              entering=int(q), leaving_row=int(p),
                              pivot=float(pivot), pricing_rule=row_rule,
                              objective=objective())
                return SolveStatus.NUMERICAL, iters
            x_b -= theta_p * alpha
            x_b[p] = theta_p
            self.recorder.charge(
                "update.beta",
                OpCost(flops=2 * m, bytes_read=2 * m * w_bytes,
                       bytes_written=m * w_bytes),
            )
            leaving_var = int(basis[p])
            in_basis[basis[p]] = False
            in_basis[q] = True
            basis[p] = q
            if tr is not None:
                tr.record(
                    phase=2, iteration=iters, event="pivot",
                    entering=int(q), leaving_row=int(p),
                    leaving_var=leaving_var,
                    pivot=float(pivot), theta=float(theta_p),
                    ratio_ties=int(tied.size), pricing_rule=row_rule,
                    eta_count=int(basisrep.updates_since_refactor),
                    objective=objective(), degenerate=degenerate,
                )

            if (
                opts.refactor_period
                and basisrep.updates_since_refactor >= opts.refactor_period
            ):
                try:
                    with self.hooks.span("engine.refactor"):
                        basisrep.refactorize(prep.basis_matrix(basis))
                except SingularBasisError:
                    return SolveStatus.NUMERICAL, iters
                stats.refactorizations += 1
                x_b[:] = basisrep.ftran(prep.b)

        return SolveStatus.ITERATION_LIMIT, iters

    # ------------------------------------------------------------------

    def _fallback(self, problem, reason: str) -> SolveResult:
        """No dual-feasible start: defer to the primal solver (documented
        behaviour) or fail loudly."""
        if not self.allow_primal_fallback:
            raise SolverError(f"dual simplex cannot start: {reason}")
        from repro.simplex.revised_cpu import RevisedSimplexSolver

        result = RevisedSimplexSolver(self.options).solve(problem)
        result.solver = f"{self.name}(primal-fallback)"
        result.extra["dual_fallback_reason"] = reason
        return result

    # -- finish participation ------------------------------------------

    def extract(self, result: SolveResult) -> None:
        x_clip = np.clip(self.x_b, 0.0, None)
        attach_standard_solution(result, self.prep, self.basis, x_clip)
