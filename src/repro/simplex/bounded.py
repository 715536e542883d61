"""Bounded-variable (upper-bounded) revised simplex.

The classical conversion turns every finite range bound ``lo <= x <= hi``
into an extra constraint row, growing the basis.  The bounded-variable
simplex instead keeps upper bounds *inside* the method: nonbasic variables
rest at either their lower bound (0) or their upper bound u, the ratio test
gains two extra cases, and a variable may simply *flip bounds* without any
basis change at all — an O(m) iteration instead of an O(m²) pivot.

Per iteration:

1. **pricing** — a nonbasic-at-lower column improves when ``d_j < -tol``;
   a nonbasic-at-upper column improves when ``d_j > +tol`` (it wants to
   *decrease*).  Both unify under the signed score ``σ_j d_j`` with
   ``σ_j = +1`` at lower, ``-1`` at upper.
2. **ratio test** (entering moves by σ·t, t >= 0; basics move by −σ·t·α):

   - a basic decreasing toward 0:          ``t <= x_i / (σ α_i)``,
   - a basic increasing toward its u:      ``t <= (u_i − x_i) / (−σ α_i)``,
   - the entering variable's own bound:    ``t <= u_q``  → **bound flip**.

3. **update** — a bound flip touches only x_B (one AXPY, no eta update);
   otherwise the usual rank-1 basis update with the leaving variable
   recorded at whichever of its bounds it hit.

This is the classic extension the thesis's future work points at
("využití slackových proměnných … efektivnější nalezení počáteční báze"),
and the A5 ablation measures what it buys over bounds-as-rows.

Runs as a :class:`~repro.engine.backend.HostBackend` on the shared
:mod:`repro.engine` lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend
from repro.errors import SingularBasisError, SolverError
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, CpuModelParams
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
from repro.simplex.options import SolverOptions
from repro.simplex.pricing import StallSwitch
from repro.status import SolveStatus

#: Ratio-test outcome marker for a bound flip (no basis change).
BOUND_FLIP = -2


class BoundedRevisedSimplexSolver(HostBackend):
    """CPU revised simplex with native upper-bound handling."""

    name = "revised-bounded"

    def __init__(
        self,
        options: SolverOptions | None = None,
        cpu_params: CpuModelParams = CORE2_CPU_PARAMS,
    ):
        super().__init__(options, cpu_params)
        if self.options.scale:
            raise SolverError(
                "the bounded solver does not combine with scaling yet; "
                "scale the data before building the problem"
            )

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        self.recorder.reset()
        opts = self.options
        self.prep = prep = prepare(problem, opts, range_bounds_as_rows=False)
        m, n = prep.m, prep.n_total
        upper = prep.std.upper_bounds()
        u_full = np.concatenate([upper, np.full(m, np.inf)])  # artificials

        basisrep = make_basis(opts.basis_update, m, self.recorder)
        basis, needs_phase1 = initial_basis(prep)
        in_basis = np.zeros(n + m, dtype=bool)
        in_basis[basis] = True
        at_upper = np.zeros(n, dtype=bool)  # all nonbasics start at lower
        x_b = prep.b.astype(np.float64).copy()
        self.stats = stats = IterationStats()
        self._arm(m=m, n=n, pricing=opts.pricing)

        self.st = _BoundedState(prep, basisrep, basis, in_basis, at_upper, x_b,
                                u_full, stats)
        self.needs_phase1 = needs_phase1
        self.phase1_feas_tol = PHASE1_TOL
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        switch = StallSwitch(self.options.pricing, self.options.stall_window)
        try:
            status, z, iters = self._run_phase(self.st, c_full, switch, phase)
        finally:
            self.stats.bland_activations += switch.activations
        self._z = z
        return status, iters

    def phase1_objective(self) -> float:
        return self._z

    # ------------------------------------------------------------------

    def _run_phase(self, st: "_BoundedState", c_full: np.ndarray,
                   switch: StallSwitch, phase: int):
        opts = self.options
        tr = self.hooks if self.hooks.enabled else None
        prep = st.prep
        m, n = prep.m, prep.n_total
        w = np.dtype(opts.dtype).itemsize
        cap = opts.iteration_cap(m, n)
        z = float(c_full[st.basis] @ st.x_b) + float(
            c_full[:n][st.at_upper] @ st.u[:n][st.at_upper]
        )
        iters = 0
        tol_rc = opts.tol_reduced_cost
        tol_piv = opts.tol_pivot

        while iters < cap:
            iters += 1

            # pricing
            y = st.basisrep.btran(c_full[st.basis])
            d = c_full[:n] - prep.price_all(y)
            self.recorder.charge(
                "pricing",
                OpCost(
                    flops=prep.price_flops(),
                    bytes_read=(prep.nnz if prep.is_sparse else m * n) * w + m * w,
                    bytes_written=n * w,
                ),
            )
            sigma_all = np.where(st.at_upper, -1.0, 1.0)
            signed = np.where(~st.in_basis[:n], sigma_all * d, np.inf)
            if switch.using_bland:
                hits = np.nonzero(signed < -tol_rc)[0]
                q = int(hits[0]) if hits.size else None
            else:
                q = int(np.argmin(signed))
                if signed[q] >= -tol_rc:
                    q = None
            if q is None:
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="optimal",
                        pricing_rule=switch.label,
                        eta_count=int(st.basisrep.updates_since_refactor),
                        objective=float(z),
                    )
                return SolveStatus.OPTIMAL, z, iters
            sigma = float(sigma_all[q])
            d_q = float(d[q])

            # ftran
            alpha = st.basisrep.ftran(prep.column(q))

            # three-way ratio test
            delta = -sigma * alpha  # rate of change of x_B per unit t
            theta = np.inf
            p = BOUND_FLIP if np.isfinite(st.u[q]) else -1
            to_upper_leaving = False
            if np.isfinite(st.u[q]):
                theta = float(st.u[q])
            u_basis = st.u[st.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = delta < -tol_piv
                t_dec = np.where(dec, st.x_b / np.maximum(-delta, 1e-300), np.inf)
                inc = (delta > tol_piv) & np.isfinite(u_basis)
                t_inc = np.where(
                    inc, (u_basis - st.x_b) / np.maximum(delta, 1e-300), np.inf
                )
            t_dec = np.where(t_dec < 0, 0.0, t_dec)
            t_inc = np.where(t_inc < 0, 0.0, t_inc)
            best_dec = float(t_dec.min()) if m else np.inf
            best_inc = float(t_inc.min()) if m else np.inf
            basic_best = min(best_dec, best_inc)
            self.recorder.charge(
                "ratio", OpCost(flops=4 * m, bytes_read=3 * m * w, bytes_written=m * w)
            )
            if basic_best < theta * (1.0 - 1e-12):
                theta = basic_best
                # tie-break among blocking rows: lowest basic-variable index
                tied = np.nonzero(
                    np.minimum(t_dec, t_inc) <= theta * (1 + 1e-12) + 1e-300
                )[0]
                p = int(tied[np.argmin(st.basis[tied])])
                to_upper_leaving = t_inc[p] <= t_dec[p]
            if not np.isfinite(theta):
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="unbounded",
                        entering=int(q), pricing_rule=switch.label,
                        eta_count=int(st.basisrep.updates_since_refactor),
                        objective=float(z),
                    )
                return SolveStatus.UNBOUNDED, z, iters
            degenerate = theta <= opts.tol_zero
            if degenerate:
                st.stats.degenerate_steps += 1

            # update x_B and the objective
            st.x_b += theta * delta
            np.clip(st.x_b, 0.0, None, out=st.x_b)
            z += d_q * sigma * theta
            self.recorder.charge(
                "update.beta",
                OpCost(flops=2 * m, bytes_read=2 * m * w, bytes_written=m * w),
            )

            improved = (-d_q * sigma) * theta > 1e-12 * (1.0 + abs(z))
            if p == BOUND_FLIP:
                st.at_upper[q] = ~st.at_upper[q]
                st.flips += 1
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="flip",
                        entering=int(q), theta=float(theta),
                        pricing_rule=switch.label,
                        eta_count=int(st.basisrep.updates_since_refactor),
                        objective=float(z), degenerate=degenerate,
                    )
            else:
                leaving = int(st.basis[p])
                x_q_new = st.u[q] - theta if sigma < 0 else theta
                try:
                    st.basisrep.update(alpha, p, tol_piv)
                except SingularBasisError:
                    recovered = self._recover(st)
                    if tr is not None:
                        tr.record(
                            phase=phase, iteration=iters,
                            event="recovery" if recovered else "numerical",
                            entering=int(q), leaving_row=int(p),
                            pricing_rule=switch.label, objective=float(z),
                        )
                    if not recovered:
                        return SolveStatus.NUMERICAL, z, iters
                    continue
                st.x_b[p] = x_q_new
                st.in_basis[leaving] = False
                st.in_basis[q] = True
                st.basis[p] = q
                if leaving < n:
                    st.at_upper[leaving] = to_upper_leaving and np.isfinite(
                        st.u[leaving]
                    )
                st.at_upper[q] = False
                if tr is not None:
                    tr.record(
                        phase=phase, iteration=iters, event="pivot",
                        entering=int(q), leaving_row=int(p), leaving_var=leaving,
                        pivot=float(alpha[p]), theta=float(theta),
                        ratio_ties=int(tied.size), pricing_rule=switch.label,
                        eta_count=int(st.basisrep.updates_since_refactor),
                        objective=float(z), degenerate=degenerate,
                    )

            switch.notify(improved)

            if (
                opts.refactor_period
                and st.basisrep.updates_since_refactor >= opts.refactor_period
            ):
                if not self._recover(st):
                    return SolveStatus.NUMERICAL, z, iters
                z = float(c_full[st.basis] @ st.x_b) + float(
                    c_full[:n][st.at_upper] @ st.u[:n][st.at_upper]
                )

        return SolveStatus.ITERATION_LIMIT, z, iters

    # ------------------------------------------------------------------

    def _recover(self, st: "_BoundedState") -> bool:
        """Refactorise and recompute x_B from scratch."""
        try:
            with self.hooks.span("engine.refactor"):
                st.basisrep.refactorize(st.prep.basis_matrix(st.basis))
        except SingularBasisError:
            return False
        st.stats.refactorizations += 1
        st.x_b[:] = st.basisrep.ftran(st.effective_b())
        np.clip(st.x_b, 0.0, None, out=st.x_b)
        return True

    def drive_out_artificials(self) -> None:
        st = self.st
        prep = st.prep
        m, n = prep.m, prep.n_total
        for p in np.nonzero(st.basis >= n)[0]:
            e_p = np.zeros(m)
            e_p[p] = 1.0
            row = prep.row_all(st.basisrep.btran(e_p))
            candidates = np.nonzero((~st.in_basis[:n]) & (np.abs(row) > 1e-7))[0]
            if candidates.size == 0:
                continue
            for j in candidates[np.argsort(-np.abs(row[candidates]))]:
                j = int(j)
                alpha = st.basisrep.ftran(prep.column(j))
                try:
                    st.basisrep.update(alpha, int(p), self.options.tol_pivot)
                except SingularBasisError:
                    continue
                # degenerate swap: values do not move
                st.x_b[p] = st.u[j] if st.at_upper[j] else 0.0
                st.in_basis[st.basis[p]] = False
                st.in_basis[j] = True
                st.basis[p] = j
                st.at_upper[j] = False
                break

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        result.extra["bound_flips"] = self.st.flips

    def extract(self, result: SolveResult) -> None:
        st = self.st
        prep = st.prep
        n = prep.n_total
        x_std = np.zeros(n)
        x_std[st.at_upper] = st.u[:n][st.at_upper]
        real = st.basis < n
        x_std[st.basis[real]] = st.x_b[real]
        z_std = float(prep.std.c @ x_std)
        result.objective = prep.std.original_objective(z_std)
        result.x = prep.std.recover_x(x_std)
        result.residuals = SolveResult.compute_residuals(
            prep.std.a, prep.std.b, x_std
        )
        result.extra["basis"] = st.basis.copy()
        result.extra["x_std"] = x_std
        result.extra["at_upper"] = st.at_upper.copy()
        # duals directly from the final basis
        c_full = np.concatenate([prep.c, np.zeros(prep.m)])
        try:
            y = np.linalg.solve(
                prep.basis_matrix(st.basis).T, c_full[st.basis]
            )
            result.extra["duals"] = prep.std.recover_duals(y)
        except np.linalg.LinAlgError:
            pass


class _BoundedState:
    """Mutable solver state bundled for the phase loop."""

    def __init__(self, prep: PreparedLP, basisrep, basis, in_basis, at_upper,
                 x_b, u_full, stats: IterationStats):
        self.prep = prep
        self.basisrep = basisrep
        self.basis = basis
        self.in_basis = in_basis
        self.at_upper = at_upper
        self.x_b = x_b
        self.u = u_full
        self.stats = stats
        self.flips = 0

    def effective_b(self) -> np.ndarray:
        """b − Σ_{j at upper} a_j u_j (the rhs seen by the basic variables)."""
        b = self.prep.b.astype(np.float64).copy()
        for j in np.nonzero(self.at_upper)[0]:
            b -= self.prep.column(int(j)) * self.u[j]
        return b
