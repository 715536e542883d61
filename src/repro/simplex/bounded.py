"""Bounded-variable (upper-bounded) revised simplex.

The classical conversion turns every finite range bound ``lo <= x <= hi``
into an extra constraint row, growing the basis.  The bounded-variable
simplex instead keeps upper bounds *inside* the method: nonbasic variables
rest at either their lower bound (0) or their upper bound u, and a variable
may simply *flip bounds* without any basis change at all — an O(m)
iteration instead of an O(m²) pivot.

This module is the :class:`BoxedBounds` strategy of the host loop in
:mod:`repro.simplex.revised_cpu`:

- **pricing** scores a nonbasic column by ``σ_j d_j`` with ``σ_j = +1`` at
  its lower bound and ``-1`` at its upper bound (it wants to *decrease*);
- **ratio test** (entering moves by σ·t, t >= 0; basics move by
  ``δ = −σ·α`` per unit t): a basic decreasing toward 0
  (``t <= x_i / −δ_i``), a basic increasing toward its u
  (``t <= (u_i − x_i) / δ_i``), or the entering variable's own bound
  (``t <= u_q`` → **bound flip**);
- **update**: x_B moves first; a bound flip stops there (no eta update),
  otherwise the basis update follows and the leaving variable rests at
  whichever of its bounds it hit.

This is the classic extension the thesis's future work points at
("využití slackových proměnných … efektivnější nalezení počáteční báze"),
and the A5 ablation measures what it buys over bounds-as-rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import CORE2_CPU_PARAMS, CpuModelParams
from repro.result import SolveResult
from repro.simplex.options import SolverOptions
from repro.simplex.revised_cpu import RevisedSimplexSolver, Step


class BoxedBounds:
    """Bounds strategy: finite upper bounds handled natively.

    The solver gains ``u`` (upper bounds over the real and artificial
    columns), ``at_upper`` (nonbasic columns resting at their bound) and a
    flip count; β holds x_B.
    """

    range_bounds_as_rows = False

    def arm_meta(self, opts) -> dict:
        return {}

    def begin(self, s) -> None:
        m = s.prep.m
        s.u = np.concatenate([s.prep.std.upper_bounds(), np.full(m, np.inf)])
        s.at_upper = np.zeros(s.prep.n_total, dtype=bool)  # all start at 0
        s.flips = 0

    def objective(self, s, c_full) -> float:
        n = s.prep.n_total
        return float(c_full[s.basis] @ s.beta) + float(
            c_full[:n][s.at_upper] @ s.u[:n][s.at_upper]
        )

    def effective_b(self, s) -> np.ndarray:
        """b − Σ_{j at upper} a_j u_j (the rhs seen by the basic variables)."""
        b = s.prep.b.astype(np.float64).copy()
        for j in np.nonzero(s.at_upper)[0]:
            b -= s.prep.column(int(j)) * s.u[j]
        return b

    def score(self, s, d: np.ndarray) -> np.ndarray:
        sigma = np.where(s.at_upper, -1.0, 1.0)
        return np.where(~s.in_basis[: s.prep.n_total], sigma * d, np.inf)

    def sigma(self, s, q: int) -> float:
        return -1.0 if s.at_upper[q] else 1.0

    def ratio(self, s, q: int, alpha) -> "Step | None":
        tol_piv = s.options.tol_pivot
        m, w = s.prep.m, s._w
        x_b, u = s.beta, s.u
        delta = -self.sigma(s, q) * alpha  # rate of change of x_B per unit t
        theta = float(u[q])  # the entering column's own bound: a flip
        u_basis = u[s.basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            dec = delta < -tol_piv
            t_dec = np.where(dec, x_b / np.maximum(-delta, 1e-300), np.inf)
            inc = (delta > tol_piv) & np.isfinite(u_basis)
            t_inc = np.where(inc, (u_basis - x_b) / np.maximum(delta, 1e-300), np.inf)
        t_dec = np.where(t_dec < 0, 0.0, t_dec)
        t_inc = np.where(t_inc < 0, 0.0, t_inc)
        best_dec = float(t_dec.min()) if m else np.inf
        best_inc = float(t_inc.min()) if m else np.inf
        basic_best = min(best_dec, best_inc)
        s.recorder.charge(
            "ratio", OpCost(flops=4 * m, bytes_read=3 * m * w, bytes_written=m * w)
        )
        if basic_best < theta * (1.0 - 1e-12):
            theta = basic_best
            # tie-break among blocking rows: lowest basic-variable index
            tied = np.nonzero(
                np.minimum(t_dec, t_inc) <= theta * (1 + 1e-12) + 1e-300
            )[0]
            p = int(tied[np.argmin(s.basis[tied])])
            return Step(p, theta, float(alpha[p]), int(tied.size),
                        to_upper=bool(t_inc[p] <= t_dec[p]))
        if not np.isfinite(theta):
            return None
        return Step(-1, theta, 0.0, 0)

    def move(self, s, q: int, d_q: float, alpha, r: Step) -> None:
        """x_B first; then the flip, or the basis update.  z takes the step
        only once it stands: when the basis update fails, the recovery
        rebuilds x_B for the unchanged basis and z must not include it."""
        sigma = self.sigma(s, q)
        s.beta += r.theta * (-sigma * alpha)
        np.clip(s.beta, 0.0, None, out=s.beta)
        s._charge_beta()
        if r.flip:
            s._z += d_q * sigma * r.theta
            s.at_upper[q] = ~s.at_upper[q]
            s.flips += 1
            return
        leaving = int(s.basis[r.row])
        s.basisrep.update(alpha, r.row, s.options.tol_pivot)
        s._z += d_q * sigma * r.theta
        s.beta[r.row] = s.u[q] - r.theta if sigma < 0 else r.theta
        if leaving < s.prep.n_total:
            s.at_upper[leaving] = r.to_upper and np.isfinite(s.u[leaving])
        s.at_upper[q] = False

    def drive_swap(self, s, p: int, j: int, alpha) -> None:
        # degenerate swap: values do not move
        s.beta[p] = s.u[j] if s.at_upper[j] else 0.0
        s.at_upper[j] = False

    def extras(self, s, result: SolveResult) -> None:
        result.extra["bound_flips"] = s.flips

    def extract(self, s, result: SolveResult) -> None:
        prep = s.prep
        n = prep.n_total
        x_std = np.zeros(n)
        x_std[s.at_upper] = s.u[:n][s.at_upper]
        real = s.basis < n
        x_std[s.basis[real]] = s.beta[real]
        z_std = float(prep.std.c @ x_std)
        result.objective = prep.std.original_objective(z_std)
        result.x = prep.std.recover_x(x_std)
        result.residuals = SolveResult.compute_residuals(
            prep.std.a, prep.std.b, x_std
        )
        result.extra["basis"] = s.basis.copy()
        result.extra["x_std"] = x_std
        result.extra["at_upper"] = s.at_upper.copy()
        # duals directly from the final basis
        c_full = np.concatenate([prep.c, np.zeros(prep.m)])
        try:
            y = np.linalg.solve(prep.basis_matrix(s.basis).T, c_full[s.basis])
            result.extra["duals"] = prep.std.recover_duals(y)
        except np.linalg.LinAlgError:
            pass


class BoundedRevisedSimplexSolver(RevisedSimplexSolver):
    """CPU revised simplex with native upper-bound handling."""

    name = "revised-bounded"
    accepts_warm_start = False
    ratio_tests = ("standard",)
    bounds = BoxedBounds()

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
