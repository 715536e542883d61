"""Post-optimal analysis: duals, reduced costs and optimality certificates.

Every solver in the library terminates with a basis; this module turns that
basis into the full LP certificate, independently of which machine produced
it:

- **row duals**  y solving  Bᵀy = c_B  (the simplex multipliers at optimum),
- **reduced costs**  d = c − Aᵀy  (non-negative over nonbasic columns at an
  optimum of a minimisation),
- **duality gap**  cᵀx − bᵀy  (zero at an exact optimum — strong duality),
- **complementary slackness** violation (max |xⱼ·dⱼ|),
- **primal residual**  how far x is from feasible: rows and bounds.

Because the computation starts from the basis *columns* (not from any
solver-internal inverse), it doubles as an independent check of the solver's
numerical state: a drifted B⁻¹ shows up as a non-zero gap here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import SingularBasisError
from repro.simplex.common import PreparedLP


@dataclasses.dataclass
class Certificate:
    """Optimality certificate of a basic solution in standard form."""

    #: Simplex multipliers (standard-form row duals), length m.
    y: np.ndarray
    #: Reduced costs over all standard-form columns, length n.
    reduced_costs: np.ndarray
    #: cᵀx − bᵀy in the standard form (0 at an exact optimum).
    duality_gap: float
    #: max |x_j · d_j| over all columns (0 under complementary slackness).
    complementary_slackness: float
    #: min_j σ_j·d_j over nonbasic columns (>= -tol certifies optimality).
    min_nonbasic_reduced_cost: float
    #: The larger of ‖A·x − b‖∞ / max(1, ‖b‖∞) and the bound violation
    #: max_j max(−xⱼ, xⱼ − uⱼ) / max(1, the largest finite |u|): 0 when x
    #: is feasible.
    primal_residual: float = 0.0

    def is_optimal_certificate(self, tol: float = 1e-6) -> bool:
        """True when the certificate proves (approximate) optimality: x is
        feasible and dual feasible, with no gap and no slackness left."""
        return (
            self.min_nonbasic_reduced_cost >= -tol
            and abs(self.duality_gap) <= tol * (1.0 + abs(self.duality_gap))
            and self.complementary_slackness <= tol
            and self.primal_residual <= tol
        )


def certificate_from_basis(
    prep: PreparedLP,
    basis: np.ndarray,
    x_std: np.ndarray,
    at_upper: "np.ndarray | None" = None,
) -> Certificate:
    """Compute the full certificate from the final basis and primal point.
    ``at_upper`` marks the nonbasics resting at their upper bound uⱼ
    (σⱼ = −1): optimality is tested on σⱼ·dⱼ, the gap subtracts
    Σ_{at upper} uⱼ·dⱼ and their slackness is (uⱼ − xⱼ)·dⱼ.

    Works in the (possibly scaled) standard form the solver ran on; callers
    map back via :meth:`~repro.lp.standard_form.StandardFormLP.recover_duals`
    and :meth:`~repro.lp.scaling.ScalingResult.unscale_duals`.
    """
    basis = np.asarray(basis, dtype=np.int64)
    m, n = prep.m, prep.n_total
    c_full = np.concatenate([prep.c, np.zeros(m)])  # artificials cost 0 here
    b_matrix = prep.basis_matrix(basis)
    try:
        y = np.linalg.solve(b_matrix.T, c_full[basis])
    except np.linalg.LinAlgError:
        raise SingularBasisError("final basis is singular; no certificate") from None

    d = prep.c - prep.price_all(y)
    in_basis = np.zeros(n, dtype=bool)
    real = basis[basis < n]
    in_basis[real] = True

    z_primal = float(prep.c @ x_std)
    z_dual = float(prep.b @ y)
    gap = z_primal - z_dual
    u = prep.upper_bounds()[:n]
    slack, signed = x_std, d
    if at_upper is not None:
        gap -= float(u[at_upper] @ d[at_upper])
        slack = np.where(at_upper, u - x_std, x_std)
        signed = np.where(at_upper, -d, d)

    cs = float(np.max(np.abs(slack * d), initial=0.0))
    nonbasic = ~in_basis
    min_d = float(signed[nonbasic].min()) if nonbasic.any() else 0.0

    ax = prep.a.matvec(x_std) if prep.is_sparse else prep.a @ x_std
    b_norm = max(1.0, float(np.max(np.abs(prep.b), initial=0.0)))
    rows = float(np.max(np.abs(ax - prep.b), initial=0.0)) / b_norm
    finite = np.isfinite(u)
    over = np.maximum(-x_std, np.where(finite, x_std - u, 0.0))
    u_norm = max(1.0, float(np.max(np.abs(u[finite]), initial=0.0)))
    bounds = float(np.max(over, initial=0.0)) / u_norm

    return Certificate(
        y=y,
        reduced_costs=d,
        duality_gap=gap,
        complementary_slackness=cs,
        min_nonbasic_reduced_cost=min_d,
        primal_residual=max(rows, bounds),
    )


def attach_certificate(result, prep: PreparedLP) -> None:
    """Compute and attach the certificate + original-space duals to an
    optimal :class:`~repro.result.SolveResult` (no-op otherwise).

    Adds:

    - ``result.extra["certificate"]`` — the standard-form certificate,
    - ``result.extra["duals"]`` — duals of the *original* constraints,
    - ``result.extra["reduced_costs_std"]`` — standard-form reduced costs.
    """
    if not result.is_optimal or "basis" not in result.extra:
        return
    basis = result.extra["basis"]
    x_std = result.extra.get("x_std")
    if x_std is None:
        return
    # The certificate is computed against *unscaled* standard-form data so
    # that duals recover directly; build an unscaled view when needed.
    if prep.scaling is not None:
        prep = PreparedLP(
            std=prep.std, scaling=None, a=prep.std.a, b=prep.std.b,
            c=prep.std.c, m=prep.m, n_total=prep.n_total,
        )
    cert = certificate_from_basis(prep, basis, x_std, result.extra.get("at_upper"))
    result.extra["certificate"] = cert
    result.extra["reduced_costs_std"] = cert.reduced_costs
    result.extra["duals"] = prep.std.recover_duals(cert.y)
