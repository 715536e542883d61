"""The host placement of the revised simplex: the paper's CPU comparator.

:class:`HostPlacement` runs each step of the one loop in
:mod:`repro.simplex.revised` against NumPy (standing in for an optimized
CPU BLAS) and charges it to the modeled 2009-era CPU, in the order the
schedule table there lists.  Two strategies shape it, the first fixed
by the method's class, the second picked from the data:

- **data, basis and pricing** — :class:`DenseData` (the standard-form data
  as given, the ``basis_update`` representation rebuilt from the dense
  basis matrix, full pricing; ``revised`` and ``dual``) or
  :class:`SparseData` (after Gahrouei & Ghatee, arXiv:1803.04378: CSC
  data, :class:`~repro.simplex.sparse_basis.SparseLUBasis` rebuilt from
  the basis' CSC columns and also when its eta file outgrows the fresh
  factors, and sectioned partial pricing whose costs scale with nonzeros;
  ``revised-sparse``);
- **bounds** — :class:`StandardBounds` (x ≥ 0) or, when the LP has a
  finite upper bound, :class:`BoxedBounds` (the bound kept inside the
  method rather than converted to a row: a nonbasic rests at 0 or at its
  bound u, and may *flip* bounds — an O(m) iteration instead of an O(m²)
  pivot; the A5 ablation measures it against bounds-as-rows).

With the ``explicit`` representation π follows the basis through
:class:`~repro.simplex.basis.Multipliers`; ``pfi`` and the sparse LU solve
it at every pricing.  Only this placement runs the dual
direction (``dual``): the start check, the leaving-row scan and the
reduced costs, with β left unclipped.
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend, attach_standard_solution
from repro.perfmodel.ops import OpCost
from repro.result import SolveResult
from repro.simplex.basis import ExplicitInverseBasis, Multipliers, make_basis
from repro.simplex.common import PHASE1_TOL, PreparedLP
from repro.simplex.pricing import StallSwitch
from repro.simplex.ratio import bounded_ratios, standard_ratio_test
from repro.simplex.revised import (
    BoxedRules, RevisedBackend, StandardRules, Step, swap_basis,
)
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc
from repro.simplex.sparse_pricing import SparsePartialPricing

#: Modeled width of a sparse row index (the CSC index array).
_INDEX_BYTES = 4


def full_pricing_cost(prep: PreparedLP, w: int) -> OpCost:
    """One pass of Aᵀy over every real column: full pricing, and the
    drive-out's transformed row.  CSC data reads a value and an index per
    nonzero."""
    m, n = prep.m, prep.n_total
    if prep.is_sparse:
        nnz = prep.nnz
        return OpCost(
            flops=2 * nnz,
            bytes_read=nnz * (w + _INDEX_BYTES) + m * w,
            bytes_written=n * w,
        )
    return OpCost(
        flops=2 * m * n, bytes_read=(m * n + m) * w, bytes_written=n * w
    )


class DenseData:
    """Data, basis and pricing strategy: the prepared data as it is, the
    representation ``basis_update`` names (rebuilt from the dense basis
    matrix), and full pricing with the Dantzig/Bland choice of a
    :class:`~repro.simplex.pricing.StallSwitch`."""

    def make_basis(self, s: "HostPlacement"):
        return make_basis(s.options.basis_update, s.prep.m, s.recorder)

    def basis_columns(self, prep: PreparedLP, basis: np.ndarray):
        return prep.basis_matrix(basis)

    def pricing_rule(self, s: "HostPlacement"):
        return StallSwitch(s.options.pricing, s.options.stall_window)

    def price(self, s: "HostPlacement", rule, pi):
        """(q, d_q) of the entering column, or None at optimality."""
        n = s.prep.n_total
        d = s.c_full[:n] - s.prep.price_all(pi)
        s.recorder.charge("pricing", s.pricing_cost)
        q = rule.active.select(
            s.bounds.signed(s, d), ~s.in_basis[:n], s.options.tol_reduced_cost
        )
        return None if q is None else (q, float(d[q]))


class SparseData:
    """Data, basis and pricing strategy: CSC data, the sparse LU basis
    (whatever ``basis_update`` says) and sectioned partial pricing."""

    def make_basis(self, s: "HostPlacement") -> SparseLUBasis:
        return SparseLUBasis(s.prep.m, s.recorder)

    def basis_columns(self, prep: PreparedLP, basis):
        return basis_columns_csc(prep, basis)

    def pricing_rule(self, s: "HostPlacement") -> SparsePartialPricing:
        opts = s.options
        return SparsePartialPricing(
            s.prep.a, opts.pricing, opts.stall_window, s.recorder, opts.dtype
        )

    def price(self, s: "HostPlacement", rule: SparsePartialPricing, pi):
        """(q, d_q) from the section scan, which charges itself and scores
        σ_j·d_j as full pricing does."""
        return rule.select(pi, s.c_full, s.in_basis, s.options.tol_reduced_cost,
                           s.at_upper)


class StandardBounds(StandardRules):
    """Bounds strategy: every nonbasic column rests at 0; β = x_B."""

    def objective(self, s: "HostPlacement") -> float:
        return float(s.c_full[s.basis] @ s.beta)

    def ratio(self, s: "HostPlacement", q: int, d_q: float) -> Step:
        """One-way minimum ratio."""
        m, w = s.prep.m, s.w
        rr = standard_ratio_test(s.beta, s.alpha, s.basis, s.tol_piv)
        s.recorder.charge(
            "ratio", OpCost(flops=m, bytes_read=2 * m * w, bytes_written=m * w)
        )
        if rr.unbounded:
            return Step(q, d_q)
        return Step(q, d_q, 1.0, rr.row, rr.theta, rr.pivot, rr.ties)

    def move(self, s: "HostPlacement", r: Step) -> None:
        """The basis update first: when it fails, β stays put."""
        s.rep.update(s.alpha, r.row, s.tol_piv)
        beta = s.beta
        beta -= r.theta * s.alpha
        beta[r.row] = r.theta
        if not s.dual:
            np.clip(beta, 0.0, None, out=beta)  # round-off guard; β >= 0 invariant
        s.charge_beta()

    def drive_swap(self, s: "HostPlacement", p: int, j: int) -> None:
        beta, alpha = s.beta, s.alpha
        theta = beta[p] / alpha[p] if alpha[p] != 0 else 0.0
        beta -= theta * alpha
        beta[p] = theta
        np.clip(beta, 0.0, None, out=beta)


class BoxedBounds(BoxedRules):
    """Bounds strategy: finite upper bounds handled natively; β holds x_B.
    Pricing scores σ_j·d_j; the ratio test is three-way with the entering
    column moving by σ·t and the basics by δ = −σ·α per unit t.
    """

    def objective(self, s: "HostPlacement") -> float:
        n = s.prep.n_total
        return float(s.c_full[s.basis] @ s.beta) + float(
            s.c_full[:n][s.at_upper] @ s.u[:n][s.at_upper]
        )

    def ratio(self, s: "HostPlacement", q: int, d_q: float) -> Step:
        """A basic falls to 0, a basic rises to its bound, or q reaches its
        own bound first (a flip, ``row = -1``)."""
        tol_piv = s.tol_piv
        m, w = s.prep.m, s.w
        alpha = s.alpha
        sigma = self.sigma(s, q)
        theta = float(s.u[q])  # the entering column's own bound: a flip
        t_dec, t_inc = bounded_ratios(s.beta, -sigma * alpha, s.u[s.basis], tol_piv)
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
            return Step(q, d_q, sigma, p, theta, float(alpha[p]), int(tied.size),
                        to_upper=bool(t_inc[p] <= t_dec[p]))
        if not np.isfinite(theta):
            return Step(q, d_q, sigma)
        return Step(q, d_q, sigma, -1, theta)

    def move(self, s: "HostPlacement", r: Step) -> None:
        """x_B first; then the flip, or the basis update.  When the update
        fails, the recovery rebuilds x_B for the unchanged basis."""
        s.beta += r.theta * (-r.sigma * s.alpha)
        if not s.dual:
            np.clip(s.beta, 0.0, None, out=s.beta)
        s.charge_beta()
        if r.flip:
            self.toggle(s, r.q)
            return
        s.rep.update(s.alpha, r.row, s.tol_piv)
        s.beta[r.row] = s.u[r.q] - r.theta if r.sigma < 0 else r.theta
        self.swap(s, int(s.basis[r.row]), r.q, r.to_upper)

    def drive_swap(self, s: "HostPlacement", p: int, j: int) -> None:
        # degenerate swap: values do not move
        s.beta[p] = s.u[j] if s.at_upper[j] else 0.0
        self.swap(s, int(s.basis[p]), j, False)


class HostPlacement:
    """The revised-simplex state as NumPy arrays, every step charged to the
    CPU cost model at the solve's word size."""

    #: Running the dual direction: β may be primal infeasible, so it is
    #: not clipped at zero (the extracted x is).
    dual = False
    #: One iteration at a time: the host updates before it prices.
    max_batch = 1
    #: Where each iteration of a batch ended: one iteration, none.
    marks = ()
    #: The nonbasics resting at their upper bound (boxed bounds only).
    at_upper = None

    def __init__(self, backend: "RevisedSimplexSolver", prep: PreparedLP,
                 dtype: np.dtype):
        self.prep = prep
        self.options = opts = backend.options
        self.recorder = backend.recorder
        self.data, self.bounds = backend.data, backend.bounds
        self.w = np.dtype(dtype).itemsize
        self.tol_piv = opts.tol_pivot
        self.pricing_cost = full_pricing_cost(prep, self.w)
        self.rep = self.new_basis()
        self.multipliers = Multipliers(
            None, isinstance(self.rep, ExplicitInverseBasis)
        )

    def charge_beta(self) -> None:
        m, w = self.prep.m, self.w
        self.recorder.charge(
            "update.beta",
            OpCost(flops=2 * m, bytes_read=2 * m * w, bytes_written=m * w),
        )

    # -- begin -------------------------------------------------------------

    def start(self, basis: np.ndarray, rep=None, beta=None) -> None:
        """Start from ``basis``: the crash basis with β = b, or a warm
        start's factors ``rep`` with its ``beta``; every nonbasic at 0."""
        prep = self.prep
        self.bounds.begin(self)
        self.basis = basis
        self.in_basis = np.zeros(prep.n_total + prep.m, dtype=bool)
        self.in_basis[basis] = True
        if rep is None:
            self.beta = prep.b.astype(np.float64).copy()
        else:
            self.install(rep)
            self.beta = beta

    def new_basis(self):
        return self.data.make_basis(self)

    def columns(self, basis: np.ndarray):
        return self.data.basis_columns(self.prep, basis)

    def install(self, rep) -> None:
        self.rep = rep

    # -- the loop's steps ------------------------------------------------

    @property
    def updates(self) -> int:
        return self.rep.updates_since_refactor

    def pricing_rule(self):
        rule = self.data.pricing_rule(self)
        rule.reset(self.prep.n_total)
        return rule

    def load_costs(self, c_full: np.ndarray) -> float:
        self.c_full = c_full
        return self.bounds.objective(self)

    def pi(self) -> np.ndarray:
        """π = B⁻ᵀc_B, multiplied afresh when the Multipliers rule says so."""
        pis = self.multipliers
        if pis.refresh():
            pis.pi = self.rep.btran(self.c_full[self.basis])
        return pis.pi

    def price(self, rule) -> None:
        self.choice = self.data.price(self, rule, self.pi())

    def ftran(self) -> None:
        if self.choice is not None:
            self.alpha = self.rep.ftran(self.prep.column(self.choice[0]))

    def ratio(self) -> Step:
        if self.choice is None:
            return Step(-1)
        return self.bounds.ratio(self, *self.choice)

    def iterate(self, rule, k: int = 1) -> list[Step]:
        """Price, FTRAN and the ratio test of one iteration (k is 1)."""
        self.price(rule)
        self.ftran()
        return [self.ratio()]

    def update(self, r: Step) -> None:
        follows = self.multipliers.follows_pivots and not r.flip
        row_p = self.rep.binv[r.row].copy() if follows else None
        self.bounds.move(self, r)
        if r.flip:
            return
        if follows:
            m, w = self.prep.m, self.w
            self.multipliers.pi += (r.d_q / r.pivot) * row_p
            self.recorder.charge(
                "update.pi",
                OpCost(flops=2 * m, bytes_read=2 * m * w, bytes_written=m * w),
            )
            self.multipliers.update()
        self._swap(r.row, r.q)

    _swap = swap_basis

    def needs_rebuild(self) -> bool:
        return self.rep.needs_refresh()

    def refresh_beta(self) -> None:
        self.beta[:] = self.rep.ftran(self.bounds.effective_b(self))
        if not self.dual:
            np.clip(self.beta, 0.0, None, out=self.beta)

    def resync(self, z: float) -> float:
        return self.bounds.objective(self)

    def phase1_objective(self, z: float) -> float:
        return z

    # -- the dual direction ----------------------------------------------

    def start_dual(self, c_full: np.ndarray) -> bool:
        """Whether the placed basis is dual feasible for ``c_full``
        (σ·d_N ≥ −1e-7 once the boxed nonbasics with d_j < 0 rest at u_j;
        one pricing); when it is, the placement runs the dual direction
        from here on."""
        self.load_costs(c_full)
        d = self.reduced_costs()
        self.dual = True  # β is no longer clipped at zero
        self.bounds.rest(self, d)
        signed = self.bounds.signed(self, d)
        self.dual = not np.any(signed[~self.in_basis[: self.prep.n_total]] < -1e-7)
        self.feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(self.prep.b), initial=0.0)))
        return self.dual

    def leaving_row(self, bland: bool) -> "tuple[int, float, float] | None":
        """The dual's leaving row, the sign its transformed row needs (−1
        below 0, +1 above the upper bound) and the bound it leaves at, or
        None when β is feasible.

        Basic artificials are boxed at [0, 0]: one above zero is as
        infeasible as a structural above its bound.  Dantzig takes the largest
        violation, Bland the lowest basic-variable index among the violated.
        """
        beta, tol, basis = self.beta, self.feas_tol, self.basis
        u = np.inf if self.at_upper is None else self.u[basis]
        u_b = np.where(basis >= self.prep.n_total, 0.0, u)
        over = beta > u_b + tol
        violation = np.where(over, beta - u_b, np.where(beta < -tol, -beta, 0.0))
        if bland:
            bad = np.nonzero(violation > 0)[0]
            if bad.size == 0:
                return None
            p = int(bad[np.argmin(self.basis[bad])])
        else:
            p = int(np.argmax(violation))
            if violation[p] <= 0:
                return None
        m, w = self.prep.m, self.w
        self.recorder.charge(
            "leaving", OpCost(flops=2 * m, bytes_read=m * w, bytes_written=w)
        )
        return (p, 1.0, float(u_b[p])) if over[p] else (p, -1.0, 0.0)

    def reduced_costs(self) -> np.ndarray:
        """d = c − Aᵀπ over the real columns (``pricing``)."""
        d = self.c_full[: self.prep.n_total] - self.prep.price_all(self.pi())
        self.recorder.charge("pricing", self.pricing_cost)
        return d

    # -- drive-out and the dual's row --------------------------------------

    def transformed_row(self, p: int, section: str = "driveout") -> np.ndarray:
        """e_pᵀB⁻¹A over the real columns: ρ_p (read from an explicit
        inverse, a BTRAN otherwise), then one pass over A."""
        row = self.prep.price_all(self.rep.row(p))
        self.recorder.charge(section, self.pricing_cost)
        return row

    def column_pivot(self, j: int, p: int) -> float:
        self.alpha = self.rep.ftran(self.prep.column(j))
        return float(self.alpha[p])

    def swap_in(self, p: int, j: int, pivot: float) -> None:
        self.rep.update(self.alpha, p, self.tol_piv)
        self.bounds.drive_swap(self, p, j)
        self._swap(p, j)

    # -- finish ------------------------------------------------------------

    def extras(self, result: SolveResult) -> None:
        pass

    def extract(self, result: SolveResult) -> None:
        if self.dual:
            np.clip(self.beta, 0.0, None, out=self.beta)
        attach_standard_solution(result, self.prep, self.basis, self.beta, self.at_upper)


class RevisedSimplexSolver(RevisedBackend, HostBackend):
    """CPU revised simplex (dense standard-form data).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis (e.g. ``previous_result.extra["basis"]``).  A hint that is
    singular or infeasible silently falls back to the cold crash basis.
    """

    name = "revised-cpu"
    phase1_feas_tol = PHASE1_TOL
    data = DenseData()
    standard = StandardBounds()
    boxed = BoxedBounds()

    # Defined on the class itself, as profilers that wrap a backend class's
    # own methods expect.
    begin = RevisedBackend.begin
    run_phase = RevisedBackend.run_phase

    def _place(self, prep: PreparedLP, dtype: np.dtype) -> HostPlacement:
        return HostPlacement(self, prep, dtype)


class DualSimplexSolver(RevisedSimplexSolver):
    """CPU dual simplex: re-optimisation from a dual-feasible basis.

    After a change of b the previous optimal basis stays dual feasible
    (reduced costs do not involve b) but is typically primal infeasible:
    the dual direction's start.  Pass it as ``initial_basis_hint``; a cold
    solve tries the crash basis.  A singular hint, or a start that is not
    dual feasible, runs the primal phases from the crash basis, reported as
    ``dual-cpu(primal-fallback)`` with ``extra["dual_fallback_reason"]``.
    """

    name = "dual-cpu"
    dual = True

    begin = RevisedBackend.begin
    run_phase = RevisedBackend.run_phase


class SparseRevisedSimplexSolver(RevisedSimplexSolver):
    """CPU sparse revised simplex (CSC data, sparse LU basis, partial pricing).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis; a singular or infeasible hint falls back to the cold crash basis,
    exactly like the dense revised solver.
    """

    name = "revised-sparse-cpu"
    sparse_data = True
    data = SparseData()
