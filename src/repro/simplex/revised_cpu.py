"""Two-phase revised simplex on the CPU: one host loop for three methods.

This is the paper's sequential comparator: the same algorithm the GPU solver
parallelises, running against NumPy (standing in for an optimized CPU BLAS)
with modeled 2009-era CPU time recorded per operation.

The iteration is written once here and varies along two axes, each a small
strategy object fixed by the method's class:

- **data, basis and pricing** — :class:`DenseData` (the standard-form data
  as given, the ``basis_update`` representation rebuilt from the dense
  basis matrix, full pricing; ``revised`` and ``revised-bounded``) or
  :class:`~repro.simplex.revised_sparse.SparseData` (CSC data, sparse LU
  rebuilt from the basis' CSC columns, sectioned partial pricing;
  ``revised-sparse``);
- **bounds** — :class:`StandardBounds` (x ≥ 0; ``revised`` and
  ``revised-sparse``) or :class:`~repro.simplex.bounded.BoxedBounds`
  (finite upper bounds handled natively; ``revised-bounded``).

Per iteration, with the modeled charges in the order they are made; a row
marked *all* runs in every method, the others in the named strategy:

========= ========= ====================================================
step      strategy  work (charge)
========= ========= ====================================================
BTRAN     all       π = B⁻ᵀc_B (``btran``)
pricing   dense     d = c − Aᵀπ over every column (one ``pricing``), then
                    Dantzig or Bland as the stall switch says
          sparse    d section by section from the CSC slices, stopping at
                    the first section with a candidate (``pricing`` per
                    section scanned)
          standard  candidates: nonbasic columns with d_j < −tol
          boxed     candidates: nonbasic columns with σ_j·d_j < −tol
                    (σ_j = −1 at the upper bound, +1 at 0)
FTRAN     all       α = B⁻¹a_q (``ftran``)
ratio     standard  one-way minimum ratio, standard or Harris (``ratio``)
          boxed     three-way: a basic falls to 0, a basic rises to its
                    bound, or the entering column reaches its own bound —
                    a bound flip (``ratio``)
update    standard  basis update (``update.*``), then β −= θα
                    (``update.beta``)
          boxed     x_B += θ·δ (``update.beta``), then the basis update
                    unless the step was a flip
refactor  all       every ``refactor_period`` pivots, or when the basis
                    representation asks (``refactor``, ``ftran``)
========= ========= ====================================================

A step is degenerate when θ ≤ ``tol_zero``.  Phase 1 minimises the sum of
implicit artificial variables; artificials are driven out of the basis
before phase 2 (rows that cannot be driven out are redundant and keep
their artificial pinned at zero).

The two-phase driving, status handling and result assembly live in
:mod:`repro.engine`; this module implements only the method itself behind
the :class:`~repro.engine.backend.HostBackend` interface.
"""

from __future__ import annotations

from typing import NamedTuple

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
    validate_warm_basis,
)
from repro.simplex.options import RATIO_TESTS
from repro.simplex.pricing import StallSwitch
from repro.simplex.ratio import run_ratio_test
from repro.status import SolveStatus

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


class Step(NamedTuple):
    """What a bounds strategy's ratio test found."""

    #: The leaving row, or -1 for a bound flip.
    row: int
    theta: float
    pivot: float
    ties: int
    #: The leaving variable exits at its upper bound (boxed only).
    to_upper: bool = False

    @property
    def flip(self) -> bool:
        return self.row < 0


class DenseData:
    """Data, basis and pricing strategy: the prepared data as it is, the
    representation ``basis_update`` names (rebuilt from the dense basis
    matrix), and full pricing with the Dantzig/Bland choice of a
    :class:`~repro.simplex.pricing.StallSwitch`."""

    def prepared(self, prep: PreparedLP) -> PreparedLP:
        return prep

    def arm_meta(self, prep: PreparedLP) -> dict:
        return {}

    def make_basis(self, s: "RevisedSimplexSolver"):
        return make_basis(s.options.basis_update, s.prep.m, s.recorder)

    def basis_columns(self, prep: PreparedLP, basis: np.ndarray):
        return prep.basis_matrix(basis)

    def pricing_rule(self, s: "RevisedSimplexSolver"):
        return StallSwitch(s.options.pricing, s.options.stall_window)

    def price(self, s: "RevisedSimplexSolver", rule, pi, c_full):
        """(q, d_q) of the entering column, or None at optimality."""
        d = c_full[: s.prep.n_total] - s.prep.price_all(pi)
        s.recorder.charge("pricing", s._pricing_cost)
        score = s.bounds.score(s, d)
        tol = s.options.tol_reduced_cost
        if rule.using_bland:
            hits = np.nonzero(score < -tol)[0]
            if not hits.size:
                return None
            q = int(hits[0])
        else:
            q = int(np.argmin(score))
            if not score[q] < -tol:
                return None
        return q, float(d[q])

    def extras(self, s: "RevisedSimplexSolver", result: SolveResult) -> None:
        pass


class StandardBounds:
    """Bounds strategy: every nonbasic column rests at 0; β = x_B."""

    range_bounds_as_rows = True

    def arm_meta(self, opts) -> dict:
        return {"ratio_test": opts.ratio_test}

    def begin(self, s: "RevisedSimplexSolver") -> None:
        pass

    def objective(self, s: "RevisedSimplexSolver", c_full) -> float:
        return float(c_full[s.basis] @ s.beta)

    def effective_b(self, s: "RevisedSimplexSolver") -> np.ndarray:
        return s.prep.b

    def score(self, s: "RevisedSimplexSolver", d: np.ndarray) -> np.ndarray:
        return np.where(~s.in_basis[: s.prep.n_total], d, np.inf)

    def sigma(self, s: "RevisedSimplexSolver", q: int) -> float:
        return 1.0

    def ratio(self, s: "RevisedSimplexSolver", q: int, alpha) -> "Step | None":
        opts = s.options
        m, w = s.prep.m, s._w
        rr = run_ratio_test(opts.ratio_test, s.beta, alpha, s.basis, opts.tol_pivot)
        s.recorder.charge(
            "ratio", OpCost(flops=m, bytes_read=2 * m * w, bytes_written=m * w)
        )
        if rr.unbounded:
            return None
        return Step(rr.row, rr.theta, rr.pivot, rr.ties)

    def move(self, s: "RevisedSimplexSolver", q: int, d_q: float, alpha,
             r: Step) -> None:
        """The basis update first: when it fails, β and z stay put."""
        s.basisrep.update(alpha, r.row, s.options.tol_pivot)
        beta = s.beta
        beta -= r.theta * alpha
        beta[r.row] = r.theta
        np.clip(beta, 0.0, None, out=beta)  # round-off guard; β >= 0 invariant
        s._charge_beta()
        s._z += r.theta * d_q

    def drive_swap(self, s: "RevisedSimplexSolver", p: int, j: int, alpha) -> None:
        beta = s.beta
        theta = beta[p] / alpha[p] if alpha[p] != 0 else 0.0
        beta -= theta * alpha
        beta[p] = theta
        np.clip(beta, 0.0, None, out=beta)

    def extras(self, s: "RevisedSimplexSolver", result: SolveResult) -> None:
        pass

    def extract(self, s: "RevisedSimplexSolver", result: SolveResult) -> None:
        attach_standard_solution(result, s.prep, s.basis, s.beta)


class RevisedSimplexSolver(HostBackend):
    """CPU revised simplex (dense or sparse standard-form data).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis (e.g. ``previous_result.extra["basis"]``).  A hint that is
    singular or infeasible silently falls back to the cold crash basis.

    The class also carries the shared host loop: a subclass picks its data,
    basis and pricing handling (``data``) and its bounds handling
    (``bounds``).
    """

    name = "revised-cpu"
    accepts_warm_start = True
    ratio_tests = RATIO_TESTS
    data = DenseData()
    bounds = StandardBounds()

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        self._w = self._start_machine().itemsize
        opts = self.options
        data, bounds = self.data, self.bounds
        self.prep = prep = data.prepared(prepare(
            problem, opts, range_bounds_as_rows=bounds.range_bounds_as_rows
        ))
        m, n = prep.m, prep.n_total
        self._pricing_cost = full_pricing_cost(prep, self._w)
        self.basisrep = data.make_basis(self)
        basis, needs_phase1 = initial_basis(prep)
        self.beta = prep.b.astype(np.float64).copy()
        self.stats = stats = IterationStats()
        self._arm(
            m=m, n=n, pricing=opts.pricing, **bounds.arm_meta(opts),
            **data.arm_meta(prep),
        )

        if warm_hint is not None:
            warm = validate_warm_basis(prep, warm_hint)
            try:
                self.basisrep.refactorize(data.basis_columns(prep, warm))
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
        bounds.begin(self)
        self.needs_phase1 = needs_phase1
        self.phase1_feas_tol = PHASE1_TOL
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        self._phase = phase
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        rule = self.data.pricing_rule(self)
        rule.reset(self.prep.n_total)
        try:
            return self._iterate(c_full, rule)
        finally:
            # Flush the per-phase Dantzig→Bland switch count on *every* exit
            # path (optimal, unbounded, numerical, iteration limit).
            self.stats.bland_activations += rule.activations

    def phase1_objective(self) -> float:
        return self._z

    # ------------------------------------------------------------------

    def _charge_beta(self) -> None:
        m, w = self.prep.m, self._w
        self.recorder.charge(
            "update.beta",
            OpCost(flops=2 * m, bytes_read=2 * m * w, bytes_written=m * w),
        )

    def _iterate(self, c_full: np.ndarray, rule) -> tuple[SolveStatus, int]:
        opts = self.options
        prep, basisrep, data, bounds = self.prep, self.basisrep, self.data, self.bounds
        basis, in_basis, stats = self.basis, self.in_basis, self.stats
        cap = opts.iteration_cap(prep.m, prep.n_total)
        self._z = bounds.objective(self, c_full)
        iters = 0
        tr = self.hooks if self.hooks.enabled else None

        def record(event: str, **fields) -> None:
            tr.record(
                phase=self._phase, iteration=iters, event=event,
                pricing_rule=rule_label(rule), objective=float(self._z), **fields,
            )

        while iters < cap:
            iters += 1

            # 1-2: BTRAN + pricing
            pi = basisrep.btran(c_full[basis])
            choice = data.price(self, rule, pi, c_full)
            if choice is None:
                if tr is not None:
                    record("optimal", eta_count=int(basisrep.updates_since_refactor))
                return SolveStatus.OPTIMAL, iters
            q, d_q = choice
            sigma = bounds.sigma(self, q)

            # 3: FTRAN
            alpha = basisrep.ftran(prep.column(q))

            # 4: ratio test
            r = bounds.ratio(self, q, alpha)
            if r is None:
                if tr is not None:
                    record(
                        "unbounded", entering=int(q),
                        eta_count=int(basisrep.updates_since_refactor),
                    )
                return SolveStatus.UNBOUNDED, iters
            degenerate = r.theta <= opts.tol_zero
            if degenerate:
                stats.degenerate_steps += 1

            # 5: update
            leaving = -1 if r.flip else int(basis[r.row])
            try:
                bounds.move(self, q, d_q, alpha, r)
            except SingularBasisError:
                recovered = self._recover()
                if tr is not None:
                    record(
                        "recovery" if recovered else "numerical",
                        entering=int(q), leaving_row=int(r.row),
                    )
                if not recovered:
                    return SolveStatus.NUMERICAL, iters
                continue
            if tr is not None:
                fields = {} if r.flip else dict(
                    leaving_row=int(r.row), leaving_var=leaving,
                    pivot=float(r.pivot), ratio_ties=int(r.ties),
                )
                record(
                    "flip" if r.flip else "pivot", entering=int(q),
                    theta=float(r.theta),
                    eta_count=int(basisrep.updates_since_refactor),
                    degenerate=degenerate, **fields,
                )
            if not r.flip:
                in_basis[leaving] = False
                in_basis[q] = True
                basis[r.row] = q
            rule.notify((-d_q * sigma) * r.theta > 1e-12 * (1.0 + abs(self._z)))

            if (
                opts.refactor_period
                and basisrep.updates_since_refactor >= opts.refactor_period
            ) or basisrep.needs_refresh():
                if not self._recover():
                    return SolveStatus.NUMERICAL, iters
                self._z = bounds.objective(self, c_full)

        return SolveStatus.ITERATION_LIMIT, iters

    def _recover(self) -> bool:
        """Refactorise from the basis columns and recompute β; False when the
        basis is genuinely singular (unrecoverable)."""
        try:
            with self.hooks.span("engine.refactor"):
                self.basisrep.refactorize(
                    self.data.basis_columns(self.prep, self.basis)
                )
        except SingularBasisError:
            return False
        self.stats.refactorizations += 1
        self.beta[:] = self.basisrep.ftran(self.bounds.effective_b(self))
        np.clip(self.beta, 0.0, None, out=self.beta)
        return True

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out in favour of real columns.

        Rows where no real nonbasic column has a nonzero entry in the
        transformed row are redundant: their artificial stays basic at zero
        (it can never grow — phase 2 keeps its cost at 0 and β_p = 0).
        """
        prep, basisrep = self.prep, self.basisrep
        basis, in_basis = self.basis, self.in_basis
        m, n = prep.m, prep.n_total
        for p in np.nonzero(basis >= n)[0]:
            p = int(p)
            e_p = np.zeros(m)
            e_p[p] = 1.0
            alpha_row = prep.row_all(basisrep.btran(e_p))
            self.recorder.charge("driveout", self._pricing_cost)
            candidates = np.nonzero(
                (~in_basis[:n]) & (np.abs(alpha_row) > 1e-7)
            )[0]
            if candidates.size == 0:
                continue  # redundant row
            # best pivot magnitude first for stability
            for j in candidates[np.argsort(-np.abs(alpha_row[candidates]))]:
                j = int(j)
                alpha = basisrep.ftran(prep.column(j))
                try:
                    basisrep.update(alpha, p, self.options.tol_pivot)
                except SingularBasisError:
                    continue
                self.bounds.drive_swap(self, p, j, alpha)
                in_basis[basis[p]] = False
                in_basis[j] = True
                basis[p] = j
                break

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        self.data.extras(self, result)
        self.bounds.extras(self, result)

    def extract(self, result: SolveResult) -> None:
        self.bounds.extract(self, result)
