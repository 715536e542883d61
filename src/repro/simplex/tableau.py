"""Dense two-phase full-tableau simplex on the CPU.

The textbook method the thesis literature ports first: the whole updated
tableau ``T = B⁻¹A`` is kept and transformed by Gauss–Jordan elimination
around each pivot — O(m·n) work per iteration regardless of sparsity, which
is exactly the inefficiency the revised method (and the paper) avoids.  It
serves as (a) an independent correctness oracle, (b) the host of the exact
steepest-edge / Devex pricing rules (they need updated columns), and (c) the
CPU side of the A3 tableau-vs-revised ablation.

It runs the one simplex loop of :mod:`repro.simplex.revised` through
:class:`HostTableau`, a placement whose basis representation is T itself:
there is no π to keep (d is updated from the pivot row) and nothing to
rebuild.
"""

from __future__ import annotations

import numpy as np

from repro.engine import HostBackend, attach_standard_solution
from repro.perfmodel.ops import OpCost
from repro.simplex.basis import Multipliers
from repro.simplex.common import PHASE1_TOL, PreparedLP
from repro.simplex.options import PRICING_RULES
from repro.simplex.pricing import DevexRule, StallSwitch, SteepestEdgeRule
from repro.simplex.revised import RevisedBackend, Step
from repro.simplex.revised_cpu import HostPlacement, StandardBounds

#: The rules that read T; every other pricing option is a stall-switch mode.
_TABLEAU_RULES = {"devex": DevexRule, "steepest-edge": SteepestEdgeRule}


def initial_tableau(prep: PreparedLP, basis: np.ndarray) -> np.ndarray:
    """T = A for the crash basis (B = I), with the artificial identity block
    only when the basis holds artificials (phase 1 runs)."""
    m, n = prep.m, prep.n_total
    n_cols = n + (m if np.any(basis >= n) else 0)
    tableau = np.zeros((m, n_cols))
    tableau[:, :n] = prep.a.to_dense() if prep.is_sparse else np.asarray(prep.a)
    if n_cols > n:
        tableau[:, n:] = np.eye(m)
    return tableau


class TableauPlacement:
    """What both tableau placements share.  T is the basis representation,
    so there is no π to keep (every verdict stands), no basis update counts
    toward a rebuild, and nothing is ever rebuilt; the ratio test is the
    standard-bounds one of the machine."""

    updates = 0
    max_batch = 1
    marks = ()

    def __init__(self, backend, prep: PreparedLP):
        self.prep = prep
        self.options = backend.options
        self.bounds = backend.standard
        self.multipliers = Multipliers(None, follows_pivots=False)

    def needs_rebuild(self) -> bool:
        return False

    def extras(self, result) -> None:
        pass

    def solution(self, result) -> np.ndarray:
        return self.beta

    def extract(self, result) -> None:
        # Artificial basics (redundant rows) sit at zero; they are
        # filtered by extract_solution's `basis < n_total` mask.
        attach_standard_solution(result, self.prep, self.basis, self.solution(result))


class HostTableau(TableauPlacement):
    """T, d and β as NumPy arrays, every step charged to the CPU cost
    model at the solve's word size."""

    def __init__(self, backend: "TableauSimplexSolver", prep: PreparedLP,
                 dtype: np.dtype):
        super().__init__(backend, prep)
        self.recorder = backend.recorder
        self.w = np.dtype(dtype).itemsize
        self.tol_piv = self.options.tol_pivot

    def start(self, basis: np.ndarray, rep=None, beta=None) -> None:
        prep = self.prep
        self.tableau = initial_tableau(prep, basis)
        self.n_cols = n_cols = self.tableau.shape[1]
        self.basis = basis
        self.beta = prep.b.astype(np.float64).copy()
        self.in_basis = np.zeros(n_cols, dtype=bool)
        self.in_basis[basis] = True
        self.enterable = np.arange(n_cols) < prep.n_total  # never artificials
        m, w = prep.m, self.w
        #: one multiply-add pass over T into an n-vector (d, edge norms)
        self.pass_cost = OpCost(flops=2 * m * n_cols, bytes_read=m * n_cols * w,
                                bytes_written=n_cols * w)
        #: one scan of d (the entering-column pick)
        self.scan_cost = OpCost(flops=n_cols, bytes_read=n_cols * w,
                                bytes_written=w)
        #: the Gauss–Jordan update of T, β and d
        self.pivot_cost = OpCost(
            flops=2 * m * n_cols + 4 * n_cols + 4 * m,
            bytes_read=(m * n_cols + 2 * n_cols + 2 * m) * w,
            bytes_written=(m * n_cols + n_cols + m) * w,
        )

    # -- the loop's steps ------------------------------------------------

    def pricing_rule(self):
        opts = self.options
        make = _TABLEAU_RULES.get(opts.pricing)
        rule = make() if make else StallSwitch(opts.pricing, opts.stall_window)
        rule.reset(self.n_cols)
        self.rule = rule
        return rule

    def load_costs(self, c_full: np.ndarray) -> float:
        """d = c − c_BᵀT for the phase's costs (the basis may be non-trivial
        entering phase 2)."""
        c = c_full[: self.n_cols]
        self.d = c - c[self.basis] @ self.tableau
        z = float(c[self.basis] @ self.beta)
        self.recorder.charge("pricing.recompute", self.pass_cost)
        return z

    def price(self, rule) -> None:
        if isinstance(rule, SteepestEdgeRule):
            rule.set_tableau(self.tableau)
            self.recorder.charge("pricing.edge_norms", self.pass_cost)
        eligible = self.enterable & ~self.in_basis
        q = rule.active.select(self.d, eligible, self.options.tol_reduced_cost)
        self.recorder.charge("pricing.select", self.scan_cost)
        self.choice = None if q is None else (q, float(self.d[q]))

    def ftran(self) -> None:
        """α is column q of T, read in place."""
        if self.choice is not None:
            self.alpha = self.tableau[:, self.choice[0]]

    ratio = HostPlacement.ratio
    iterate = HostPlacement.iterate

    def update(self, r: Step) -> None:
        """Gauss–Jordan elimination of T and β around (p, q), and d from the
        pivot row; Devex weighs the pre-pivot row."""
        if isinstance(self.rule, DevexRule):
            self.rule.pivot(r.q, self.tableau[r.row, :].copy())
        row_p = self._eliminate(r.row, r.q)
        self.d -= r.d_q * row_p
        self.d[r.q] = 0.0
        self.recorder.charge("pivot.eliminate", self.pivot_cost)
        self._swap(r.row, r.q)

    def _eliminate(self, p: int, q: int) -> np.ndarray:
        """Gauss–Jordan elimination of T and β around (p, q); returns the
        scaled pivot row."""
        tableau, beta = self.tableau, self.beta
        piv = tableau[p, q]
        row_p = tableau[p, :] / piv
        beta_p = beta[p] / piv
        col = tableau[:, q].copy()
        tableau -= np.outer(col, row_p)
        tableau[p, :] = row_p
        beta -= col * beta_p
        beta[p] = beta_p
        np.clip(beta, 0.0, None, out=beta)
        return row_p

    _swap = HostPlacement._swap

    phase1_objective = HostPlacement.phase1_objective

    # -- drive-out ---------------------------------------------------------

    def transformed_row(self, p: int) -> np.ndarray:
        """Row p of T, read and scanned for its largest entry."""
        n, w = self.prep.n_total, self.w
        self.recorder.charge(
            "driveout", OpCost(flops=n, bytes_read=n * w, bytes_written=w)
        )
        return self.tableau[p, :n]

    def column_pivot(self, j: int, p: int) -> float:
        return float(self.tableau[p, j])

    def swap_in(self, p: int, j: int, pivot: float) -> None:
        self._eliminate(p, j)
        self.recorder.charge("pivot.eliminate", self.pivot_cost)
        self._swap(p, j)


class TableauSimplexSolver(RevisedBackend, HostBackend):
    """CPU dense full-tableau simplex."""

    name = "tableau-cpu"
    accepts_warm_start = False
    pricing_rules = PRICING_RULES
    phase1_feas_tol = PHASE1_TOL
    standard = StandardBounds()

    # Defined on the class itself, as profilers that wrap a backend class's
    # own methods expect.
    begin = RevisedBackend.begin
    run_phase = RevisedBackend.run_phase

    def _place(self, prep: PreparedLP, dtype: np.dtype) -> HostTableau:
        return HostTableau(self, prep, dtype)
