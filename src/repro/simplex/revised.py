"""Two-phase primal simplex, written once for both machines.

:class:`RevisedBackend` is the method: begin (with warm start), the phase
loop, recovery and rebuild, the artificial drive-out and extraction.  It
issues every step to a *placement* — where the iterates live and what each
step costs — which a subclass picks through ``_place``, as the PDLP pair
does (:mod:`repro.firstorder.pdlp`):

- :class:`~repro.simplex.revised_cpu.HostPlacement` — NumPy arrays charged
  to the modeled sequential CPU (``revised``, ``revised-bounded``,
  ``revised-sparse``; the paper's comparator);
- :class:`~repro.core.gpu_revised_simplex.DevicePlacement` — buffers
  resident on the simulated device, moved by kernels, with one readback
  per iteration (``gpu-revised``, ``gpu-revised-bounded``; the paper's
  solver);
- :class:`~repro.simplex.tableau.HostTableau` and
  :class:`~repro.core.gpu_tableau_simplex.DeviceTableau` — the full
  tableau T = B⁻¹A on either machine (``tableau``, ``gpu-tableau``; the A3
  ablation).  T is its own basis representation: there is no π, no basis
  update counts toward ``refactor_period`` and nothing is ever rebuilt.

Each revised placement has its **bounds**, a strategy fixed by the class
and never exposed as an option (standard x ≥ 0, or boxed: finite upper
bounds handled natively, with bound flips).  The host also varies its
**basis representation** (``explicit`` / ``pfi`` / ``lu`` from
``basis_update``, or ``sparse-lu``); the device keeps the paper's dense
B⁻¹, sparse input too.  The tableau pair runs standard bounds.

One iteration, step by step.  A row marked *all* holds for every method;
host charges are CPU-model operations, device work is plan sections.  The
*tableau* rows hold for both tableau placements and replace the rows of
the revised ones:

========= ========= ====================================================
step      placement work
========= ========= ====================================================
costs     host      c and its objective, held on the host
          device    upload c and c_B as one copy (``transfer``); z = c_B·β
                    (a dot)
          tableau   d = c − Tᵀc_B once per phase (``pricing.recompute``;
                    device ``pricing.load``: copy and GEMVᵀ over T)
price     explicit  π = B⁻ᵀc_B only when stale (phase start, after a
                    rebuild, before a terminal verdict); otherwise π was
                    updated from the pivot row (``btran`` / GEMVᵀ)
          factored  π = B⁻ᵀc_B solved at every pricing (``btran``;
                    host only)
          host      d = c − Aᵀπ over every column (``pricing``), or, with
                    sparse data, section by section until one has a
                    candidate (``SparsePartialPricing``); standard bounds
                    take d_j < −tol, boxed σ_j·d_j < −tol (σ_j = −1 at the
                    upper bound); Dantzig or Bland as the stall switch says
          device    copy of c, GEMVᵀ/SpMVᵀ (one full pass, sparse data
                    too), mask map (signed when boxed), device-resident
                    arg-min left on the device
          tableau   d kept by the pivot-row update, no π; the host picks
                    by the stall switch, or by Devex or steepest edge
                    (γ from T at every pricing, ``pricing.edge_norms``),
                    then ``pricing.select``; the device runs the mask map
                    and arg-min over d
ftran     all       α = B⁻¹a_q; the host skips it when nothing priced in,
                    the device reads q on the device (``ftran`` / GEMV)
          tableau   α read from T: column q in place, or one device
                    column load (``column``)
ratio     host      one-way minimum ratio, standard or Harris (host
                    only), or three-way when boxed: a basic falls to 0,
                    rises to its bound, or q reaches its own bound — a
                    bound flip (``ratio``)
          device    ratio map (bounded when boxed), arg-min, tie-break
                    map and one readback of (q, d_q, p, θ, α_p[, to_upper])
update    all       a flip moves β only; a pivot moves β and updates the
                    basis representation; an explicit B⁻¹ then updates
                    π += (d_q/α_p)·ρ_p with ρ_p its pre-pivot row p
          host      ``update.eta``, ``update.beta`` (boxed: β first, so a
                    flip stops there), then ``update.pi``
          device    β update carrying the swap's stores; η kernel, row
                    extract, AXPY, GER
          tableau   Gauss–Jordan around (p, q): T, β and d from the pivot
                    row (``pivot.eliminate``; device ``pivot``: row
                    extract, scale, GER, row write, AXPY on d, β update
                    carrying the swap and d_q := 0); Devex re-weighs from
                    the pre-pivot row
rebuild   all       after ``refactor_period`` basis updates since the last
                    rebuild, or when the representation asks (sparse LU
                    fill-in): refactor, β = B⁻¹b_eff with b_eff = b minus
                    the columns resting at their upper bounds, π stale
          device    B⁻¹, and b_eff when boxed, uploaded as one copy
          tableau   never
========= ========= ====================================================

A terminal verdict (optimal, unbounded) is accepted only from a π solved
fresh: an explicit inverse whose π was updated since its last multiply
redoes the iteration with a fresh one, and the redo is not counted.  A
basis update that fails (:class:`~repro.errors.SingularBasisError`, raised
before anything a rebuild cannot restore has moved) triggers a rebuild and
a retry, recorded as ``recovery``.  A step is degenerate when θ ≤
``tol_zero``.

Phase 1 minimises the sum of implicit artificial variables.  Between the
phases each zero-valued basic artificial is driven out in favour of the
real nonbasic column with the largest entry of its transformed row, when
that entry and the column's pivot clear ``tol_pivot`` (the ratio test's
zero); rows with no such entry are redundant, and their artificial stays
pinned at zero because the ratio test never sees a nonzero α in its row.
The tableau reads the row from T.

Kept per machine: sparse pricing (partial on the host, one full SpMVᵀ on
the device), Devex, steepest edge and the Harris ratio test (host only),
mixed-precision refinement and ``fill_stats_every`` (device only).  Only
``dual`` keeps a loop of its own (:mod:`repro.simplex.dual`).  The engine
(:mod:`repro.engine`) drives the phases, statuses and result assembly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.engine import SolverBackend
from repro.errors import SingularBasisError, SolverError
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PreparedLP,
    as_sparse_prep,
    initial_basis,
    phase1_costs,
    phase2_costs,
    prepare,
    validate_warm_basis,
)
from repro.status import SolveStatus


class Step(NamedTuple):
    """What one iteration's pricing and ratio test found."""

    #: The entering column, or -1 when nothing prices in (optimal).
    q: int
    d_q: float = 0.0
    #: +1 when q rises from 0, -1 when it falls from its upper bound.
    sigma: float = 1.0
    #: The leaving row, or -1 for a bound flip (or no blocking row).
    row: int = -1
    #: The step length; infinite when nothing blocks (unbounded).
    theta: float = np.inf
    pivot: float = 0.0
    ties: int = 0
    #: The leaving variable exits at its upper bound (boxed only).
    to_upper: bool = False

    @property
    def flip(self) -> bool:
        return self.row < 0


class BoxedRules:
    """The boxed-bounds rules of both machines: finite upper bounds kept
    inside the method instead of converted to rows.  A nonbasic rests at 0
    or at its bound u and may *flip* between them — an O(m) iteration
    instead of an O(m²) pivot.  The placement gains ``u`` (over the real
    and artificial columns), ``at_upper`` and a flip count."""

    range_bounds_as_rows = False

    @staticmethod
    def check(options) -> None:
        """Bounds live in the unscaled columns: no scaling."""
        if options.scale:
            raise SolverError(
                "the bounded solver does not combine with scaling yet; "
                "scale the data before building the problem"
            )

    def begin(self, st) -> None:
        m = st.prep.m
        st.u = np.concatenate([st.prep.std.upper_bounds(), np.full(m, np.inf)])
        st.at_upper = np.zeros(st.prep.n_total, dtype=bool)  # all start at 0
        st.flips = 0

    @staticmethod
    def sigma(st, q: int) -> float:
        """−1 when q rests at its upper bound (it can only fall), else +1."""
        return -1.0 if st.at_upper[q] else 1.0

    @staticmethod
    def toggle(st, q: int) -> None:
        """A bound flip of nonbasic q."""
        st.at_upper[q] = ~st.at_upper[q]
        st.flips += 1

    @staticmethod
    def swap(st, leaving: int, q: int, to_upper: bool) -> bool:
        """q enters the basis and ``leaving`` rests at the bound it hit;
        returns whether that is its (finite) upper bound."""
        st.at_upper[q] = False
        if leaving >= st.prep.n_total:
            return False
        st.at_upper[leaving] = goes_up = bool(to_upper and np.isfinite(st.u[leaving]))
        return goes_up

    @staticmethod
    def effective_b(st) -> np.ndarray:
        """b − Σ_{j at upper} a_j u_j: the rhs the basic variables see (a
        rebuild's β = B⁻¹·this)."""
        b = st.prep.b.astype(np.float64).copy()
        for j in np.nonzero(st.at_upper)[0]:
            b -= st.prep.column(int(j)) * st.u[j]
        return b

    @staticmethod
    def attach(st, result: SolveResult, x_b: np.ndarray) -> None:
        """x, objective, residuals and basis: basics at x_B, nonbasics at
        their resting bound."""
        prep, basis, at_upper = st.prep, st.basis, st.at_upper
        n = prep.n_total
        x_std = np.zeros(n)
        x_std[at_upper] = st.u[:n][at_upper]
        real = basis < n
        x_std[basis[real]] = x_b[real]
        result.objective = prep.std.original_objective(float(prep.std.c @ x_std))
        result.x = prep.std.recover_x(x_std)
        result.residuals = SolveResult.compute_residuals(prep.std.a, prep.std.b, x_std)
        result.extra["basis"] = basis.copy()
        result.extra["x_std"] = x_std
        result.extra["at_upper"] = at_upper.copy()


class RevisedBackend(SolverBackend):
    """The revised simplex method.  A subclass names its machine by its
    lifecycle base (:class:`~repro.engine.backend.HostBackend` or
    :class:`~repro.engine.backend.DeviceBackend`), its bounds strategy by
    ``bounds`` and its placement by :meth:`_place`."""

    accepts_warm_start = True
    #: CSC data on entry (``revised-sparse`` converts dense inputs).
    sparse_data = False
    bounds = None

    def _place(self, prep: PreparedLP, dtype: np.dtype):
        raise NotImplementedError

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        prep = prepare(
            problem, opts, range_bounds_as_rows=self.bounds.range_bounds_as_rows
        )
        self.prep = prep = as_sparse_prep(prep) if self.sparse_data else prep
        dtype = self._start_machine()
        self._st = st = self._place(prep, dtype)
        self.stats = stats = IterationStats()

        # settle the starting basis on the host, then place it once
        basis, needs_phase1 = initial_basis(prep)
        rep = beta = None
        if warm_hint is not None:
            # trial factors; a singular or infeasible hint leaves the cold
            # crash basis in place
            warm = validate_warm_basis(prep, warm_hint)
            trial = st.new_basis()
            try:
                trial.refactorize(st.columns(warm))
                trial_beta = trial.ftran(prep.b)
            except SingularBasisError:
                trial_beta = None
            if trial_beta is not None and trial_beta.min() >= -1e-7:
                basis, rep = warm, trial
                beta = np.clip(trial_beta, 0.0, None)
                needs_phase1 = bool(np.any(warm >= prep.n_total))
                stats.refactorizations += 1
        st.start(basis, rep, beta)

        meta = {"ratio_test": opts.ratio_test} if len(self.ratio_tests) > 1 else {}
        if self.sparse_data:
            meta["nnz"] = prep.nnz
        self._arm(m=prep.m, n=prep.n_total, pricing=opts.pricing, **meta)
        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        st, opts, stats = self._st, self.options, self.stats
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        cap = opts.iteration_cap(self.prep.m, self.prep.n_total)
        period = opts.refactor_period
        rule = st.pricing_rule()
        z = st.load_costs(c_full)
        st.multipliers.invalidate()
        iters = 0
        tr = self.hooks if self.hooks.enabled else None

        def record(event: str, **fields) -> None:
            tr.record(
                phase=phase, iteration=iters, event=event,
                pricing_rule=rule.label, eta_count=int(st.updates),
                objective=float(z), **fields,
            )

        try:
            while iters < cap:
                iters += 1
                st.price(rule)
                st.ftran()
                r = st.ratio()
                terminal = r.q < 0 or not np.isfinite(r.theta)
                if terminal and not st.multipliers.confirms():
                    iters -= 1  # verify with a fresh π; the redo is not counted
                    continue
                if r.q < 0:
                    if tr is not None:
                        record("optimal")
                    return SolveStatus.OPTIMAL, iters
                if not np.isfinite(r.theta):
                    if tr is not None:
                        record("unbounded", entering=r.q)
                    return SolveStatus.UNBOUNDED, iters
                degenerate = r.theta <= opts.tol_zero
                if degenerate:
                    stats.degenerate_steps += 1
                peek = {} if r.flip else dict(
                    leaving_row=r.row, leaving_var=int(st.basis[r.row]),
                    pivot=float(r.pivot), ratio_ties=int(r.ties),
                )

                try:
                    st.update(r, float(c_full[r.q]))
                except SingularBasisError:
                    recovered = self._rebuild()
                    if tr is not None:
                        record(
                            "recovery" if recovered else "numerical",
                            entering=r.q, leaving_row=r.row,
                        )
                    if not recovered:
                        return SolveStatus.NUMERICAL, iters
                    z = st.resync(z)
                    continue
                z += r.d_q * r.sigma * r.theta
                if tr is not None:
                    record(
                        "flip" if r.flip else "pivot", entering=r.q,
                        theta=float(r.theta), degenerate=degenerate, **peek,
                    )
                rule.notify((-r.d_q * r.sigma) * r.theta > 1e-12 * (1.0 + abs(z)))

                if (period and st.updates >= period) or st.needs_rebuild():
                    if not self._rebuild():
                        return SolveStatus.NUMERICAL, iters
                    z = st.resync(z)
            return SolveStatus.ITERATION_LIMIT, iters
        finally:
            # the per-phase Dantzig→Bland switch count, on every exit path
            stats.bland_activations += rule.activations
            self._z = z

    def phase1_objective(self) -> float:
        return self._st.phase1_objective(self._z)

    def _rebuild(self) -> bool:
        """Refactor from the basis columns, install the fresh factors and
        recompute β; False when the basis is genuinely singular
        (unrecoverable)."""
        st = self._st
        try:
            with self.hooks.span("engine.refactor"):
                rep = st.new_basis()
                rep.refactorize(st.columns(st.basis))
                st.install(rep)
                st.refresh_beta()
                st.multipliers.invalidate()
        except SingularBasisError:
            return False
        self.stats.refactorizations += 1
        return True

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued basic artificials out in favour of real columns.

        Rows where no real nonbasic entry of the transformed row e_pᵀB⁻¹A
        clears ``tol_piv`` are redundant: the ratio test treats every α_p
        of such a row as zero, so their artificial stays basic at zero
        (phase 2 keeps its cost at 0 and β_p = 0).
        """
        st = self._st
        n = self.prep.n_total
        for p in np.nonzero(st.basis >= n)[0]:
            p = int(p)
            row = np.where(st.in_basis[:n], 0.0, np.abs(st.transformed_row(p)))
            j = int(np.argmax(row))
            if row[j] <= st.tol_piv:
                continue  # redundant row
            pivot = st.column_pivot(j, p)
            if abs(pivot) <= st.tol_piv:
                continue
            st.swap_in(p, j, pivot)

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        st = self._st
        st.extras(result)
        if self.prep.is_sparse:
            result.extra["a_nnz"] = self.prep.nnz
        if self.sparse_data:
            result.extra["lu_nnz"] = st.rep.lu_nnz
            result.extra["eta_nnz"] = st.rep.eta_nnz
            result.extra["fill_ratio"] = st.rep.fill_ratio
        if not self.bounds.range_bounds_as_rows:
            result.extra["bound_flips"] = st.flips

    def extract(self, result: SolveResult) -> None:
        self._st.extract(result)
