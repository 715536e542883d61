"""Sparse two-phase revised simplex on the CPU.

The :class:`SparseData` strategy of the host loop in
:mod:`repro.simplex.revised_cpu`, following the explicit-sparse-memory
design of Gahrouei & Ghatee (arXiv:1803.04378): the constraint matrix is
held in CSC (dense inputs are converted on entry), the basis is factorised
by :class:`~repro.simplex.sparse_basis.SparseLUBasis` — sparse LU from the
basis' CSC columns plus a sparse product-form eta file — and pricing is
*partial*: reduced costs are computed section by section from the CSC
slices (:class:`~repro.simplex.sparse_pricing.SparsePartialPricing`), so an
iteration that finds an attractive column in the first section touches a
fraction of the matrix.

Besides ``refactor_period``, the sparse LU asks for a rebuild when the eta
file grows the FTRAN/BTRAN working set past ``fill_limit`` times the fresh
factors (:meth:`~repro.simplex.sparse_basis.SparseLUBasis.needs_refresh`).

Every modeled cost scales with nonzeros (pricing 2·nnz(section), solves
2·(nnz(LU)+nnz(etas)), updates 2·nnz(α)), which is the entire point: at
1–5% density the dense comparator pays m·n where this backend pays nnz.
"""

from __future__ import annotations

from repro.result import SolveResult
from repro.simplex.common import PreparedLP, as_sparse_prep
from repro.simplex.revised_cpu import RevisedSimplexSolver
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc
from repro.simplex.sparse_pricing import SparsePartialPricing


class SparseData:
    """Data, basis and pricing strategy: CSC data, the sparse LU basis
    (whatever ``basis_update`` says) and sectioned partial pricing."""

    def prepared(self, prep: PreparedLP) -> PreparedLP:
        return as_sparse_prep(prep)

    def arm_meta(self, prep: PreparedLP) -> dict:
        return {"nnz": prep.nnz}

    def make_basis(self, s) -> SparseLUBasis:
        return SparseLUBasis(s.prep.m, s.recorder)

    def basis_columns(self, prep: PreparedLP, basis):
        return basis_columns_csc(prep, basis)

    def pricing_rule(self, s) -> SparsePartialPricing:
        opts = s.options
        return SparsePartialPricing(
            s.prep.a, opts.pricing, opts.stall_window, s.recorder, opts.dtype
        )

    def price(self, s, rule: SparsePartialPricing, pi, c_full):
        """(q, d_q) from the section scan, which charges itself; the scan
        masks basic columns itself, so it serves standard bounds only."""
        return rule.select(pi, c_full, s.in_basis, s.options.tol_reduced_cost)

    def extras(self, s, result: SolveResult) -> None:
        result.extra["a_nnz"] = s.prep.nnz
        result.extra["lu_nnz"] = s.basisrep.lu_nnz
        result.extra["eta_nnz"] = s.basisrep.eta_nnz
        result.extra["fill_ratio"] = s.basisrep.fill_ratio


class SparseRevisedSimplexSolver(RevisedSimplexSolver):
    """CPU sparse revised simplex (CSC data, sparse LU basis, partial pricing).

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis; a singular or infeasible hint falls back to the cold crash basis,
    exactly like the dense revised solver.
    """

    name = "revised-sparse-cpu"
    data = SparseData()
