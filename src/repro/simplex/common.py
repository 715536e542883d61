"""Shared solver plumbing: standardisation, scaling, column access, recovery.

Every solver (CPU and GPU) consumes the same :class:`PreparedLP`: the
standard-form data, optionally scaled, with uniform access to columns —
including the *implicit artificial columns* ``e_i`` indexed as
``n_total + i``, which are never materialised (they are identity columns,
and materialising them wastes exactly the memory a GPU can least afford).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.lp.problem import LPProblem
from repro.lp.scaling import ScalingResult, geometric_mean_scaling
from repro.lp.standard_form import StandardFormLP, to_standard_form
from repro.simplex.options import SolverOptions
from repro.sparse.base import SparseMatrix
from repro.sparse.csc import CscMatrix

#: Phase-1 feasibility threshold: the artificial objective below which the
#: problem is declared feasible (relative to the rhs scale).
PHASE1_TOL = 1e-7


@dataclasses.dataclass
class PreparedLP:
    """Solver-ready standard-form data with implicit artificials."""

    std: StandardFormLP
    scaling: ScalingResult | None
    a: "np.ndarray | CscMatrix"
    b: np.ndarray
    c: np.ndarray
    m: int
    n_total: int

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.a, SparseMatrix)

    @property
    def nnz(self) -> int:
        if self.is_sparse:
            return self.a.nnz
        return int(np.count_nonzero(self.a))

    def column(self, j: int) -> np.ndarray:
        """Standard-form column j (artificial ``e_i`` for j >= n_total)."""
        if j >= self.n_total:
            e = np.zeros(self.m)
            e[j - self.n_total] = 1.0
            return e
        if self.is_sparse:
            return self.a.getcol_dense(j)
        return self.a[:, j].copy()

    def price_all(self, pi: np.ndarray) -> np.ndarray:
        """πᵀA over the real (non-artificial) columns, length n_total."""
        if self.is_sparse:
            return self.a.rmatvec(pi)
        return pi @ self.a

    def basis_matrix(self, basis: np.ndarray) -> np.ndarray:
        """The dense m×m matrix of the current basis columns."""
        cols = [self.column(int(j)) for j in basis]
        return np.column_stack(cols) if cols else np.zeros((self.m, 0))


def as_sparse_prep(prep: PreparedLP) -> PreparedLP:
    """The prepared data with its matrix in CSC (dense inputs converted)."""
    if prep.is_sparse:
        if isinstance(prep.a, CscMatrix):
            return prep
        return dataclasses.replace(prep, a=prep.a.tocsc())
    return dataclasses.replace(
        prep, a=CscMatrix.from_dense(np.asarray(prep.a, dtype=np.float64))
    )


def prepare(
    problem: "LPProblem | StandardFormLP",
    options: SolverOptions,
    *,
    range_bounds_as_rows: bool = True,
) -> PreparedLP:
    """Standardise (and optionally scale) a problem for any solver."""
    std = (
        problem
        if isinstance(problem, StandardFormLP)
        else to_standard_form(problem, range_bounds_as_rows=range_bounds_as_rows)
    )
    scaling: ScalingResult | None = None
    a, b, c = std.a, std.b, std.c
    if options.scale:
        scaling = geometric_mean_scaling(a, b, c)
        a, b, c = scaling.a, scaling.b, scaling.c
    m, n_total = std.num_rows, std.num_cols
    return PreparedLP(std=std, scaling=scaling, a=a, b=b, c=c, m=m, n_total=n_total)


def validate_warm_basis(prep: PreparedLP, basis) -> np.ndarray:
    """Validate a user-supplied starting basis (warm start).

    Must contain exactly m distinct standard-form column indices (artificial
    indices ``n_total + i`` are allowed — a previous solve may have left a
    redundant-row artificial basic).  Raises :class:`SolverError` otherwise.
    """
    from repro.errors import SolverError

    basis = np.asarray(basis, dtype=np.int64)
    if basis.shape != (prep.m,):
        raise SolverError(
            f"warm-start basis must have {prep.m} entries, got {basis.shape}"
        )
    if np.unique(basis).size != prep.m:
        raise SolverError("warm-start basis contains duplicate columns")
    if basis.min() < 0 or basis.max() >= prep.n_total + prep.m:
        raise SolverError("warm-start basis index out of range")
    return basis.copy()


def initial_basis(prep: PreparedLP) -> tuple[np.ndarray, bool]:
    """The crash basis: +1 slacks where available, artificials elsewhere.

    Both slack and artificial starting columns are identity columns, so the
    initial basis matrix is I and B⁻¹ = I regardless of the mix.  Returns
    (basis indices, needs_phase1).
    """
    slack = prep.std.slack_of_row
    basis = np.where(slack >= 0, slack, prep.n_total + np.arange(prep.m))
    needs_phase1 = bool(np.any(slack < 0))
    return basis.astype(np.int64), needs_phase1


def phase1_costs(prep: PreparedLP) -> np.ndarray:
    """Standard+artificial cost vector of the phase-1 objective Σ artificials."""
    c1 = np.zeros(prep.n_total + prep.m)
    c1[prep.n_total :] = 1.0
    return c1


def phase2_costs(prep: PreparedLP) -> np.ndarray:
    """Standard+artificial cost vector of the true objective (artificials 0)."""
    return np.concatenate([prep.c, np.zeros(prep.m)])


def extract_solution(
    prep: PreparedLP, basis: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """(x in original space, objective in original orientation, x_std).

    Handles unscaling: β lives in the scaled space when scaling is on; the
    standard-form point is unscaled before recovery and the objective is
    recomputed from unscaled data (exact, no dual bookkeeping needed).
    """
    x_std = np.zeros(prep.n_total)
    real = basis < prep.n_total
    x_std[basis[real]] = beta[real]
    if prep.scaling is not None:
        x_full = np.zeros(prep.n_total)
        x_full[: prep.n_total] = x_std
        x_std = prep.scaling.unscale_x(x_full)[: prep.n_total]
    z_std = float(prep.std.c @ x_std)
    objective = prep.std.original_objective(z_std)
    x = prep.std.recover_x(x_std)
    return x, objective, x_std
