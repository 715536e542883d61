"""Basis-inverse representations for the revised simplex method.

The revised simplex method needs three operations against the basis matrix B:

- **FTRAN**: solve ``B α = a`` (i.e. α = B⁻¹ a) — the updated entering column;
- **BTRAN**: solve ``πᵀ B = cᵀ`` (i.e. π = B⁻ᵀ c) — the simplex multipliers;
- **update**: replace the column in position p by the entering column.

Two representations are provided, matching the A2 ablation:

- :class:`ExplicitInverseBasis` — B⁻¹ stored densely, updated in place with
  the rank-1 eta transformation ``B⁻¹ ← B⁻¹ + (η − e_p) (B⁻¹)_{p,·}``.  This
  is the paper's GPU scheme (a GER per iteration); here it serves the CPU
  comparator.
- :class:`ProductFormBasis` — product form of the inverse: a dense base
  inverse refreshed at refactorisation plus a growing eta file; FTRAN/BTRAN
  apply the etas in O(m) each.  Cheaper per update, more expensive per
  solve as the eta file grows — the classic trade the ablation measures.

Both support :meth:`refactorize` (rebuild from the current basis columns),
which bounds error accumulation; the solvers call it periodically and after
numerical trouble.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import SingularBasisError
from repro.perfmodel.cpu_model import CpuCostRecorder
from repro.perfmodel.ops import OpCost


def eta_from_alpha(alpha: np.ndarray, p: int, tol_pivot: float) -> np.ndarray:
    """The eta column η of the pivot transformation.

    η_i = −α_i/α_p for i ≠ p, η_p = 1/α_p.  Applying
    ``E = I with column p := η`` to any vector performs the Gauss–Jordan
    elimination of the pivot step.
    """
    pivot = alpha[p]
    if abs(pivot) <= tol_pivot:
        raise SingularBasisError(f"pivot {pivot!r} below tolerance {tol_pivot}")
    eta = -alpha / pivot
    eta[p] = 1.0 / pivot
    return eta


def apply_eta(y: np.ndarray, eta: np.ndarray, p: int) -> None:
    """In place: y ← E y for the eta transformation (E as above)."""
    yp = y[p]
    if yp != 0.0:
        y += eta * yp
        y[p] -= yp


def apply_eta_transposed(r: np.ndarray, eta: np.ndarray, p: int) -> None:
    """In place: rᵀ ← rᵀ E, i.e. r_p ← r·η, other entries unchanged."""
    r[p] = float(r @ eta)


class BasisRepresentation(abc.ABC):
    """Common interface of the basis-inverse schemes."""

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        self.m = m
        self.recorder = recorder
        #: Eta updates applied since the last refactorisation.
        self.updates_since_refactor = 0

    def _charge(self, name: str, cost: OpCost) -> None:
        if self.recorder is not None:
            self.recorder.charge(name, cost)

    @abc.abstractmethod
    def reset_identity(self) -> None:
        """Set B⁻¹ = I (the phase-1 starting basis is the identity)."""

    @abc.abstractmethod
    def ftran(self, col: np.ndarray) -> np.ndarray:
        """Return α = B⁻¹ col."""

    @abc.abstractmethod
    def btran(self, row: np.ndarray) -> np.ndarray:
        """Return π with πᵀ = rowᵀ B⁻¹."""

    @abc.abstractmethod
    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        """Pivot: basis column p replaced; α is FTRAN of the entering col."""

    @abc.abstractmethod
    def refactorize(self, basis_columns: np.ndarray) -> None:
        """Rebuild exactly from the m×m matrix of current basis columns."""

    def needs_refresh(self) -> bool:
        """Whether the representation asks for a rebuild before the next
        ``refactor_period`` is due (fill-in, for the sparse LU)."""
        return False


class ExplicitInverseBasis(BasisRepresentation):
    """Dense explicit B⁻¹ with in-place rank-1 eta updates."""

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        super().__init__(m, recorder)
        self.binv = np.eye(m)

    def reset_identity(self) -> None:
        self.binv = np.eye(self.m)
        self.updates_since_refactor = 0

    def ftran(self, col: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        self._charge(
            "ftran",
            OpCost(flops=2 * m * m, bytes_read=(m * m + m) * w, bytes_written=m * w),
        )
        return self.binv @ col

    def btran(self, row: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        self._charge(
            "btran",
            OpCost(flops=2 * m * m, bytes_read=(m * m + m) * w, bytes_written=m * w),
        )
        return row @ self.binv

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        eta = eta_from_alpha(alpha, p, tol_pivot)
        row_p = self.binv[p, :].copy()
        eta_minus_ep = eta.copy()
        eta_minus_ep[p] -= 1.0
        self.binv += np.outer(eta_minus_ep, row_p)
        self.updates_since_refactor += 1
        m = self.m
        w = 8
        self._charge(
            "update.eta",
            OpCost(
                flops=2 * m * m + 2 * m,
                bytes_read=(m * m + 2 * m) * w,
                bytes_written=m * m * w,
            ),
        )

    def refactorize(self, basis_columns: np.ndarray) -> None:
        m = self.m
        try:
            self.binv = np.linalg.solve(basis_columns, np.eye(m))
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix is singular at refactorisation") from None
        self.updates_since_refactor = 0
        w = 8
        self._charge(
            "refactor",
            OpCost(
                flops=(2.0 / 3.0) * m**3 + 2.0 * m**3,  # LU + m solves
                bytes_read=2 * m * m * w,
                bytes_written=m * m * w,
            ),
        )


class ProductFormBasis(BasisRepresentation):
    """Product form of the inverse: dense base + eta file."""

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        super().__init__(m, recorder)
        self.base_inv = np.eye(m)
        self.etas: list[tuple[int, np.ndarray]] = []

    @property
    def eta_count(self) -> int:
        return len(self.etas)

    def reset_identity(self) -> None:
        self.base_inv = np.eye(self.m)
        self.etas.clear()
        self.updates_since_refactor = 0

    def ftran(self, col: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        y = self.base_inv @ col
        for p, eta in self.etas:
            apply_eta(y, eta, p)
        self._charge(
            "ftran",
            OpCost(
                flops=2 * m * m + 2 * m * len(self.etas),
                bytes_read=(m * m + m + 2 * m * len(self.etas)) * w,
                bytes_written=m * w,
            ),
        )
        return y

    def btran(self, row: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        r = np.array(row, dtype=np.float64, copy=True)
        for p, eta in reversed(self.etas):
            apply_eta_transposed(r, eta, p)
        result = r @ self.base_inv
        self._charge(
            "btran",
            OpCost(
                flops=2 * m * m + 2 * m * len(self.etas),
                bytes_read=(m * m + m + 2 * m * len(self.etas)) * w,
                bytes_written=m * w,
            ),
        )
        return result

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        eta = eta_from_alpha(alpha, p, tol_pivot)
        self.etas.append((p, eta))
        self.updates_since_refactor += 1
        w = 8
        self._charge(
            "update.eta",
            OpCost(flops=2 * self.m, bytes_read=self.m * w, bytes_written=self.m * w),
        )

    def refactorize(self, basis_columns: np.ndarray) -> None:
        m = self.m
        try:
            self.base_inv = np.linalg.solve(basis_columns, np.eye(m))
        except np.linalg.LinAlgError:
            raise SingularBasisError("basis matrix is singular at refactorisation") from None
        self.etas.clear()
        self.updates_since_refactor = 0
        w = 8
        self._charge(
            "refactor",
            OpCost(
                flops=(2.0 / 3.0) * m**3 + 2.0 * m**3,
                bytes_read=2 * m * m * w,
                bytes_written=m * m * w,
            ),
        )


class LUBasis(BasisRepresentation):
    """LU factorisation of B (scipy) with an eta file on top.

    The modern CPU scheme: refactorisation computes P·L·U = B once
    (O(m³/3), half the explicit-inverse cost and numerically backward
    stable); FTRAN/BTRAN are triangular solves; pivots append to an eta
    file exactly as in the product form.
    """

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        super().__init__(m, recorder)
        import scipy.linalg as sla

        self._sla = sla
        self._lu = sla.lu_factor(np.eye(m))
        self.etas: list[tuple[int, np.ndarray]] = []

    @property
    def eta_count(self) -> int:
        return len(self.etas)

    def reset_identity(self) -> None:
        self._lu = self._sla.lu_factor(np.eye(self.m))
        self.etas.clear()
        self.updates_since_refactor = 0

    def ftran(self, col: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        y = self._sla.lu_solve(self._lu, col)
        for p, eta in self.etas:
            apply_eta(y, eta, p)
        self._charge(
            "ftran",
            OpCost(
                flops=2 * m * m + 2 * m * len(self.etas),
                bytes_read=(m * m + m + 2 * m * len(self.etas)) * w,
                bytes_written=m * w,
            ),
        )
        return y

    def btran(self, row: np.ndarray) -> np.ndarray:
        m = self.m
        w = 8
        r = np.array(row, dtype=np.float64, copy=True)
        for p, eta in reversed(self.etas):
            apply_eta_transposed(r, eta, p)
        result = self._sla.lu_solve(self._lu, r, trans=1)
        self._charge(
            "btran",
            OpCost(
                flops=2 * m * m + 2 * m * len(self.etas),
                bytes_read=(m * m + m + 2 * m * len(self.etas)) * w,
                bytes_written=m * w,
            ),
        )
        return result

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        eta = eta_from_alpha(alpha, p, tol_pivot)
        self.etas.append((p, eta))
        self.updates_since_refactor += 1
        w = 8
        self._charge(
            "update.eta",
            OpCost(flops=2 * self.m, bytes_read=self.m * w, bytes_written=self.m * w),
        )

    def refactorize(self, basis_columns: np.ndarray) -> None:
        import warnings

        m = self.m
        try:
            with warnings.catch_warnings():
                # scipy emits LinAlgWarning on exact singularity; we turn it
                # into the library's SingularBasisError via the diag check
                warnings.simplefilter("ignore")
                self._lu = self._sla.lu_factor(basis_columns)
        except (np.linalg.LinAlgError, ValueError):
            raise SingularBasisError("basis matrix is singular at refactorisation") from None
        # lu_factor does not raise on exact singularity; check the diagonal
        if np.any(np.abs(np.diag(self._lu[0])) < 1e-300):
            raise SingularBasisError("basis matrix is singular at refactorisation")
        self.etas.clear()
        self.updates_since_refactor = 0
        w = 8
        self._charge(
            "refactor",
            OpCost(
                flops=(2.0 / 3.0) * m**3,
                bytes_read=m * m * w,
                bytes_written=m * m * w,
            ),
        )


def make_basis(
    kind: str, m: int, recorder: CpuCostRecorder | None = None
) -> BasisRepresentation:
    """Instantiate a basis representation by option name."""
    if kind == "explicit":
        return ExplicitInverseBasis(m, recorder)
    if kind == "pfi":
        return ProductFormBasis(m, recorder)
    if kind == "lu":
        return LUBasis(m, recorder)
    if kind == "sparse-lu":
        from repro.simplex.sparse_basis import SparseLUBasis

        return SparseLUBasis(m, recorder)
    raise ValueError(f"unknown basis update {kind!r}")
