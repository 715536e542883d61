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
numerical trouble.  :class:`LUBasis` is the product form over LU factors.
Charges use the recorder's word size.  :class:`Multipliers` holds the π
rule that goes with a representation, on either machine.
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

    @property
    def _w(self) -> int:
        """Modeled word size: the recorder's arithmetic (fp64 without one)."""
        return self.recorder.dtype.itemsize if self.recorder is not None else 8

    def _charge(self, name: str, cost: OpCost) -> None:
        if self.recorder is not None:
            self.recorder.charge(name, cost)

    def _charge_solve(self, name: str, etas: int = 0) -> None:
        """A dense m×m solve followed by ``etas`` eta applications."""
        m, w = self.m, self._w
        self._charge(
            name,
            OpCost(
                flops=2 * m * m + 2 * m * etas,
                bytes_read=(m * m + m + 2 * m * etas) * w,
                bytes_written=m * w,
            ),
        )

    def _charge_refactor(self, solves: float, reads: int) -> None:
        """An LU of B plus ``solves``·m³ flops, reading ``reads``·m² words."""
        m, w = self.m, self._w
        self._charge(
            "refactor",
            OpCost(
                flops=(2.0 / 3.0) * m**3 + solves * m**3,
                bytes_read=reads * m * m * w,
                bytes_written=m * m * w,
            ),
        )

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


def _inverse(basis_columns: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(basis_columns, np.eye(basis_columns.shape[0]))
    except np.linalg.LinAlgError:
        raise SingularBasisError("basis matrix is singular at refactorisation") from None


class ExplicitInverseBasis(BasisRepresentation):
    """Dense explicit B⁻¹ with in-place rank-1 eta updates."""

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        super().__init__(m, recorder)
        self.reset_identity()

    def reset_identity(self) -> None:
        self.binv = np.eye(self.m)
        self.updates_since_refactor = 0

    def ftran(self, col: np.ndarray) -> np.ndarray:
        self._charge_solve("ftran")
        return self.binv @ col

    def btran(self, row: np.ndarray) -> np.ndarray:
        self._charge_solve("btran")
        return row @ self.binv

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        eta = eta_from_alpha(alpha, p, tol_pivot)
        row_p = self.binv[p, :].copy()
        eta_minus_ep = eta.copy()
        eta_minus_ep[p] -= 1.0
        self.binv += np.outer(eta_minus_ep, row_p)
        self.updates_since_refactor += 1
        m = self.m
        w = self._w
        self._charge(
            "update.eta",
            OpCost(
                flops=2 * m * m + 2 * m,
                bytes_read=(m * m + 2 * m) * w,
                bytes_written=m * m * w,
            ),
        )

    def refactorize(self, basis_columns: np.ndarray) -> None:
        self.binv = _inverse(basis_columns)
        self.updates_since_refactor = 0
        self._charge_refactor(2.0, 2)  # LU + m solves


class ProductFormBasis(BasisRepresentation):
    """Product form of the inverse: a dense base inverse refreshed at
    refactorisation plus an eta file."""

    #: Refactorisation work beyond the LU (× m³ flops) and its reads (× m²
    #: words): the base inverse takes m more solves.
    _refactor_work = (2.0, 2)

    def __init__(self, m: int, recorder: CpuCostRecorder | None = None):
        super().__init__(m, recorder)
        self.etas: list[tuple[int, np.ndarray]] = []
        self.reset_identity()

    @property
    def eta_count(self) -> int:
        return len(self.etas)

    def reset_identity(self) -> None:
        self._factor(np.eye(self.m))
        self.etas.clear()
        self.updates_since_refactor = 0

    def _factor(self, basis_columns: np.ndarray) -> None:
        self.base_inv = _inverse(basis_columns)

    def _solve(self, col: np.ndarray) -> np.ndarray:
        return self.base_inv @ col

    def _solve_t(self, row: np.ndarray) -> np.ndarray:
        return row @ self.base_inv

    def ftran(self, col: np.ndarray) -> np.ndarray:
        y = self._solve(col)
        for p, eta in self.etas:
            apply_eta(y, eta, p)
        self._charge_solve("ftran", len(self.etas))
        return y

    def btran(self, row: np.ndarray) -> np.ndarray:
        r = np.array(row, dtype=np.float64, copy=True)
        for p, eta in reversed(self.etas):
            apply_eta_transposed(r, eta, p)
        result = self._solve_t(r)
        self._charge_solve("btran", len(self.etas))
        return result

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        eta = eta_from_alpha(alpha, p, tol_pivot)
        self.etas.append((p, eta))
        self.updates_since_refactor += 1
        w = self._w
        self._charge(
            "update.eta",
            OpCost(flops=2 * self.m, bytes_read=self.m * w, bytes_written=self.m * w),
        )

    def refactorize(self, basis_columns: np.ndarray) -> None:
        self._factor(basis_columns)
        self.etas.clear()
        self.updates_since_refactor = 0
        self._charge_refactor(*self._refactor_work)


class LUBasis(ProductFormBasis):
    """LU factorisation of B (scipy) with an eta file on top.

    The modern CPU scheme: refactorisation computes P·L·U = B once
    (O(m³/3), half the explicit-inverse cost and numerically backward
    stable); FTRAN/BTRAN are triangular solves; pivots append to an eta
    file exactly as in the product form.
    """

    _refactor_work = (0.0, 1)

    def _factor(self, basis_columns: np.ndarray) -> None:
        import warnings

        import scipy.linalg as sla

        try:
            with warnings.catch_warnings():
                # scipy emits LinAlgWarning on exact singularity; we turn it
                # into the library's SingularBasisError via the diag check
                warnings.simplefilter("ignore")
                lu = sla.lu_factor(basis_columns)
        except (np.linalg.LinAlgError, ValueError):
            raise SingularBasisError("basis matrix is singular at refactorisation") from None
        # lu_factor does not raise on exact singularity; check the diagonal
        if np.any(np.abs(np.diag(lu[0])) < 1e-300):
            raise SingularBasisError("basis matrix is singular at refactorisation")
        self._lu = lu

    def _solve(self, col: np.ndarray) -> np.ndarray:
        import scipy.linalg as sla

        return sla.lu_solve(self._lu, col)

    def _solve_t(self, row: np.ndarray) -> np.ndarray:
        import scipy.linalg as sla

        return sla.lu_solve(self._lu, row, trans=1)


class Multipliers:
    """When the simplex multipliers π = B⁻ᵀc_B must be computed afresh, on
    either machine; ``pi`` is the placement's π (a host array or a device
    buffer).

    An explicit inverse (``follows_pivots``) multiplies π fresh only when
    it is stale: at the start of a phase (c_B reloaded; a warm start
    happens before the first one) and after a rebuild.  After every basis
    change the placement updates π from the pivot row instead,
    π += (d_q/α_pq)·ρ_p with ρ_p row p of the pre-pivot inverse, and calls
    :meth:`update`.  A bound flip leaves the basis, and so π, unchanged.
    An updated π carries the rounding of its updates, so a terminal verdict
    it priced (optimal, unbounded) is not taken on trust: :meth:`confirms`
    marks π stale and the loop redoes the iteration with a fresh multiply,
    the dual clean-up pass of production simplex codes.

    The factored representations solve π at every pricing, and every
    verdict stands.
    """

    def __init__(self, pi, follows_pivots: bool):
        self.pi = pi
        self.follows_pivots = follows_pivots
        self.stale = True
        #: π moved by an update since its last multiply
        self.updated = False

    def invalidate(self) -> None:
        """B⁻¹ or c_B changed wholesale: multiply π before the next pricing."""
        self.stale = True

    def refresh(self) -> bool:
        """Whether π must be computed at this pricing (it is fresh after)."""
        if self.stale or not self.follows_pivots:
            self.stale = self.updated = False
            return True
        return False

    def update(self) -> None:
        """π was just updated from the pivot row."""
        self.updated = True

    def confirms(self) -> bool:
        """Whether a terminal verdict priced with the current π stands.

        True when π was computed fresh; otherwise π goes stale and the
        caller must redo the iteration."""
        if self.updated:
            self.stale = True
        return not self.updated


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
