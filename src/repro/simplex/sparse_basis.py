"""Sparse LU basis representation for the revised simplex method.

:class:`SparseLUBasis` is the sparse sibling of :class:`~repro.simplex.basis.LUBasis`:
the basis matrix B is factorised as ``B = L·U`` directly from its CSC
columns with a left-looking (Gilbert–Peierls) elimination — a depth-first
reach computation over the pattern of L finds the rows each column touches,
so the factorisation costs O(flops(L,U)) instead of O(m³).  Pivots append
*sparse* eta vectors to a product-form file (Forrest–Tomlin-style drop-in:
same ``update``/``ftran``/``btran``/``refactorize`` surface as the dense
schemes), and the structure reports a fill ratio so the solver can trigger
an early refactorisation when the factor plus eta file outgrow the basis.

Storage is column-wise in *elimination order* ``k = 0..m-1``:

- ``perm[k]``    — the original row chosen as pivot at step k (``pinv`` is
  its inverse: original row → elimination index, −1 while unpivoted);
- ``l_rows[k]/l_vals[k]`` — the below-diagonal entries of L's column k, as
  original row indices with values already divided by the pivot;
- ``u_rows[k]/u_vals[k]`` — the above-diagonal entries of U's column k, as
  elimination indices < k, plus the pivot ``u_diag[k]``.

FTRAN solves ``L z = P b`` forward in elimination order then ``U x = z``
backward; BTRAN runs the transposed solves in the opposite order.  Both
skip structurally-zero positions, so their cost — and the modeled CPU time
charged — scales with ``nnz(L) + nnz(U) + nnz(etas)`` rather than m².
"""

from __future__ import annotations

import numpy as np

from repro.errors import SingularBasisError
from repro.perfmodel.cpu_model import CpuCostRecorder
from repro.perfmodel.ops import OpCost
from repro.simplex.basis import BasisRepresentation
from repro.sparse.csc import CscMatrix

#: Host index width (the factor stores int64 row ids; modeled as 4-byte
#: indices to match the sparse-matrix cost convention of repro.gpu/repro.sparse).
_INDEX_BYTES = 4


class SparseLUBasis(BasisRepresentation):
    """Sparse LU factors of B plus a sparse product-form eta file."""

    def __init__(
        self,
        m: int,
        recorder: CpuCostRecorder | None = None,
        fill_limit: float = 4.0,
    ):
        super().__init__(m, recorder)
        #: Early-refresh trigger: refactorise when the eta file has grown
        #: the solve working set to ``fill_limit`` times the fresh factor —
        #: i.e. (nnz(LU) + nnz(etas)) > fill_limit * nnz(LU).  Growth is
        #: measured against the *fresh factor*, not the basis columns: a
        #: fill-heavy basis whose LU is large at refactorisation time must
        #: not re-trip the trigger on every pivot.
        self.fill_limit = float(fill_limit)
        self._identity()

    # -- bookkeeping -------------------------------------------------------

    def _identity(self) -> None:
        m = self.m
        self._perm = np.arange(m, dtype=np.int64)
        self._pinv = np.arange(m, dtype=np.int64)
        self._l_rows = [np.zeros(0, dtype=np.int64) for _ in range(m)]
        self._l_vals = [np.zeros(0) for _ in range(m)]
        self._u_rows = [np.zeros(0, dtype=np.int64) for _ in range(m)]
        self._u_vals = [np.zeros(0) for _ in range(m)]
        self._u_diag = np.ones(m)
        self._etas: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.lu_nnz = m  # the unit diagonal
        self.eta_nnz = 0
        self._basis_nnz = m
        self.updates_since_refactor = 0

    @property
    def eta_count(self) -> int:
        return len(self._etas)

    @property
    def fill_ratio(self) -> float:
        """(nnz of factors + eta file) / nnz of the fresh factors."""
        return (self.lu_nnz + self.eta_nnz) / float(max(1, self.lu_nnz))

    def needs_refresh(self) -> bool:
        """True when eta growth says to refactorise before the period is up."""
        return self.updates_since_refactor > 0 and self.fill_ratio > self.fill_limit

    def _solve_work(self) -> int:
        return self.lu_nnz + self.eta_nnz

    def reset_identity(self) -> None:
        self._identity()

    # -- factorisation -----------------------------------------------------

    @staticmethod
    def _as_csc(basis_columns) -> CscMatrix:
        if isinstance(basis_columns, CscMatrix):
            return basis_columns
        return CscMatrix.from_dense(np.asarray(basis_columns, dtype=np.float64))

    def refactorize(self, basis_columns) -> None:
        """Rebuild L·U = B from the basis columns (dense array or CSC)."""
        a = self._as_csc(basis_columns)
        m = self.m
        if a.shape != (m, m):
            raise SingularBasisError(
                f"basis matrix must be {m}x{m}, got {a.shape}"
            )

        perm = np.full(m, -1, dtype=np.int64)
        pinv = np.full(m, -1, dtype=np.int64)
        l_rows: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * m
        l_vals: list[np.ndarray] = [np.zeros(0)] * m
        u_rows: list[np.ndarray] = [np.zeros(0, dtype=np.int64)] * m
        u_vals: list[np.ndarray] = [np.zeros(0)] * m
        u_diag = np.zeros(m)

        x = np.zeros(m)  # dense scratch, cleared per column via touch list
        visit_stamp = np.full(m, -1, dtype=np.int64)  # per-column DFS marker
        flops = 0.0
        lu_nnz = m

        for j in range(m):
            rows, vals = a.getcol(j)

            # symbolic: reach of the column pattern over L (DFS from every
            # already-pivoted pattern row), ascending elimination order
            reach: list[int] = []
            stack: list[int] = []
            for r in rows:
                k0 = pinv[r]
                if k0 >= 0 and visit_stamp[k0] != j:
                    stack.append(int(k0))
                    visit_stamp[k0] = j
            while stack:
                k = stack.pop()
                reach.append(k)
                for r in l_rows[k]:
                    k2 = pinv[r]
                    if k2 >= 0 and visit_stamp[k2] != j:
                        stack.append(int(k2))
                        visit_stamp[k2] = j
            reach.sort()

            # numeric: x := column j, then eliminate along the reach
            x[rows] = vals
            touched = [rows]
            for k in reach:
                xk = x[perm[k]]
                if xk != 0.0 and l_rows[k].size:
                    x[l_rows[k]] -= xk * l_vals[k]
                    touched.append(l_rows[k])
                    flops += 2.0 * l_rows[k].size

            touched_rows = np.unique(np.concatenate(touched))
            unpivoted = touched_rows[pinv[touched_rows] < 0]

            # partial pivoting over the unpivoted rows
            piv_row = -1
            piv_val = 0.0
            if unpivoted.size:
                cand_vals = x[unpivoted]
                best = int(np.argmax(np.abs(cand_vals)))
                piv_row = int(unpivoted[best])
                piv_val = float(cand_vals[best])
            if abs(piv_val) <= 1e-300:
                x[touched_rows] = 0.0
                raise SingularBasisError(
                    "basis matrix is singular at refactorisation "
                    f"(no admissible pivot in column {j})"
                )

            # U column: solved values at already-pivoted positions
            uk = [k for k in reach if x[perm[k]] != 0.0]
            u_rows[j] = np.asarray(uk, dtype=np.int64)
            u_vals[j] = x[self._take(perm, uk)]
            u_diag[j] = piv_val

            # L column: remaining unpivoted entries, scaled by the pivot
            below = unpivoted[(unpivoted != piv_row) & (x[unpivoted] != 0.0)]
            l_rows[j] = below
            l_vals[j] = x[below] / piv_val
            flops += float(below.size)

            perm[j] = piv_row
            pinv[piv_row] = j
            lu_nnz += int(u_rows[j].size + below.size)
            x[touched_rows] = 0.0

        self._perm, self._pinv = perm, pinv
        self._l_rows, self._l_vals = l_rows, l_vals
        self._u_rows, self._u_vals = u_rows, u_vals
        self._u_diag = u_diag
        self._etas = []
        self.lu_nnz = lu_nnz
        self.eta_nnz = 0
        self._basis_nnz = max(1, a.nnz)
        self.updates_since_refactor = 0

        self._charge(
            "refactor",
            OpCost(
                flops=flops,
                bytes_read=(a.nnz + lu_nnz) * (self._w + _INDEX_BYTES),
                bytes_written=lu_nnz * (self._w + _INDEX_BYTES),
            ),
        )

    @staticmethod
    def _take(arr: np.ndarray, idx: list[int]) -> np.ndarray:
        return arr[np.asarray(idx, dtype=np.int64)] if idx else np.zeros(0, dtype=arr.dtype)

    # -- solves ------------------------------------------------------------

    def ftran(self, col: np.ndarray) -> np.ndarray:
        m = self.m
        y = np.asarray(col, dtype=np.float64).copy()
        z = np.empty(m)
        # forward: L z = P col  (skip structurally/numerically zero steps)
        for k in range(m):
            zk = y[self._perm[k]]
            z[k] = zk
            if zk != 0.0 and self._l_rows[k].size:
                y[self._l_rows[k]] -= zk * self._l_vals[k]
        # backward: U x = z
        for k in range(m - 1, -1, -1):
            zk = z[k]
            if zk == 0.0:
                continue
            zk /= self._u_diag[k]
            z[k] = zk
            if self._u_rows[k].size:
                z[self._u_rows[k]] -= zk * self._u_vals[k]
        for p, rows, vals in self._etas:
            zp = z[p]
            if zp != 0.0:
                z[rows] += vals * zp
                z[p] -= zp
        work = self._solve_work()
        self._charge(
            "ftran",
            OpCost(
                flops=2.0 * work,
                bytes_read=work * (self._w + _INDEX_BYTES) + m * self._w,
                bytes_written=m * self._w,
            ),
        )
        return z

    def btran(self, row: np.ndarray) -> np.ndarray:
        m = self.m
        r = np.array(row, dtype=np.float64, copy=True)
        for p, rows, vals in reversed(self._etas):
            r[p] = float(r[rows] @ vals)
        # forward: Uᵀ w = r (Uᵀ is lower-triangular in elimination order)
        w = np.empty(m)
        for k in range(m):
            rk = r[k]
            if self._u_rows[k].size:
                rk -= float(w[self._u_rows[k]] @ self._u_vals[k])
            w[k] = rk / self._u_diag[k]
        # backward: Lᵀ Pᵀ π = w, unknowns in original-row space
        pi = np.empty(m)
        for k in range(m - 1, -1, -1):
            wk = w[k]
            if self._l_rows[k].size:
                wk -= float(pi[self._l_rows[k]] @ self._l_vals[k])
            pi[self._perm[k]] = wk
        work = self._solve_work()
        self._charge(
            "btran",
            OpCost(
                flops=2.0 * work,
                bytes_read=work * (self._w + _INDEX_BYTES) + m * self._w,
                bytes_written=m * self._w,
            ),
        )
        return pi

    # -- updates -----------------------------------------------------------

    def update(self, alpha: np.ndarray, p: int, tol_pivot: float) -> None:
        pivot = float(alpha[p])
        if abs(pivot) <= tol_pivot:
            raise SingularBasisError(
                f"pivot {pivot!r} below tolerance {tol_pivot}"
            )
        rows = np.nonzero(alpha)[0].astype(np.int64)
        vals = -alpha[rows] / pivot
        vals[np.searchsorted(rows, p)] = 1.0 / pivot
        self._etas.append((int(p), rows, vals))
        self.eta_nnz += int(rows.size)
        self.updates_since_refactor += 1
        self._charge(
            "update.eta",
            OpCost(
                flops=2.0 * rows.size,
                bytes_read=rows.size * (self._w + _INDEX_BYTES),
                bytes_written=rows.size * (self._w + _INDEX_BYTES),
            ),
        )


def basis_columns_csc(prep, basis: np.ndarray) -> CscMatrix:
    """The m×m basis matrix as CSC (artificial columns are unit columns).

    The sparse counterpart of :meth:`PreparedLP.basis_matrix`: columns are
    pulled from the CSC constraint matrix in O(column nnz) each, and the
    implicit artificials ``e_i`` (index ``n_total + i``) are synthesised as
    single-entry columns — the dense m×m matrix is never materialised.
    """
    m, n = prep.m, prep.n_total
    indptr = np.zeros(m + 1, dtype=np.int64)
    all_rows: list[np.ndarray] = []
    all_vals: list[np.ndarray] = []
    for pos, j in enumerate(np.asarray(basis, dtype=np.int64)):
        if j >= n:
            rows = np.array([j - n], dtype=np.int64)
            vals = np.ones(1)
        else:
            rows, vals = prep.a.getcol(int(j))
        all_rows.append(rows)
        all_vals.append(vals)
        indptr[pos + 1] = indptr[pos] + rows.size
    return CscMatrix(
        (m, m),
        indptr,
        np.concatenate(all_rows) if all_rows else np.zeros(0, dtype=np.int64),
        np.concatenate(all_vals) if all_vals else np.zeros(0),
    )
