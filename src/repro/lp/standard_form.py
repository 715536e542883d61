"""Conversion of a general-form LP to simplex standard form.

Standard form is

.. math::

    \\min c^T x \\quad \\text{s.t.} \\quad A x = b,\\ x \\ge 0,\\ b \\ge 0.

The conversion performs, in order:

1. *Orientation* — maximisation becomes minimisation by negating c.
2. *Variable bounds* — every variable is mapped onto ``x' >= 0``:

   - ``lo <= x``          → shift ``x' = x - lo``;
   - ``x <= hi`` (no lo)  → reflect ``x' = hi - x``;
   - ``lo <= x <= hi``    → shift, plus an extra row ``x' <= hi - lo``;
   - free                 → split ``x = x⁺ - x⁻``.

   Shifts and reflections contribute a constant to the objective and an
   adjustment to b; both are recorded so the original solution and objective
   are recovered exactly.
3. *Row signs* — rows with negative rhs are negated (sense flips).
4. *Slack/surplus* — ``<=`` rows gain a +1 slack, ``>=`` rows a −1 surplus;
   the rows whose slack is +1 form the crash basis hint used to skip phase 1
   when it covers every row.

Artificial variables are **not** materialised here: they are identity
columns, and every solver in the library synthesises them implicitly during
phase 1 (exactly as a GPU implementation would, to avoid wasting device
memory on an identity block).
"""

from __future__ import annotations

import dataclasses
from typing import Literal

import numpy as np

from repro.errors import LPDimensionError
from repro.lp.problem import Bounds, ConstraintSense, LPProblem
from repro.sparse.base import SparseMatrix
from repro.sparse.coo import CooMatrix
from repro.sparse.csc import CscMatrix

TransformKind = Literal["identity", "shift", "reflect", "split"]


@dataclasses.dataclass(frozen=True)
class VariableTransform:
    """How one original variable maps into standard-form columns.

    - ``identity``: x = x'_col
    - ``shift``:    x = x'_col + offset
    - ``reflect``:  x = offset - x'_col
    - ``split``:    x = x'_col - x'_col2
    """

    kind: TransformKind
    col: int
    col2: int = -1
    offset: float = 0.0

    def recover(self, x_std: np.ndarray) -> float:
        if self.kind == "identity":
            return float(x_std[self.col])
        if self.kind == "shift":
            return float(x_std[self.col] + self.offset)
        if self.kind == "reflect":
            return float(self.offset - x_std[self.col])
        return float(x_std[self.col] - x_std[self.col2])


@dataclasses.dataclass
class StandardFormLP:
    """A problem in simplex standard form, plus everything needed to map a
    standard-form solution back to the user's original variables."""

    a: "np.ndarray | CscMatrix"
    b: np.ndarray
    c: np.ndarray
    constant: float
    maximize: bool
    transforms: list[VariableTransform]
    #: Per-row standard-form column index of a +1 slack usable in a crash
    #: basis, or -1 when the row has none (EQ and >= rows).
    slack_of_row: np.ndarray
    #: Number of columns that came from original variables (before slacks).
    n_structural: int
    #: Per-row: index of the originating constraint in the user's problem,
    #: or -1 for rows synthesised from finite upper bounds.
    row_origin: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: Per-row: True when the row was multiplied by -1 to make b >= 0 (the
    #: corresponding dual flips sign on recovery).
    row_flipped: np.ndarray = dataclasses.field(default_factory=lambda: np.zeros(0, dtype=bool))
    #: Per-column upper bound (``0 <= x <= upper``).  All +inf when the
    #: conversion turned range bounds into rows (the classical form every
    #: solver accepts); finite entries appear only with
    #: ``to_standard_form(..., range_bounds_as_rows=False)``, which the
    #: bounded-variable solver consumes.
    upper: np.ndarray | None = None
    source_name: str = "lp"

    def upper_bounds(self) -> np.ndarray:
        """Column upper bounds (+inf vector when not tracked)."""
        if self.upper is None:
            return np.full(self.num_cols, np.inf)
        return self.upper

    @property
    def num_rows(self) -> int:
        return int(self.b.size)

    @property
    def num_cols(self) -> int:
        return int(self.c.size)

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.a, SparseMatrix)

    def a_dense(self) -> np.ndarray:
        return self.a.to_dense() if self.is_sparse else np.asarray(self.a)

    def column(self, j: int) -> np.ndarray:
        """Standard-form column j as a dense m-vector."""
        if not 0 <= j < self.num_cols:
            raise LPDimensionError(f"column {j} out of range")
        if self.is_sparse:
            return self.a.getcol_dense(j)
        return np.asarray(self.a)[:, j].copy()

    @property
    def has_full_slack_basis(self) -> bool:
        """True when the +1 slacks cover every row (phase 1 unnecessary)."""
        return bool(np.all(self.slack_of_row >= 0))

    # -- recovery ------------------------------------------------------------

    def recover_x(self, x_std: np.ndarray) -> np.ndarray:
        """Original-space solution from a standard-form point."""
        x_std = np.asarray(x_std, dtype=np.float64)
        if x_std.size != self.num_cols:
            raise LPDimensionError(
                f"standard-form point has {x_std.size} entries, expected {self.num_cols}"
            )
        return np.array([t.recover(x_std) for t in self.transforms])

    def original_objective(self, z_std: float) -> float:
        """Objective in the user's orientation from the standard-form value."""
        value = z_std + self.constant
        return -value if self.maximize else value

    def recover_duals(self, y_std: np.ndarray) -> np.ndarray:
        """Original-constraint duals from standard-form row duals.

        Sign conventions: a flipped row's dual flips back, and a maximised
        problem's duals negate (the conversion minimised −c).  Rows
        synthesised from upper bounds have no original constraint and are
        dropped.
        """
        y_std = np.asarray(y_std, dtype=np.float64)
        if y_std.size != self.num_rows:
            raise LPDimensionError(
                f"dual vector has {y_std.size} entries, expected {self.num_rows}"
            )
        n_orig = int(self.row_origin.max(initial=-1)) + 1
        out = np.zeros(n_orig)
        for i in range(self.num_rows):
            orig = int(self.row_origin[i])
            if orig < 0:
                continue
            value = -y_std[i] if self.row_flipped[i] else y_std[i]
            out[orig] = -value if self.maximize else value
        return out


def column_entries(cols: np.ndarray, n: int) -> list[np.ndarray]:
    """Per column ``j < n``, the triplet positions ``k`` with
    ``cols[k] == j``, in increasing order."""
    order = np.argsort(cols, kind="stable")
    counts = np.bincount(cols, minlength=n)
    return np.split(order, np.cumsum(counts)[:-1])


def to_standard_form(
    problem: LPProblem, *, range_bounds_as_rows: bool = True
) -> StandardFormLP:
    """Convert a general-form :class:`LPProblem` to standard form.

    The sparse/dense character of the input is preserved: sparse problems
    produce a :class:`~repro.sparse.csc.CscMatrix` (column access is the
    revised simplex hot path), dense problems a dense ndarray.

    ``range_bounds_as_rows`` chooses how finite upper bounds are encoded:
    ``True`` (default) adds a ``x' <= hi - lo`` constraint row per bounded
    variable — the classical form every solver accepts; ``False`` keeps them
    as column upper bounds in :attr:`StandardFormLP.upper` for the
    bounded-variable solver, which handles them inside the ratio test with
    no extra rows.
    """
    m, n = problem.a.shape

    # Work in triplet form so the same code serves dense and sparse inputs.
    if problem.is_sparse:
        coo = problem.a.tocoo() if hasattr(problem.a, "tocoo") else problem.a
        rows = coo.row.copy()
        cols = coo.col.copy()
        vals = coo.val.copy()
    else:
        rr, cc = np.nonzero(problem.a)
        rows, cols, vals = rr.astype(np.int64), cc.astype(np.int64), problem.a[rr, cc].astype(np.float64)

    c_orig = problem.c.astype(np.float64).copy()
    if problem.maximize:
        c_orig = -c_orig

    b = problem.b.astype(np.float64).copy()
    senses = list(problem.senses)
    lower = problem.bounds.lower
    upper = problem.bounds.upper

    # Dense per-column views are needed for the b adjustments of shifts and
    # reflections; build them from the triplets.
    col_entries = column_entries(cols, n)

    transforms: list[VariableTransform] = []
    new_cols_c: list[float] = []
    constant = 0.0
    extra_rows: list[tuple[int, float]] = []  # (std col, upper bound) rows to add
    col_upper: dict[int, float] = {}  # finite column bounds (bounded form)
    next_col = 0
    col_map = np.full(n, -1, dtype=np.int64)  # original col -> new col
    negate_col = np.zeros(n, dtype=bool)
    split_cols: list[tuple[int, int]] = []  # (orig col, new negative col)

    for j in range(n):
        lo, hi = float(lower[j]), float(upper[j])
        lo_finite, hi_finite = np.isfinite(lo), np.isfinite(hi)
        if not lo_finite and not hi_finite:
            # free variable: split
            cp = next_col
            cn = next_col + 1
            next_col += 2
            transforms.append(VariableTransform("split", cp, cn))
            new_cols_c.extend([c_orig[j], -c_orig[j]])
            col_map[j] = cp
            split_cols.append((j, cn))
        elif not lo_finite:
            # x <= hi only: reflect x' = hi - x
            cp = next_col
            next_col += 1
            transforms.append(VariableTransform("reflect", cp, offset=hi))
            new_cols_c.append(-c_orig[j])
            constant += c_orig[j] * hi
            negate_col[j] = True
            col_map[j] = cp
            # b -= A_j * hi  (x = hi - x' substituted into every row)
            for k in col_entries[j]:
                b[int(rows[k])] -= vals[k] * hi
        else:
            # lo finite: shift x' = x - lo (lo may be 0 -> identity)
            cp = next_col
            next_col += 1
            if lo == 0.0:
                transforms.append(VariableTransform("identity", cp))
            else:
                transforms.append(VariableTransform("shift", cp, offset=lo))
                constant += c_orig[j] * lo
                for k in col_entries[j]:
                    b[int(rows[k])] -= vals[k] * lo
            new_cols_c.append(c_orig[j])
            col_map[j] = cp
            if hi_finite:
                if range_bounds_as_rows:
                    extra_rows.append((cp, hi - lo))
                else:
                    col_upper[cp] = hi - lo

    # Rewrite the triplets into the new column space.
    new_rows = [rows]
    new_cols = [col_map[cols]]
    new_vals = [np.where(negate_col[cols], -vals, vals)]
    for j, cn in split_cols:
        ks = col_entries[j]
        if ks.size:
            new_rows.append(rows[ks])
            new_cols.append(np.full(len(ks), cn, dtype=np.int64))
            new_vals.append(-vals[ks])

    # Append the upper-bound rows x'_cp <= ub.
    row_count = m
    ub_rows: list[tuple[int, int, float]] = []
    for cp, ub in extra_rows:
        ub_rows.append((row_count, cp, 1.0))
        b = np.append(b, ub)
        senses.append(ConstraintSense.LE)
        row_count += 1
    if ub_rows:
        r, cidx, v = zip(*ub_rows)
        new_rows.append(np.asarray(r, dtype=np.int64))
        new_cols.append(np.asarray(cidx, dtype=np.int64))
        new_vals.append(np.asarray(v, dtype=np.float64))

    rows = np.concatenate(new_rows) if new_rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(new_cols) if new_cols else np.zeros(0, dtype=np.int64)
    vals = np.concatenate(new_vals) if new_vals else np.zeros(0, dtype=np.float64)
    n_structural = next_col

    # Row provenance: original-constraint index for the first m rows,
    # -1 for the synthesised upper-bound rows.
    row_origin = np.concatenate(
        [np.arange(m, dtype=np.int64), np.full(row_count - m, -1, dtype=np.int64)]
    )

    # Row-sign normalisation: b >= 0.
    neg = b < 0.0
    if neg.any():
        flip = neg[rows]
        vals = np.where(flip, -vals, vals)
        b = np.where(neg, -b, b)
        senses = [s.flipped() if neg[i] else s for i, s in enumerate(senses)]
    row_flipped = neg.copy()

    # Slack / surplus columns.
    slack_of_row = np.full(row_count, -1, dtype=np.int64)
    slack_rows: list[int] = []
    slack_vals: list[float] = []
    slack_cols: list[int] = []
    col = n_structural
    for i, sense in enumerate(senses):
        if sense is ConstraintSense.EQ:
            continue
        coeff = 1.0 if sense is ConstraintSense.LE else -1.0
        slack_rows.append(i)
        slack_cols.append(col)
        slack_vals.append(coeff)
        if coeff > 0:
            slack_of_row[i] = col
        col += 1
    n_total = col
    if slack_rows:
        rows = np.concatenate([rows, np.asarray(slack_rows, dtype=np.int64)])
        cols = np.concatenate([cols, np.asarray(slack_cols, dtype=np.int64)])
        vals = np.concatenate([vals, np.asarray(slack_vals, dtype=np.float64)])

    c_std = np.concatenate([np.asarray(new_cols_c, dtype=np.float64),
                            np.zeros(n_total - n_structural)])

    upper_vec: np.ndarray | None = None
    if not range_bounds_as_rows:
        upper_vec = np.full(n_total, np.inf)
        for cp, ub in col_upper.items():
            upper_vec[cp] = ub

    coo = CooMatrix((row_count, n_total), rows, cols, vals)
    a_std: "np.ndarray | CscMatrix"
    if problem.is_sparse:
        a_std = coo.tocsc()
    else:
        a_std = coo.to_dense()

    return StandardFormLP(
        a=a_std,
        b=b,
        c=c_std,
        constant=constant,
        maximize=problem.maximize,
        transforms=transforms,
        slack_of_row=slack_of_row,
        n_structural=n_structural,
        row_origin=row_origin,
        row_flipped=row_flipped,
        upper=upper_vec,
        source_name=problem.name,
    )
