"""Structural analysis of LP instances.

Computes the instance statistics the evaluation tables report (shape, nnz,
density, coefficient spread) plus modelling diagnostics (bound classes,
sense mix, suspected degeneracy) — the ``repro info`` CLI command and the
correctness table T2 both use this.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.lp.problem import ConstraintSense, LPProblem
from repro.lp.scaling import needs_scaling, scaling_spread


@dataclasses.dataclass
class ProblemStats:
    """Structural statistics of one LP instance."""

    name: str
    rows: int
    cols: int
    nnz: int
    density: float
    #: max|a| / min|a| over nonzeros (numerical-difficulty indicator).
    coefficient_spread: float
    #: True when the spread is past the limit at which every solver
    #: equilibrates the problem (:func:`~repro.lp.scaling.needs_scaling`).
    scaled: bool
    senses: dict[str, int]
    #: Bound classes: nonneg / free / boxed / upper-only / lower-shifted / fixed.
    bound_classes: dict[str, int]
    maximize: bool
    is_sparse: bool
    #: rhs ties per leading column (a cheap degeneracy smell, see
    #: :func:`analyze`); 0 = no ties.
    rhs_ratio_ties: int

    def render(self) -> str:
        lines = [
            f"problem {self.name!r}: "
            f"{'max' if self.maximize else 'min'}, "
            f"{self.rows} rows x {self.cols} cols, "
            f"{self.nnz} nnz ({100 * self.density:.2f}%), "
            f"{'sparse' if self.is_sparse else 'dense'} storage",
            f"  coefficient spread: {self.coefficient_spread:.3g}"
            + ("  (scaled automatically)" if self.scaled else ""),
            "  senses: " + ", ".join(f"{k}: {v}" for k, v in self.senses.items() if v),
            "  bounds: " + ", ".join(f"{k}: {v}" for k, v in self.bound_classes.items() if v),
        ]
        if self.rhs_ratio_ties:
            lines.append(
                f"  degeneracy smell: {self.rhs_ratio_ties} tied first-pivot ratios"
            )
        return "\n".join(lines)


def analyze(problem: LPProblem) -> ProblemStats:
    """Compute :class:`ProblemStats` for an instance."""
    a = problem.a
    if problem.is_sparse:
        nnz = a.nnz
    else:
        nnz = int(np.count_nonzero(a))
    m, n = problem.num_constraints, problem.num_vars
    density = nnz / (m * n) if m * n else 0.0

    senses = {"<=": 0, "=": 0, ">=": 0}
    for s in problem.senses:
        senses[s.value] += 1

    lower, upper = problem.bounds.lower, problem.bounds.upper
    lo_f, hi_f = np.isfinite(lower), np.isfinite(upper)
    classes = {
        "nonneg": int(np.sum((lower == 0) & ~hi_f)),
        "free": int(np.sum(~lo_f & ~hi_f)),
        "boxed": int(np.sum(lo_f & hi_f & (lower != upper))),
        "fixed": int(np.sum(lo_f & hi_f & (lower == upper))),
        "upper-only": int(np.sum(~lo_f & hi_f)),
        "lower-shifted": int(np.sum(lo_f & (lower != 0) & ~hi_f)),
    }

    # degeneracy smell: count duplicated b_i / a_{i,j0} ratios against the
    # first column with full support (exact ties produce ratio-test ties on
    # the very first pivot)
    dense0 = problem.a_dense()
    ties = 0
    for j in range(min(n, 4)):
        col = dense0[:, j]
        ok = col != 0
        if np.count_nonzero(ok) >= 2:
            ratios = problem.b[ok] / col[ok]
            uniq = np.unique(np.round(ratios, 12))
            ties = max(ties, int(ratios.size - uniq.size))
    return ProblemStats(
        name=problem.name,
        rows=m,
        cols=n,
        nnz=nnz,
        density=density,
        coefficient_spread=scaling_spread(a),
        scaled=needs_scaling(a),
        senses=senses,
        bound_classes=classes,
        maximize=problem.maximize,
        is_sparse=problem.is_sparse,
        rhs_ratio_ties=ties,
    )
