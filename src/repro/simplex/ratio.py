"""Leaving-variable ratio tests.

Given the current basic solution β and the updated entering column α, the
ratio test finds the blocking row: the basic variable that first hits zero
as the entering variable increases.

- **standard**: ``p = argmin { β_i / α_i : α_i > tol }``, ties broken to the
  lowest *basic-variable index* (the Bland-compatible tie-break that makes
  the whole method anti-cycling when paired with Bland pricing).
- **harris** (two-pass): pass 1 computes the loosest step ``θ_max`` allowed
  when every basic variable may go slightly infeasible (by ``feas_tol``);
  pass 2 picks, among rows whose ratio is within θ_max, the one with the
  largest |pivot| — trading a bounded infeasibility for numerical stability.

Both return :class:`RatioResult`; ``row < 0`` signals an unbounded
direction.  :func:`bounded_ratios` is the per-row map of the three-way
bounded-variable test, shared by the host method and the device kernel.
:func:`dual_ratio_test` is the dual simplex's: it picks the entering
column from the leaving row.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class RatioResult:
    """Outcome of a ratio test."""

    #: Pivot row index, or -1 when no row blocks (unbounded).
    row: int
    #: Step length θ (∞ when unbounded).
    theta: float
    #: Pivot magnitude α_p (0 when unbounded).
    pivot: float
    #: Number of rows tied at the minimum ratio (degeneracy signal).
    ties: int = 1

    @property
    def unbounded(self) -> bool:
        return self.row < 0


UNBOUNDED = RatioResult(row=-1, theta=float("inf"), pivot=0.0, ties=0)


def standard_ratio_test(
    beta: np.ndarray,
    alpha: np.ndarray,
    basis: np.ndarray,
    tol_pivot: float,
) -> RatioResult:
    """Minimum-ratio test with lowest-basic-variable-index tie-breaking."""
    positive = alpha > tol_pivot
    if not positive.any():
        return UNBOUNDED
    ratios = np.full(alpha.size, np.inf)
    ratios[positive] = beta[positive] / alpha[positive]
    # Clamp tiny negative ratios from round-off: β is feasible by invariant.
    ratios[positive & (ratios < 0.0)] = 0.0
    theta = float(ratios.min())
    tied = np.nonzero(ratios <= theta * (1.0 + 1e-12) + 1e-300)[0]
    # Bland-compatible tie-break: lowest basic-variable index among the tied.
    p = int(tied[np.argmin(basis[tied])])
    return RatioResult(row=p, theta=theta, pivot=float(alpha[p]), ties=int(tied.size))


def harris_ratio_test(
    beta: np.ndarray,
    alpha: np.ndarray,
    basis: np.ndarray,
    tol_pivot: float,
    feas_tol: float = 1e-7,
) -> RatioResult:
    """Harris two-pass ratio test.

    Pass 1: θ_max = min (β_i + feas_tol) / α_i over admissible rows.
    Pass 2: among rows with β_i / α_i <= θ_max choose the largest |α_i|.
    The step is then re-tightened to that row's true ratio (never negative).
    """
    positive = alpha > tol_pivot
    if not positive.any():
        return UNBOUNDED
    idx = np.nonzero(positive)[0]
    relaxed = (beta[idx] + feas_tol) / alpha[idx]
    theta_max = float(relaxed.min())
    true_ratio = np.maximum(beta[idx] / alpha[idx], 0.0)
    within = idx[true_ratio <= theta_max]
    if within.size == 0:  # numerical corner: fall back to the strict test
        return standard_ratio_test(beta, alpha, basis, tol_pivot)
    p = int(within[np.argmax(np.abs(alpha[within]))])
    theta = float(max(beta[p] / alpha[p], 0.0))
    ties = int(np.count_nonzero(true_ratio <= theta * (1.0 + 1e-12) + 1e-300))
    return RatioResult(row=p, theta=theta, pivot=float(alpha[p]), ties=ties)


def run_ratio_test(
    kind: str,
    beta: np.ndarray,
    alpha: np.ndarray,
    basis: np.ndarray,
    tol_pivot: float,
) -> RatioResult:
    """Dispatch by option name ('standard' | 'harris')."""
    if kind == "harris":
        return harris_ratio_test(beta, alpha, basis, tol_pivot)
    return standard_ratio_test(beta, alpha, basis, tol_pivot)


def bounded_ratios(
    x_b: np.ndarray, delta: np.ndarray, u_basis: np.ndarray, tol
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row blocking steps ``(t_dec, t_inc)`` of the bounded ratio test.

    Each basic moves at rate δ_i per unit step: when δ_i < −tol it blocks
    at its lower bound 0 after t_dec = x_i/(−δ_i), when δ_i > tol and u_i
    is finite at its upper bound after t_inc = (u_i − x_i)/δ_i; otherwise
    the step is +inf.  Negative steps (round-off) clamp to 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_dec = np.where(delta < -tol, x_b / np.maximum(-delta, 1e-300), np.inf)
        inc = (delta > tol) & np.isfinite(u_basis)
        t_inc = np.where(inc, (u_basis - x_b) / np.maximum(delta, 1e-300), np.inf)
    return np.where(t_dec < 0, 0.0, t_dec), np.where(t_inc < 0, 0.0, t_inc)


def dual_ratio_test(
    d: np.ndarray,
    alpha_row: np.ndarray,
    eligible: np.ndarray,
    tol_pivot: float,
    sign: float,
) -> tuple[int, int]:
    """The dual minimum-ratio test over the transformed row α_r = e_pᵀB⁻¹A.

    ``sign`` is −1 when the leaving basic lies below 0 (it must rise) and +1
    when it lies above its upper bound.  An eligible column j can enter when
    sign·α_pj > tol; among those q = argmin max(d_j, 0) / (sign·α_pj), which
    keeps d ≥ 0, with the lowest column index winning ties (anti-cycling).
    Returns (q, ties); q = -1 when no column can enter, so the primal is
    infeasible (the dual is unbounded).
    """
    delta = sign * alpha_row
    candidates = np.nonzero(eligible & (delta > tol_pivot))[0]
    if candidates.size == 0:
        return -1, 0
    ratios = np.maximum(d[candidates], 0.0) / delta[candidates]
    best = float(ratios.min())
    tied = candidates[ratios <= best * (1.0 + 1e-12) + 1e-300]
    return int(tied[0]), int(tied.size)
