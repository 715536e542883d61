"""Entering-variable (pricing) rules.

A pricing rule looks at the reduced costs of the *eligible* columns and
picks the entering variable — the decision that dominates simplex iteration
counts.  Rules implemented:

- **Dantzig**: most negative reduced cost.  Fast convergence in practice,
  can cycle on degenerate problems.
- **Bland**: lowest-index column with negative reduced cost.  Provably
  anti-cycling, often slow.
- **Hybrid**: Dantzig until the objective stalls for ``stall_window``
  iterations, then Bland until progress resumes — the practical compromise.
  :class:`StallSwitch` runs this choice (and the plain Dantzig and Bland
  modes) for every simplex method.
- **Devex** (``tableau`` only): Dantzig on reference-framework-weighted
  reduced costs ``d_j² / w_j`` with the classic multiplicative weight update.
- **Steepest edge** (``tableau`` only): exact edge norms from the updated
  tableau columns, ``d_j² / (1 + ‖ᾱ_j‖²)``.

All rules receive the full reduced-cost vector plus an eligibility mask and
return a *global column index* (or ``None`` at optimality).  Ties break to
the lowest index everywhere, keeping every solver in the library pivot-for-
pivot deterministic.  The simplex loop reads ``active``, ``label``,
``activations`` and ``notify`` of the :class:`StallSwitch` or tableau rule
it holds.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import SolverError


class PricingRule(abc.ABC):
    """Stateful entering-variable rule over a fixed column set."""

    #: Rules that need the updated tableau column (ᾱ) per pivot.
    needs_tableau: bool = False

    #: Dantzig→Bland switches: only a :class:`StallSwitch` makes any.
    activations = 0

    @property
    def active(self) -> "PricingRule":
        """The rule that selects now: the rule itself."""
        return self

    def notify(self, improved: bool) -> None:
        """Account one pivot; a fixed rule ignores it."""

    @abc.abstractmethod
    def select(self, d: np.ndarray, eligible: np.ndarray, tol: float) -> int | None:
        """Pick the entering column.

        Parameters
        ----------
        d:
            Reduced costs for every column (basic columns included; they are
            excluded via ``eligible``).
        eligible:
            Boolean mask of columns allowed to enter.
        tol:
            Optimality tolerance: a column qualifies when ``d_j < -tol``.

        Returns the global column index, or ``None`` when no column
        qualifies (current basis optimal).
        """

    def reset(self, n_cols: int) -> None:
        """Re-initialise any per-column state for a phase with n columns."""


class DantzigRule(PricingRule):
    """Most negative reduced cost, lowest index on ties."""

    def select(self, d: np.ndarray, eligible: np.ndarray, tol: float) -> int | None:
        masked = np.where(eligible, d, np.inf)
        q = int(np.argmin(masked))
        return q if masked[q] < -tol else None


class BlandRule(PricingRule):
    """Lowest-index negative reduced cost (anti-cycling)."""

    def select(self, d: np.ndarray, eligible: np.ndarray, tol: float) -> int | None:
        hits = np.nonzero(eligible & (d < -tol))[0]
        return int(hits[0]) if hits.size else None


class StallSwitch:
    """The hybrid rule's Dantzig ↔ Bland switch, written once for every
    simplex method.

    ``mode`` is the pricing option: ``"bland"`` stays on Bland and
    ``"dantzig"`` on Dantzig.  ``"hybrid"`` counts consecutive
    non-improving pivots; at ``stall_window`` it switches to Bland
    (guaranteeing escape from any cycle), and back to Dantzig after
    ``recovery`` improving pivots.
    """

    def __init__(self, mode: str = "hybrid", stall_window: int = 40,
                 recovery: int = 5):
        self.mode = mode
        self.stall_window = stall_window
        self.recovery = recovery
        self.reset()

    def reset(self, n_cols: int = 0) -> None:
        # Clears the activation counter too: callers flush per-phase counts
        # into their stats before resetting, and a stale counter would be
        # double-counted into the next phase's total.
        self.using_bland = self.mode == "bland"
        self._stalled = 0
        self._improved_streak = 0
        #: Number of Dantzig→Bland switches (reported as bland_activations).
        self.activations = 0

    @property
    def label(self) -> str:
        """The rule in effect, as trace records name it."""
        if self.mode == "hybrid":
            return "hybrid:bland" if self.using_bland else "hybrid:dantzig"
        return self.mode

    @property
    def active(self) -> PricingRule:
        """The rule that selects now: Dantzig, or Bland while switched."""
        return _BLAND if self.using_bland else _DANTZIG

    def horizon(self) -> float:
        """The fewest pivots after which the rule in effect may change:
        the non-improving ones left before Dantzig stalls, or the improving
        ones left before Bland recovers (infinite unless hybrid)."""
        if self.mode != "hybrid":
            return math.inf
        if self.using_bland:
            return self.recovery - self._improved_streak
        return self.stall_window - self._stalled

    def notify(self, improved: bool) -> None:
        """Account one pivot: whether it strictly improved the objective."""
        if self.mode != "hybrid":
            return
        if improved:
            self._stalled = 0
            if self.using_bland:
                self._improved_streak += 1
                if self._improved_streak >= self.recovery:
                    self.using_bland = False
                    self._improved_streak = 0
        else:
            self._stalled += 1
            self._improved_streak = 0
            if not self.using_bland and self._stalled >= self.stall_window:
                self.using_bland = True
                self.activations += 1
                self._stalled = 0


_DANTZIG, _BLAND = DantzigRule(), BlandRule()


class DevexRule(PricingRule):
    """Devex pricing (Harris 1973) with the multiplicative weight update.

    Approximates steepest-edge using reference weights ``w_j`` updated from
    the pivot row only — no extra BTRANs.  Requires the updated pivot row
    each pivot, so only the ``tableau`` method offers it.
    """

    needs_tableau = True
    label = "devex"

    def __init__(self):
        self._weights: np.ndarray | None = None

    def reset(self, n_cols: int) -> None:
        self._weights = np.ones(n_cols)

    def select(self, d: np.ndarray, eligible: np.ndarray, tol: float) -> int | None:
        if self._weights is None:
            self.reset(d.size)
        elif self._weights.size != d.size:
            # A silent re-init here would discard the learned reference
            # weights mid-solve.  Column counts only legitimately change at
            # a phase boundary, where the solver calls reset() explicitly.
            raise SolverError(
                f"devex weights sized {self._weights.size} priced against "
                f"{d.size} columns; call reset() at phase transitions"
            )
        negative = eligible & (d < -tol)
        if not negative.any():
            return None
        score = np.where(negative, d * d / self._weights, -np.inf)
        return int(np.argmax(score))

    def pivot(self, q: int, alpha_row: np.ndarray) -> None:
        """Update the weights for a pivot on column ``q`` whose pre-pivot
        row ᾱ_{p,·} (over all columns) is ``alpha_row``."""
        if self._weights is None:
            return
        w_q = self._weights[q]
        a_pq = alpha_row[q]
        if abs(a_pq) < 1e-300:
            return
        ratio = (alpha_row / a_pq) ** 2 * w_q
        self._weights = np.maximum(self._weights, ratio)
        self._weights[q] = max(w_q / (a_pq * a_pq), 1.0)


class SteepestEdgeRule(PricingRule):
    """Exact steepest edge from the updated tableau columns.

    Picks ``argmax d_j² / γ_j`` with ``γ_j = 1 + ‖ᾱ_j‖²``; the tableau
    solver hands the full updated tableau in via :meth:`set_tableau`.
    """

    needs_tableau = True
    label = "steepest-edge"

    def __init__(self):
        self._gamma: np.ndarray | None = None

    def reset(self, n_cols: int) -> None:
        self._gamma = None

    def set_tableau(self, tableau: np.ndarray) -> None:
        """Recompute γ from the current updated tableau (m × n)."""
        self._gamma = 1.0 + np.sum(tableau * tableau, axis=0)

    def select(self, d: np.ndarray, eligible: np.ndarray, tol: float) -> int | None:
        if self._gamma is None:
            raise SolverError("steepest-edge rule used without tableau data")
        negative = eligible & (d < -tol)
        if not negative.any():
            return None
        score = np.where(negative, d * d / self._gamma, -np.inf)
        return int(np.argmax(score))
