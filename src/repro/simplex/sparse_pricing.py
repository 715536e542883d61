"""Sectioned (partial) pricing over a CSC constraint matrix.

Full Dantzig pricing computes every reduced cost every iteration — 2·nnz
flops that dominate sparse revised simplex.  Partial pricing splits the
columns into contiguous *sections* and scans them round-robin: reduced
costs are computed one section at a time (from the section's CSC slice, so
the cost scales with the section's nnz), and the first section containing
an attractive column yields the entering variable.  Optimality is only
declared after a full clean cycle over every section, so the rule is exact
— it changes which improving column is chosen, never whether one exists.

Three modes mirror :mod:`repro.simplex.pricing`:

- ``dantzig`` — most negative reduced cost within the first section that
  has one (classic partial pricing);
- ``bland``   — the scan always restarts at section 0 and returns the
  lowest-index eligible column, which is *global* Bland's rule
  (anti-cycling guarantee preserved);
- ``hybrid``  — partial Dantzig with the stall-triggered Bland fallback
  of :class:`~repro.simplex.pricing.StallSwitch`, which this class is.

Modeled CPU time is charged per section actually scanned, so the recorder
sees the savings partial pricing exists to provide.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.cpu_model import CpuCostRecorder
from repro.perfmodel.ops import OpCost
from repro.simplex.pricing import StallSwitch
from repro.sparse.base import segment_sums
from repro.sparse.csc import CscMatrix

_INDEX_BYTES = 4

#: Target number of sections (columns are split evenly; small problems
#: collapse to a single section, i.e. plain full pricing).
_TARGET_SECTIONS = 8

#: Minimum columns per section — below this, more sections only add
#: per-scan overhead without saving meaningful work.
_MIN_SECTION = 32


class SparsePartialPricing(StallSwitch):
    """Round-robin sectioned pricing with Dantzig/Bland/hybrid selection."""

    def __init__(
        self,
        a: CscMatrix,
        mode: str,
        stall_window: int,
        recorder: CpuCostRecorder | None = None,
        dtype=np.float64,
    ):
        self.a = a
        self.recorder = recorder
        self._w = np.dtype(dtype).itemsize
        n = a.shape[1]
        n_sections = max(1, min(_TARGET_SECTIONS, n // _MIN_SECTION))
        self._bounds = np.linspace(0, n, n_sections + 1).astype(np.int64)
        self.n_sections = n_sections
        super().__init__(mode, stall_window)

    def reset(self, n: int = 0) -> None:
        super().reset(n)
        self._cursor = 0

    # -- section scan ------------------------------------------------------

    def _section_reduced_costs(
        self, s: int, pi: np.ndarray, c: np.ndarray, at_upper: "np.ndarray | None"
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """(section start, reduced costs d of the section's columns, and
        their scores σ_j·d_j: d negated where ``at_upper`` holds)."""
        s0, s1 = int(self._bounds[s]), int(self._bounds[s + 1])
        lo, hi = int(self.a.indptr[s0]), int(self.a.indptr[s1])
        prods = self.a.data[lo:hi] * pi[self.a.indices[lo:hi]]
        d = c[s0:s1] - segment_sums(prods, self.a.indptr[s0 : s1 + 1] - lo)
        if self.recorder is not None:
            sec_nnz = hi - lo
            w = self._w
            self.recorder.charge(
                "pricing",
                OpCost(
                    flops=2.0 * sec_nnz,
                    bytes_read=sec_nnz * (w + _INDEX_BYTES) + sec_nnz * w,
                    bytes_written=(s1 - s0) * w,
                ),
            )
        score = d if at_upper is None else np.where(at_upper[s0:s1], -d, d)
        return s0, d, score

    def select(
        self,
        pi: np.ndarray,
        c: np.ndarray,
        in_basis: np.ndarray,
        tol: float,
        at_upper: "np.ndarray | None" = None,
    ) -> tuple[int, float] | None:
        """Entering column and its reduced cost, or None at optimality.

        ``c`` and ``in_basis`` are indexed over the real columns (length
        >= n); ``pi`` are the simplex multipliers from BTRAN.  With boxed
        bounds ``at_upper`` marks the columns resting at their upper bound
        and the scan scores σ_j·d_j; the reduced cost returned is d_q.
        """
        if self.using_bland:
            # global Bland: lowest eligible index, so always scan from 0
            for s in range(self.n_sections):
                s0, d, score = self._section_reduced_costs(s, pi, c, at_upper)
                elig = np.nonzero((score < -tol) & ~in_basis[s0 : s0 + d.size])[0]
                if elig.size:
                    q = s0 + int(elig[0])
                    return q, float(d[elig[0]])
            return None
        for offset in range(self.n_sections):
            s = (self._cursor + offset) % self.n_sections
            s0, d, score = self._section_reduced_costs(s, pi, c, at_upper)
            masked = np.where(in_basis[s0 : s0 + d.size], 0.0, score)
            j = int(np.argmin(masked)) if masked.size else 0
            if masked.size and masked[j] < -tol:
                self._cursor = s  # stay on a productive section
                return s0 + j, float(d[j])
        return None
