"""Problem scaling for numerical stability.

Simplex pivoting degrades when coefficient magnitudes span many orders; the
standard cure is geometric-mean equilibration: iteratively scale each row and
column by the inverse geometric mean of its nonzero magnitudes, optionally
rounding scale factors to powers of two so scaling is exact in floating
point.

Scaling follows the data: :func:`needs_scaling` decides from the LP's own
constraint coefficients, and every solver's ``prepare`` then equilibrates the
standard-form data and unscales the solution transparently.  The limit sits
between the spreads of every benchmarked input (at most 4.5e3) and the first
spread at which fp32 pivoting returns wrong optima (about 2.3e4).

Scaled data:  ``A' = R A C``, ``b' = R b``, ``c' = C c`` with diagonal R, C.
A standard-form solution x' of the scaled problem maps back as ``x = C x'``
and the objective is unchanged (``c'ᵀx' = cᵀx``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.sparse.base import SparseMatrix
from repro.sparse.coo import CooMatrix

#: Coefficient spread above which :func:`needs_scaling` holds.
_SPREAD_LIMIT = 1e4


@dataclasses.dataclass
class ScalingResult:
    """Row/column scale factors and the scaled standard-form data."""

    row_scale: np.ndarray
    col_scale: np.ndarray
    a: "np.ndarray | SparseMatrix"
    b: np.ndarray
    c: np.ndarray

    def unscale_x(self, x_scaled: np.ndarray) -> np.ndarray:
        """Map a scaled-space solution back to the unscaled space."""
        return np.asarray(x_scaled, dtype=np.float64) * self.col_scale

    def unscale_duals(self, y_scaled: np.ndarray) -> np.ndarray:
        """Map scaled-space row duals back (y = R y')."""
        return np.asarray(y_scaled, dtype=np.float64) * self.row_scale


def _round_pow2(scale: np.ndarray) -> np.ndarray:
    """Round positive finite scale factors to the nearest power of two.

    Non-finite or non-positive entries come out as 1.0 — a degenerate
    factor must never poison the scaled data.
    """
    out = np.ones_like(scale)
    usable = (scale > 0) & np.isfinite(scale)
    out[usable] = np.exp2(np.rint(np.log2(scale[usable])))
    return out


def _inv_geomean(gmin: float, gmax: float) -> float:
    """``1 / sqrt(gmin * gmax)`` computed in log space.

    The naive product underflows to 0.0 (or overflows to inf) once the
    magnitudes pass ~1e-154 (~1e154), turning the factor into inf/0 and the
    scaled matrix into NaNs.  ``exp2`` of the averaged exponents has no
    intermediate that can leave the float range for any positive inputs.
    """
    factor = float(np.exp2(-0.5 * (np.log2(gmin) + np.log2(gmax))))
    if not np.isfinite(factor) or factor <= 0.0:
        return 1.0
    return factor


def geometric_mean_scaling(
    a: "np.ndarray | SparseMatrix",
    b: np.ndarray,
    c: np.ndarray,
    *,
    max_passes: int = 10,
    tol: float = 1.1,
    pow2: bool = True,
) -> ScalingResult:
    """Iterative geometric-mean row/column equilibration.

    Stops when every row's and column's magnitude spread
    ``sqrt(max|a| / min|a|)`` falls below ``tol`` or after ``max_passes``.
    With ``pow2=True`` (default) factors are powers of two, making the
    scaling lossless in binary floating point.
    """
    dense = a.to_dense() if isinstance(a, SparseMatrix) else np.asarray(a, dtype=np.float64)
    m, n = dense.shape
    work = dense.copy()
    row_scale = np.ones(m)
    col_scale = np.ones(n)

    for _ in range(max_passes):
        mags = np.abs(work)
        nz = mags > 0

        spread = 1.0
        # rows
        r = np.ones(m)
        for i in range(m):
            vals = mags[i, nz[i]]
            if vals.size:
                gmin, gmax = vals.min(), vals.max()
                spread = max(spread, np.sqrt(gmax) / np.sqrt(gmin))
                r[i] = _inv_geomean(gmin, gmax)
        if pow2:
            r = _round_pow2(r)
        work *= r[:, None]
        row_scale *= r

        mags = np.abs(work)
        nz = mags > 0
        # columns
        s = np.ones(n)
        for j in range(n):
            vals = mags[nz[:, j], j]
            if vals.size:
                gmin, gmax = vals.min(), vals.max()
                spread = max(spread, np.sqrt(gmax) / np.sqrt(gmin))
                s[j] = _inv_geomean(gmin, gmax)
        if pow2:
            s = _round_pow2(s)
        work *= s[None, :]
        col_scale *= s

        if spread <= tol:
            break

    b_scaled = np.asarray(b, dtype=np.float64) * row_scale
    c_scaled = np.asarray(c, dtype=np.float64) * col_scale

    a_scaled: "np.ndarray | SparseMatrix"
    if isinstance(a, SparseMatrix):
        coo = a.tocoo() if hasattr(a, "tocoo") else a
        vals = coo.val * row_scale[coo.row] * col_scale[coo.col]
        a_scaled = CooMatrix(a.shape, coo.row, coo.col, vals).tocsc()
    else:
        a_scaled = work

    return ScalingResult(
        row_scale=row_scale, col_scale=col_scale, a=a_scaled, b=b_scaled, c=c_scaled
    )


def scaling_spread(a: "np.ndarray | SparseMatrix") -> float:
    """Ratio max|aᵢⱼ| / min|aᵢⱼ| over nonzeros — the badness metric scaling
    reduces; 1.0 for an empty or constant-magnitude matrix.  Sparse input
    is read from its stored values, never densified."""
    if isinstance(a, SparseMatrix):
        values = a.val if isinstance(a, CooMatrix) else a.data
    else:
        values = np.asarray(a)
    mags = np.abs(values[values != 0])
    if mags.size == 0:
        return 1.0
    return float(mags.max() / mags.min())


def needs_scaling(a: "np.ndarray | SparseMatrix") -> bool:
    """True when the constraint matrix ``a`` spreads its nonzero magnitudes
    past the limit at which reduced-precision pivoting stops being
    trustworthy: the solvers then equilibrate it."""
    return scaling_spread(a) > _SPREAD_LIMIT
