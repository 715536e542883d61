"""Bounded-variable revised simplex on the simulated GPU.

The device port of :class:`~repro.simplex.bounded.BoundedRevisedSimplexSolver`:
the device loop of :mod:`repro.core.gpu_revised_simplex` with the explicit
B⁻¹ and the :class:`BoxedBounds` strategy.  Upper bounds live in device
memory alongside the data, the pricing map is a signed masked arg-min
(σ·d with σ = ±1 by resting bound), the ratio test is the three-way
bounded map kernel, and a bound flip costs a single AXPY-class kernel — no
basis update, no GER, no eta, and no change to π.

Compared to ``gpu-revised`` on a fully boxed problem, this solver keeps the
basis at m instead of m + #bounds; A5 measures the effect.

The ratio readback also brings to_upper[p], and the basis swap adds the σ
signs and the u_B entry to the stores of the update launch.  The
flip-or-pivot choice needs θ on the host, so a bound flip runs the whole
ratio test, tie-break kernel included; fused and for m ≤ 2·DEFAULT_BLOCK
that is still one launch.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.errors import SolverError
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import SolveResult
from repro.simplex.options import SolverOptions


class BoxedBounds:
    """Bounds strategy: finite upper bounds handled natively.

    The state gains σ (−1 for a nonbasic at its upper bound) and u_B on
    the device, ``to_upper`` for the ratio map, and the host's ``u_host``,
    ``at_upper`` and flip count.
    """

    range_bounds_as_rows = False
    #: B⁻¹b is not x_B while nonbasics rest at upper bounds, so a host
    #: rebuild could not refresh β: the boxed solver keeps its B⁻¹ for the
    #: whole solve, and ``refactor_period`` does not apply.
    rebuilds_beta = False

    def place(self, st) -> None:
        dev, dtype = st.dev, st.dtype
        m, n = st.prep.m, st.prep.n_total
        st.u_host = np.concatenate(
            [st.prep.std.upper_bounds(), np.full(m, np.inf)]
        )
        st.at_upper = np.zeros(n, dtype=bool)
        st.flips = 0
        st.sigma = dev.to_device(np.ones(n), dtype)
        st.u_basis = dev.to_device(np.full(m, np.inf), dtype)

    def alloc(self, st) -> None:
        st.to_upper = st.dev.zeros(st.prep.m, st.dtype)

    def upload_basis(self, st) -> None:
        st.u_basis.copy_from_host(st.u_host[st.basis].astype(st.dtype))

    def price_map(self, st) -> None:
        K.masked_signed_for_min(st.dev, st.d, st.mask, st.sigma, st.tmp_n)

    def ratio_map(self, st, tol_piv: float) -> None:
        K.bounded_ratio_kernel(
            st.dev, st.beta, st.alpha, st.u_basis, st.sigma,
            st.choice, tol_piv, st.ratios, st.to_upper,
        )

    def gathered(self, st) -> tuple[DeviceArray, ...]:
        return (st.alpha, st.to_upper)

    def step(self, st, q: int, signed_dq: float, theta: float):
        """Un-sign d_q, and turn the step into a bound flip when q reaches
        its own upper bound first."""
        sigma = -1.0 if st.at_upper[q] else 1.0
        u_q = float(st.u_host[q])
        flip = bool(np.isfinite(u_q) and u_q <= theta * (1.0 + 1e-12))
        return sigma * signed_dq, sigma, u_q if flip else theta, flip

    def flip(self, st, q: int, sigma: float, theta: float) -> None:
        """Bound flip of nonbasic q: β moves, σ_q's sign is a store."""
        st.at_upper[q] = ~st.at_upper[q]
        st.flips += 1
        sign = K.ScalarStores(((st.sigma, q, -1.0 if st.at_upper[q] else 1.0),))
        K.bounded_update_beta_kernel(
            st.dev, st.beta, st.alpha, -sigma * theta, -1, 0.0, sign
        )

    def pivot(self, st, p, q, c_q, theta, sigma, gathered) -> None:
        x_q_new = float(st.u_host[q]) - theta if sigma < 0 else theta
        swap = self._swap(st, p, q, c_q, leaves_at_upper=gathered[1] != 0.0)
        K.bounded_update_beta_kernel(
            st.dev, st.beta, st.alpha, -sigma * theta, p, x_q_new, swap
        )

    def drive_swap(self, st, p: int, j: int, pivot: float) -> K.ScalarStores:
        # degenerate swap: no value moves; the new basic takes its current
        # resting value, stored with the swap by the basis update's launch
        value = float(st.u_host[j]) if st.at_upper[j] else 0.0
        swap = self._swap(st, p, j, 0.0, leaves_at_upper=False)
        return swap + K.ScalarStores(((st.beta, p, value),))

    @staticmethod
    def _swap(st, p: int, q: int, c_q: float,
              leaves_at_upper: bool) -> K.ScalarStores:
        """Basis exchange (see :func:`~repro.core.gpu_kernels.basis_swap`)
        plus the bounded extras: σ signs of the entering and leaving
        variables and the u_B entry of row p."""
        n = st.prep.n_total
        leaving = int(st.basis[p])
        stores = K.basis_swap(st, p, q, c_q, n)
        extra = []
        if q < n:
            st.at_upper[q] = False
            extra.append((st.sigma, q, 1.0))
        if leaving < n:
            goes_up = leaves_at_upper and np.isfinite(st.u_host[leaving])
            st.at_upper[leaving] = goes_up
            extra.append((st.sigma, leaving, -1.0 if goes_up else 1.0))
        # +inf is fine in fp32
        extra.append((st.u_basis, p, float(st.u_host[q])))
        return stores + K.ScalarStores(tuple(extra))

    def extras(self, st, result: SolveResult) -> None:
        result.extra["bound_flips"] = st.flips

    def extract(self, backend, result: SolveResult) -> None:
        st = backend._st
        prep = backend.prep
        n = prep.n_total
        x_b = st.beta.copy_to_host().astype(np.float64)
        x_std = np.zeros(n)
        x_std[st.at_upper] = st.u_host[:n][st.at_upper]
        real = st.basis < n
        x_std[st.basis[real]] = x_b[real]
        z_std = float(prep.std.c @ x_std)
        result.objective = prep.std.original_objective(z_std)
        result.x = prep.std.recover_x(x_std)
        result.residuals = SolveResult.compute_residuals(
            prep.std.a, prep.std.b, x_std
        )
        result.extra["basis"] = st.basis.copy()
        result.extra["x_std"] = x_std
        result.extra["at_upper"] = st.at_upper.copy()


class GpuBoundedRevisedSimplex(GpuRevisedSimplex):
    """Two-phase bounded-variable revised simplex on the simulated device."""

    name = "gpu-revised-bounded"
    accepts_warm_start = False
    bounds = BoxedBounds()

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
        if self.options.scale:
            raise SolverError("the bounded solver does not combine with scaling")
