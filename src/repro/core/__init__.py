"""The paper's contribution: simplex solvers on the simulated GPU.

- :mod:`~repro.core.gpu_kernels`         — the solver-specific device
  kernels (column extraction, ratio-test map, eta construction, β update,
  masked pricing) layered over :mod:`repro.gpu`.
- :mod:`~repro.core.gpu_revised_simplex` — **GpuRevisedSimplex**, the
  paper's solver and the one device revised-simplex loop: device-resident
  B⁻¹ (the explicit-inverse basis strategy), BLAS-2 iteration (BTRAN/
  pricing/FTRAN as GEMV, rank-1 GER basis update), dense or sparse
  constraint matrix, fp32/fp64.
- :mod:`~repro.core.gpu_bounded_simplex` — **GpuBoundedRevisedSimplex**,
  the same loop with the boxed-bounds strategy (finite upper bounds,
  bound flips), used by the A5 ablation.
- :mod:`~repro.core.gpu_sparse_simplex`  — **GpuSparseRevisedSimplex**,
  the same loop with the device LU + eta file basis strategy (CSC data,
  SpMVᵀ pricing, sparse factors).
- :mod:`~repro.core.gpu_tableau_simplex` — **GpuTableauSimplex**, the
  full-tableau design point (O(mn) GER per iteration, maximal parallelism)
  used by the A3 ablation.
"""

from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.core.gpu_tableau_simplex import GpuTableauSimplex

__all__ = ["GpuRevisedSimplex", "GpuTableauSimplex"]
