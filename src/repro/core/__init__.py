"""The paper's contribution: simplex solvers on the simulated GPU.

- :mod:`~repro.core.gpu_kernels`         — the solver-specific device
  kernels (column extraction, ratio-test map, eta construction, β update,
  masked pricing) layered over :mod:`repro.gpu`.
- :mod:`~repro.core.gpu_revised_simplex` — the device placement of the
  one primal simplex loop (:mod:`repro.simplex.revised`): device-resident
  B⁻¹ or sparse LU factors, BLAS-2 iteration (pricing/FTRAN as GEMV or
  SpMV, rank-1 GER basis update), dense or sparse constraint matrix,
  fp32/fp64, standard or boxed bounds — **GpuRevisedSimplex** (the
  paper's solver), **GpuBoundedRevisedSimplex** and
  **GpuSparseRevisedSimplex**.
- :mod:`~repro.core.gpu_tableau_simplex` — **GpuTableauSimplex**, the
  full-tableau placement of the same loop (O(mn) GER per iteration,
  maximal parallelism) used by the A3 ablation.
"""

from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.core.gpu_tableau_simplex import GpuTableauSimplex

__all__ = ["GpuRevisedSimplex", "GpuTableauSimplex"]
