"""First-order LP solvers: restarted, preconditioned PDHG (PDLP-style).

The non-simplex wing of the engine, written once for both machines.
``repro.firstorder.pdlp`` holds the one PDHG loop and the two backends
registered as ``"pdlp"`` and ``"gpu-pdlp"``, which differ only in their
placement — where the vectors live (``repro.firstorder.placement``: NumPy
arrays on the modeled CPU, or device arrays moved by kernels).
``repro.firstorder.pdhg`` holds the shared restart/termination logic and
``repro.firstorder.rescale`` the diagonal preconditioning the loop
iterates on.
"""

from repro.firstorder.pdlp import GpuPdlpSolver, PdlpSolver

__all__ = ["PdlpSolver", "GpuPdlpSolver"]
