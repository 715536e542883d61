"""CPU simplex baselines and the shared algorithmic toolbox.

- :mod:`~repro.simplex.options`     — :class:`SolverOptions` for every solver.
- :mod:`~repro.simplex.pricing`     — entering-variable rules (Dantzig,
  Bland, hybrid stall-escape, Devex, exact steepest edge).
- :mod:`~repro.simplex.ratio`       — the leaving-variable ratio test
  (minimum ratio, lowest-index ties), its bounded and dual forms.
- :mod:`~repro.simplex.basis`       — basis-inverse representations
  (explicit B⁻¹ with eta updates, product-form-of-inverse eta file).
- :mod:`~repro.simplex.revised`     — the two-phase primal simplex,
  written once for a host or a device placement.
- :mod:`~repro.simplex.tableau`     — its full-tableau host placement.
- :mod:`~repro.simplex.revised_cpu` — its host placement: ``revised`` (the
  paper's sequential comparator), ``revised-sparse`` and ``dual``.
"""

from repro.simplex.options import SolverOptions
from repro.simplex.tableau import TableauSimplexSolver
from repro.simplex.revised_cpu import RevisedSimplexSolver

__all__ = ["SolverOptions", "TableauSimplexSolver", "RevisedSimplexSolver"]
