"""Declarative method table: every solve method, its factory and its flags.

``repro.solve`` dispatches from this table; capability checks (warm start,
shared simulated device) and their error messages are derived from the
flags instead of being hand-rolled per method, and ``repro.batch`` derives
its ``GPU_METHODS`` / ``WARM_START_METHODS`` sets from the same source so
the three layers cannot drift apart.

The table lives here — below :mod:`repro.solve`, above the solver modules —
so both the façade and the batch layer can import it without a cycle;
solver classes themselves are imported lazily inside each factory.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # avoids the repro.simplex package-import cycle
    from repro.simplex.options import SolverOptions


@dataclasses.dataclass(frozen=True)
class MethodSpec:
    """One row of the method table.

    ``factory(options, device)`` builds a fresh solver; ``device`` is only
    passed through when ``supports_device`` (the façade rejects it
    otherwise, so host factories simply ignore the argument).
    """

    name: str
    factory: Callable[[SolverOptions, Any], Any]
    #: Honors ``solve(..., initial_basis=...)`` (drives chain warm starts).
    supports_warm_start: bool = False
    #: Runs on the simulated device and accepts ``solve(..., device=...)``
    #: (drives batch device sharing); its device work goes through
    #: :mod:`repro.gpu.plan` sections, so it honors ``SolverOptions.fusion``.
    supports_device: bool = False
    #: Honors ``SolverOptions.precision="mixed"`` — fp32 device compute
    #: with fp64 iterative-refinement correction at extraction.
    supports_mixed_precision: bool = False


def _tableau(options: SolverOptions, device: Any):
    from repro.simplex.tableau import TableauSimplexSolver

    return TableauSimplexSolver(options)


def _revised(options: SolverOptions, device: Any):
    from repro.simplex.revised_cpu import RevisedSimplexSolver

    return RevisedSimplexSolver(options)


def _revised_bounded(options: SolverOptions, device: Any):
    from repro.simplex.revised_cpu import BoundedRevisedSimplexSolver

    return BoundedRevisedSimplexSolver(options)


def _dual(options: SolverOptions, device: Any):
    from repro.simplex.dual import DualSimplexSolver

    return DualSimplexSolver(options)


def _revised_sparse(options: SolverOptions, device: Any):
    from repro.simplex.revised_cpu import SparseRevisedSimplexSolver

    return SparseRevisedSimplexSolver(options)


def _gpu_revised(options: SolverOptions, device: Any):
    from repro.core.gpu_revised_simplex import GpuRevisedSimplex

    return GpuRevisedSimplex(options=options, device=device)


def _gpu_revised_bounded(options: SolverOptions, device: Any):
    from repro.core.gpu_revised_simplex import GpuBoundedRevisedSimplex

    return GpuBoundedRevisedSimplex(options=options, device=device)


def _gpu_revised_sparse(options: SolverOptions, device: Any):
    # gpu-revised under its second name; the name picks the row whose flags
    # the solver checks
    solver = _gpu_revised(options, device)
    solver.name = "gpu-revised-sparse"
    return solver


def _gpu_tableau(options: SolverOptions, device: Any):
    from repro.core.gpu_tableau_simplex import GpuTableauSimplex

    return GpuTableauSimplex(options=options, device=device)


def _pdlp(options: SolverOptions, device: Any):
    from repro.firstorder.pdlp import PdlpSolver

    return PdlpSolver(options)


def _gpu_pdlp(options: SolverOptions, device: Any):
    from repro.firstorder.pdlp import GpuPdlpSolver

    return GpuPdlpSolver(options=options, device=device)


METHODS: "dict[str, MethodSpec]" = {
    spec.name: spec
    for spec in (
        MethodSpec("tableau", _tableau),
        MethodSpec("revised", _revised, supports_warm_start=True),
        MethodSpec("revised-bounded", _revised_bounded),
        MethodSpec("revised-sparse", _revised_sparse, supports_warm_start=True),
        MethodSpec("dual", _dual, supports_warm_start=True),
        MethodSpec(
            "gpu-revised", _gpu_revised,
            supports_warm_start=True, supports_device=True,
            supports_mixed_precision=True,
        ),
        # A second name for gpu-revised, which places sparse input as CSC
        # itself.  It stays only because the e2e benchmark's sparse-lu
        # workload calls it; the benchmark change that moves sparse-lu onto
        # gpu-revised deletes this row.  Its flags are the ones the name
        # always had (no mixed precision).
        MethodSpec(
            "gpu-revised-sparse", _gpu_revised_sparse,
            supports_warm_start=True, supports_device=True,
        ),
        MethodSpec(
            "gpu-revised-bounded", _gpu_revised_bounded, supports_device=True,
        ),
        MethodSpec(
            "gpu-tableau", _gpu_tableau,
            supports_device=True, supports_mixed_precision=True,
        ),
        MethodSpec("pdlp", _pdlp),
        MethodSpec("gpu-pdlp", _gpu_pdlp, supports_device=True),
    )
}


def warm_start_methods() -> frozenset:
    """Method names that honor ``initial_basis`` (chain-capable)."""
    return frozenset(n for n, s in METHODS.items() if s.supports_warm_start)


def device_methods() -> frozenset:
    """Method names that run on (and can share) the simulated device."""
    return frozenset(n for n, s in METHODS.items() if s.supports_device)


def mixed_precision_methods() -> frozenset:
    """Method names that honor ``SolverOptions.precision="mixed"``."""
    return frozenset(
        n for n, s in METHODS.items() if s.supports_mixed_precision
    )
