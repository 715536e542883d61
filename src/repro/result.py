"""Solve-result container shared by every solver in the library.

A :class:`SolveResult` carries the solution in the *original* variable space
of the user's :class:`~repro.lp.problem.LPProblem`, together with solver
diagnostics: iteration counts per phase, modeled machine time, residuals and
(for the GPU solver) a per-kernel time breakdown.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.status import SolveStatus


@dataclasses.dataclass
class IterationStats:
    """Per-phase iteration accounting for a two-phase simplex run."""

    phase1_iterations: int = 0
    phase2_iterations: int = 0
    #: Steps of length θ <= ``tol_zero`` (pivots and bound flips), the same
    #: test in every simplex method.
    degenerate_steps: int = 0
    bland_activations: int = 0
    refactorizations: int = 0

    @property
    def total_iterations(self) -> int:
        return self.phase1_iterations + self.phase2_iterations


@dataclasses.dataclass
class TimingStats:
    """Machine-time accounting for one solve.

    ``modeled_seconds`` is the analytic cost-model time of the machine the
    solver ran on (simulated GPU device time, or modeled 2009-era CPU time
    for the baselines); ``wall_seconds`` is the actual Python wall-clock of
    the run, which is only meaningful for relative measurements on this host.
    ``kernel_breakdown`` maps kernel/operation names to modeled seconds.
    """

    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0
    transfer_seconds: float = 0.0
    kernel_breakdown: dict[str, float] = dataclasses.field(default_factory=dict)

    def breakdown_fractions(self) -> dict[str, float]:
        """Return the kernel breakdown normalised to fractions of the total."""
        total = sum(self.kernel_breakdown.values())
        if total <= 0.0:
            return {k: 0.0 for k in self.kernel_breakdown}
        return {k: v / total for k, v in self.kernel_breakdown.items()}


@dataclasses.dataclass
class SolveResult:
    """Outcome of solving an LP.

    Attributes
    ----------
    status:
        Termination status (optimal / infeasible / unbounded / ...).
    objective:
        Objective value of the returned point in the original problem's
        orientation (i.e. already negated back for maximisation problems).
        ``nan`` unless :attr:`status` is ``OPTIMAL``.
    x:
        Primal solution in the original variable space, or ``None`` when no
        feasible point is available.
    iterations:
        Per-phase iteration statistics.
    timing:
        Machine-time accounting (see :class:`TimingStats`).
    residuals:
        Accuracy certificate of the returned point — keys
        ``primal_infeasibility`` (max constraint violation),
        ``bound_infeasibility`` (max variable-bound violation).
    solver:
        Name of the solver that produced this result.
    extra:
        Solver-specific extras (e.g. basis indices, phase-1 objective).
    trace:
        Iteration-level :class:`~repro.trace.SolveTrace` when the solve ran
        with ``SolverOptions(trace=True)``; ``None`` otherwise.
    """

    status: SolveStatus
    objective: float = float("nan")
    x: np.ndarray | None = None
    iterations: IterationStats = dataclasses.field(default_factory=IterationStats)
    timing: TimingStats = dataclasses.field(default_factory=TimingStats)
    residuals: dict[str, float] = dataclasses.field(default_factory=dict)
    solver: str = ""
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)
    trace: Any | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def summary(self) -> str:
        """One-line human-readable summary used by examples and the CLI."""
        parts = [f"status={self.status.value}", f"solver={self.solver or '?'}"]
        if self.is_optimal:
            parts.append(f"objective={self.objective:.6g}")
        parts.append(
            "iters={}/{}".format(
                self.iterations.phase1_iterations, self.iterations.phase2_iterations
            )
        )
        if self.timing.modeled_seconds:
            parts.append(f"t_model={self.timing.modeled_seconds * 1e3:.3f}ms")
        if self.residuals:
            pinf = self.residuals.get("primal_infeasibility", float("nan"))
            parts.append(f"pinf={pinf:.2e}")
        return " ".join(parts)

    @staticmethod
    def compute_residuals(
        a_eq: np.ndarray | Any,
        b_eq: np.ndarray,
        x: np.ndarray,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
    ) -> dict[str, float]:
        """Residuals of ``A x = b`` and bound violations for a candidate x.

        ``a_eq`` may be a dense ndarray or any object with a ``matvec``
        method (the library's sparse matrices).
        """
        if hasattr(a_eq, "matvec"):
            ax = a_eq.matvec(x)
        else:
            ax = np.asarray(a_eq) @ x
        primal = float(np.max(np.abs(ax - b_eq))) if b_eq.size else 0.0
        bound = 0.0
        if lower is not None:
            finite = np.isfinite(lower)
            if finite.any():
                bound = max(bound, float(np.max(np.maximum(lower[finite] - x[finite], 0.0), initial=0.0)))
        if upper is not None:
            finite = np.isfinite(upper)
            if finite.any():
                bound = max(bound, float(np.max(np.maximum(x[finite] - upper[finite], 0.0), initial=0.0)))
        return {"primal_infeasibility": primal, "bound_infeasibility": bound}


def merge_kernel_breakdowns(*breakdowns: Mapping[str, float]) -> dict[str, float]:
    """Sum several kernel-time breakdown dicts into one."""
    out: dict[str, float] = {}
    for bd in breakdowns:
        for name, seconds in bd.items():
            out[name] = out.get(name, 0.0) + seconds
    return out
