"""The shared solver lifecycle: one phase driver and finish path for every
method, the nine simplex ones and the first-order pair.  A method enters
it only through ``begin``, which settles the start and never finishes the
solve itself.

Before this layer existed each solver class carried a private copy of the
same scaffold — run phase 1, map UNBOUNDED→NUMERICAL (phase 1 is bounded
below by 0, so unboundedness there is a numerical artefact), compare the
phase-1 objective against the feasibility tolerance, drive artificials out,
run phase 2, then assemble a :class:`~repro.result.SolveResult` and emit
trace/metrics.  :func:`run_solve` is that scaffold, written once; the
per-method work happens behind the :class:`~repro.engine.backend.SolverBackend`
interface.

This module is also the **only** place solve-level metrics are emitted
(:func:`repro.metrics.instrument.record_solve`) and the only consumer of
the trace collector armed through :class:`~repro.engine.hooks.SolveHooks` —
backends cannot import either subsystem (``make lint`` enforces it).
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.backend import SolverBackend
from repro.engine.hooks import SolveHooks
from repro.errors import SingularBasisError, SolverError
from repro.metrics.instrument import record_solve
from repro.result import SolveResult
from repro.status import SolveStatus


def run_solve(
    backend: SolverBackend,
    problem,
    warm_hint: "np.ndarray | None" = None,
) -> SolveResult:
    """Drive ``backend`` through the full two-phase solve lifecycle."""
    if warm_hint is not None and not backend.accepts_warm_start:
        raise SolverError(
            f"solver {backend.name!r} does not accept an initial basis hint"
        )
    t_wall = time.perf_counter()
    backend.hooks = SolveHooks(backend.name, enabled=backend.options.trace)
    try:
        backend.begin(problem, warm_hint)
        if backend.needs_phase1:
            with backend.hooks.span("engine.phase", phase=1):
                status, iters = backend.run_phase(1)
            backend.stats.phase1_iterations = iters
            if status is not SolveStatus.OPTIMAL:
                if status is SolveStatus.UNBOUNDED:
                    status = SolveStatus.NUMERICAL
                return _finish(backend, status, t_wall)
            z1 = backend.phase1_objective()
            feas_scale = max(
                1.0, float(np.max(np.abs(backend.prep.b), initial=0.0))
            )
            if z1 > backend.phase1_feas_tol * feas_scale:
                return _finish(
                    backend, SolveStatus.INFEASIBLE, t_wall,
                    extra={"phase1_objective": z1},
                )
            with backend.hooks.span("engine.driveout"):
                backend.drive_out_artificials()

        with backend.hooks.span("engine.phase", phase=2):
            status, iters = backend.run_phase(2)
        backend.stats.phase2_iterations = iters
        return _finish(backend, status, t_wall)
    finally:
        # Error exits (SolverError, device OOM, ...) must still close the
        # solve's span trace; after a normal finish this is a no-op.
        backend.hooks.finish_obs("error")
        backend.cleanup()


def _finish(
    backend: SolverBackend,
    status: SolveStatus,
    t_wall: float,
    extra: "dict | None" = None,
) -> SolveResult:
    """Assemble the result and emit the observer events, in the order the
    individual solvers historically used (extras snapshot device counters
    *before* the solution download; the download then resyncs timing)."""
    result = SolveResult(
        status=status,
        iterations=backend.stats,
        timing=backend.timing(time.perf_counter() - t_wall),
        solver=backend.name,
        extra=extra or {},
    )
    trace = backend.hooks.trace
    if trace is not None:
        result.trace = trace
    backend.standard_extras(result)
    result.extra["scaled"] = backend.prep.scaling is not None
    if status is SolveStatus.OPTIMAL:
        kept = dict(result.extra)
        try:
            backend.extract(result)
        except (SingularBasisError, np.linalg.LinAlgError) as exc:
            # a final basis fp64 cannot factorise certifies no point: the
            # pivots ended on a numerically singular B, not at an optimum
            status = result.status = SolveStatus.NUMERICAL
            result.x, result.objective, result.residuals = None, float("nan"), {}
            result.extra = {**kept, "numerical_reason": f"singular final basis: {exc}"}
    backend.finalize_timing(result)
    backend.hooks.finish_obs(status.value)
    record_solve(result)
    return result
