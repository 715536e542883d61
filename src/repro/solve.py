"""Top-level solve façade: one entry point, every solver behind it.

``solve(problem, method=...)`` dispatches to:

- ``"tableau"``      — CPU dense tableau simplex (baseline).
- ``"revised"``      — CPU dense revised simplex (the paper's comparator).
- ``"revised-bounded"`` — CPU revised simplex with native upper-bound
  handling (bound flips instead of extra rows).
- ``"revised-sparse"`` — CPU sparse revised simplex: CSC data, sparse LU
  basis factors with a sparse eta file, sectioned partial pricing.
- ``"dual"``         — CPU dual simplex (re-optimization after rhs changes
  from a dual-feasible warm basis).
- ``"gpu-revised"``  — the paper's contribution: revised simplex on the
  simulated GPU with the dense basis inverse resident on the device;
  sparse input stays CSC on the device and is priced by SpMVᵀ.
- ``"gpu-revised-sparse"`` — a second name for ``gpu-revised`` (without
  mixed precision), kept for callers that still use it.
- ``"gpu-revised-bounded"`` — the GPU revised simplex with native
  upper-bound handling (bound flips on the device).
- ``"gpu-tableau"``  — full-tableau simplex on the simulated GPU (the A3
  ablation design point).
- ``"pdlp"``         — CPU first-order solver: restarted, preconditioned
  PDHG (PDLP-style) over CSC data — no phase 1, no basis; terminates on
  relative KKT residuals (``tol_kkt``).
- ``"gpu-pdlp"``     — the same first-order method on the simulated GPU:
  four kernel launches per iteration (SpMV/SpMVᵀ + fused updates), the
  regime where first-order methods overtake simplex on large sparse LPs
  (experiment F10 measures the crossover).

``method="auto"`` is not a table row but a dispatcher: it inspects the
problem (size, density, warm-start request) and picks one of the concrete
methods above via :func:`choose_method`.

All methods accept the same :class:`~repro.simplex.options.SolverOptions`.
``tests/test_solve_facade.py`` asserts this list covers every registered
method, so it cannot drift from ``_METHODS`` again.

Dispatch is data-driven: ``_METHODS`` is the declarative method table of
:mod:`repro.engine.registry` — one :class:`~repro.engine.registry.MethodSpec`
per method with a solver factory and capability flags.  Warm-start and
shared-device support are checked against those flags here, uniformly, so a
method gains a capability by flipping its flag, not by editing the façade.

For many LPs at once, :func:`solve_batch` / :func:`solve_batch_chain`
(re-exported here from :mod:`repro.batch`) share one simulated device
across the solves and price the batch under a sequential or concurrent
(stream-interleaved) schedule.
"""

from __future__ import annotations

import numpy as np

from repro.engine.registry import (
    METHODS,
    mixed_precision_methods,
    warm_start_methods,
)
from repro.errors import UnknownMethodError
from repro.lp.problem import LPProblem
from repro.result import SolveResult
from repro.simplex.options import SolverOptions

#: The method table (name → :class:`~repro.engine.registry.MethodSpec`).
_METHODS = METHODS

#: ``method="auto"`` thresholds, set against experiment F10: on sparse
#: instances below this density the modeled gpu-pdlp time overtakes
#: gpu-revised, the simplex method ``auto`` runs, once the problem passes
#: a size crossover.  F10 interpolates it at m+n ≈ 679 (density 0.02).
_AUTO_DENSITY = 0.05
_AUTO_CROSSOVER = 679  # m + n from which sparse LPs go to gpu-pdlp


def available_methods() -> list[str]:
    """Names accepted by :func:`solve`'s ``method`` argument."""
    return sorted(_METHODS)


def choose_method(problem: LPProblem, initial_basis=None) -> str:
    """Pick a concrete method for ``method="auto"``.

    The rule mirrors the F10 crossover measurement: big sparse problems go
    to the first-order GPU solver (iteration cost is two SpMVs instead of
    a basis solve), everything else to ``gpu-revised``, sparse input
    included.  A warm-start request forces the simplex — the first-order
    solvers have no basis to start from.
    """
    m, n = problem.num_constraints, problem.num_vars
    if problem.is_sparse:
        density = problem.a.nnz / max(1, m * n)
    else:
        a = np.asarray(problem.a)
        density = np.count_nonzero(a) / max(1, a.size)
    sparse_enough = density <= _AUTO_DENSITY
    if initial_basis is None and sparse_enough and m + n >= _AUTO_CROSSOVER:
        return "gpu-pdlp"
    return "gpu-revised"


def solve(
    problem: LPProblem,
    method: str = "gpu-revised",
    options: SolverOptions | None = None,
    initial_basis=None,
    device=None,
    **option_overrides,
) -> SolveResult:
    """Solve an LP with the chosen method.

    Keyword overrides are applied on top of ``options`` (or the defaults),
    e.g. ``solve(lp, method="revised", pricing="bland", max_iterations=500)``.
    ``initial_basis`` warm-starts the revised solvers from a previous basis
    (take it from ``previous_result.extra["basis"]``).  ``device`` lets a
    ``gpu-*`` solve run on an existing simulated device instead of creating
    its own — the batch layer uses this to share one device across many LPs.
    ``method="auto"`` resolves to a concrete method via
    :func:`choose_method` before dispatch.
    """
    if not isinstance(problem, LPProblem):
        raise TypeError(f"expected LPProblem, got {type(problem).__name__}")
    if method == "auto":
        method = choose_method(problem, initial_basis)
    try:
        spec = _METHODS[method]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {method!r}; available: {available_methods()}"
        ) from None
    if device is not None and not spec.supports_device:
        from repro.errors import SolverError

        raise SolverError(
            f"method {method!r} runs on the host; sharing a simulated device "
            "applies to the gpu-* methods only"
        )
    if initial_basis is not None and not spec.supports_warm_start:
        from repro.errors import SolverError

        raise SolverError(
            f"method {method!r} does not support warm starts; "
            f"warm-start methods: {sorted(warm_start_methods())}"
        )
    opts = (options or SolverOptions()).replace(**option_overrides)
    if opts.precision is not None and not spec.supports_device:
        from repro.errors import SolverError

        raise SolverError(
            f"method {method!r} runs on the host; precision policies apply "
            "to the gpu-* methods only"
        )
    if opts.precision == "mixed" and not spec.supports_mixed_precision:
        from repro.errors import SolverError

        raise SolverError(
            f"method {method!r} does not support mixed precision; "
            f"mixed-precision methods: {sorted(mixed_precision_methods())}"
        )
    solver = spec.factory(opts, device)
    return solver.solve(problem, initial_basis_hint=initial_basis)


# Batch façade re-exports (the batch layer builds on solve(); importing at
# the bottom keeps the modules cycle-free).
from repro.batch import solve_batch, solve_batch_chain  # noqa: E402
