"""The shared solver-engine layer behind every simplex method.

The paper's algorithm is one method on two machines; this package makes the
code match that shape.  It owns everything a solve has in common —

- the **lifecycle**: phase-1/phase-2 driving, status mapping, the
  infeasibility verdict, artificial drive-out sequencing and the
  ``SolveResult`` assembly (:func:`run_solve` in
  :mod:`repro.engine.lifecycle`);
- the **observer protocol**: trace records and metrics counters are
  emitted through :class:`SolveHooks` / the lifecycle finish path only, so
  backends contain zero instrumentation plumbing
  (:mod:`repro.engine.hooks`);
- the **method table**: a declarative :class:`MethodSpec` registry with
  warm-start/device capability flags that ``repro.solve`` and
  ``repro.batch`` both dispatch from (:mod:`repro.engine.registry`);

while each method is a :class:`~repro.engine.backend.SolverBackend`
implementing only its own numerics; the nine simplex methods, primal
and dual, share one (:mod:`repro.simplex.revised`).
``tests/test_engine_golden.py`` pins statuses, objectives, pivot sequences
and modeled seconds bit-for-bit against a committed fixture for all
methods.
"""

from repro.engine.backend import (
    DeviceBackend,
    HostBackend,
    SolverBackend,
    attach_standard_solution,
)
from repro.engine.hooks import SolveHooks
from repro.engine.lifecycle import run_solve
from repro.engine.registry import (
    METHODS,
    MethodSpec,
    device_methods,
    warm_start_methods,
)

__all__ = [
    "DeviceBackend",
    "HostBackend",
    "METHODS",
    "MethodSpec",
    "SolveHooks",
    "SolverBackend",
    "attach_standard_solution",
    "device_methods",
    "run_solve",
    "warm_start_methods",
]
