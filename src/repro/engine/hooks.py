"""The engine's observer protocol: one gateway for solver instrumentation.

Backends never import :mod:`repro.trace`, :mod:`repro.metrics` or
:mod:`repro.obs` (a lint under ``tools/`` enforces it).  Instead the
lifecycle hands every backend a :class:`SolveHooks` and the backend

- calls :meth:`SolveHooks.arm` once, at the exact point its hand-rolled
  tracer used to be constructed (the collector snapshots the modeled clock
  at construction, so the arming point is part of the bit-identical trace
  contract),
- emits iteration events through :meth:`SolveHooks.record`, and
- wraps notable intervals (basis refactorizations) in
  :meth:`SolveHooks.span`.

Two observer backends ride on those calls:

- **iteration tracing** (``SolverOptions.trace``) — the historical
  :class:`~repro.trace.TraceCollector` contract, unchanged;
- **span recording** (``repro.obs``) — when a recorder is installed,
  ``arm`` opens an ``engine.solve`` request trace on the solve-local
  modeled clock (linked to the serving job that spawned it, if any), the
  lifecycle adds phase spans, ``span`` adds refactorization spans, and
  ``record(event="restart")`` closes one ``pdhg.epoch`` per first-order
  restart.

When both are off every call is a no-op and nothing observer-related is
even imported — the zero-overhead-when-off guarantee lives here, in one
place, instead of being re-proved per solver.  Metrics counters are
emitted by the lifecycle's finish path
(:func:`repro.engine.lifecycle.run_solve`), never by backends.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Mapping

from repro.obs.context import active as _obs_active


class SolveHooks:
    """Per-solve observer handle owned by the engine lifecycle."""

    __slots__ = (
        "solver",
        "enabled",
        "_collector",
        "_clock",
        "_obs",
        "_obs_trace",
        "_obs_root",
        "_obs_epoch_start",
        "_obs_epochs",
    )

    def __init__(self, solver: str, enabled: bool):
        self.solver = solver
        #: True when the user asked for tracing (``SolverOptions.trace``).
        #: Backends branch on this to skip uncharged diagnostic peeks.
        self.enabled = enabled
        self._collector = None
        self._clock: "Callable[[], float] | None" = None
        self._obs = None
        self._obs_trace: "str | None" = None
        self._obs_root: "int | None" = None
        self._obs_epoch_start = 0.0
        self._obs_epochs = 0

    # -- backend side ---------------------------------------------------

    def arm(
        self,
        *,
        clock: Callable[[], float],
        sections: "Callable[[], Mapping[str, float]] | None" = None,
        meta: "dict[str, Any] | None" = None,
    ) -> None:
        """Start collecting: snapshot ``clock()`` as the first record's
        ``t_start``.  No-op (and import-free) when tracing is off; when a
        span recorder is installed this also opens the solve's
        ``engine.solve`` root span on the same clock."""
        self._clock = clock
        obs = _obs_active()
        if obs is not None:
            self._obs = obs
            self._obs_trace = obs.new_trace("solve")
            attrs: dict[str, Any] = {"solver": self.solver, "clock": "solve"}
            request = obs.request_trace()
            if request is not None:
                attrs["request"] = request
            t0 = clock()
            self._obs_root = obs.open_span(
                self._obs_trace, "engine.solve", t0, **attrs
            )
            self._obs_epoch_start = t0
            self._obs_epochs = 0
        if not self.enabled:
            return
        from repro.trace import TraceCollector

        self._collector = TraceCollector(
            self.solver, clock=clock, sections=sections, meta=meta
        )

    def record(self, **fields) -> None:
        """Append one iteration-level trace record (no-op when off).  With
        a span recorder installed, a first-order restart event also closes
        the current ``pdhg.epoch`` span."""
        if self._collector is not None:
            self._collector.record(**fields)
        if self._obs is not None and fields.get("event") == "restart":
            t = self._clock()
            self._obs_epochs += 1
            self._obs.span(
                self._obs_trace,
                "pdhg.epoch",
                self._obs_epoch_start,
                t,
                parent=self._obs_root,
                epoch=self._obs_epochs,
                iteration=fields.get("iteration"),
            )
            self._obs_epoch_start = t

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record the enclosed interval as a child span of the solve's root
        (``engine.refactor`` at the backends' refactorization sites, the
        phase spans in the lifecycle).  No-op without a recorder."""
        if self._obs is None:
            yield
            return
        t0 = self._clock()
        try:
            yield
        finally:
            self._obs.span(
                self._obs_trace,
                name,
                t0,
                self._clock(),
                parent=self._obs_root,
                **attrs,
            )

    # -- engine side ----------------------------------------------------

    @property
    def trace(self):
        """The collected :class:`~repro.trace.SolveTrace`, or ``None``."""
        return None if self._collector is None else self._collector.trace

    def finish_obs(self, outcome: str) -> None:
        """Close the solve's root span and finish its trace (idempotent —
        the lifecycle calls this from the finish path *and* from its
        ``finally`` so error exits still close the request)."""
        if self._obs is None:
            return
        t = self._clock() if self._clock is not None else 0.0
        self._obs.close_span(self._obs_root, t, outcome=outcome)
        self._obs.finish_trace(self._obs_trace, outcome, latency=t)
        self._obs = None
