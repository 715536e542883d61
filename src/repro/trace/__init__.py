"""Structured, opt-in iteration-level solver tracing.

Enable with ``SolverOptions(trace=True)`` (or ``solve(..., trace=True)``):
every solver then attaches a :class:`SolveTrace` — one
:class:`TraceRecord` per simplex iteration — to ``result.trace``.  Records
capture the pivot decision (entering/leaving indices, pivot magnitude, θ,
ratio-test ties, the pricing rule in effect, eta count) together with the
objective value and the modeled seconds each solver section spent during
the iteration.

:func:`merged_chrome_trace` combines a trace with the device timeline
(:attr:`Device.timeline <repro.gpu.device.Device.timeline>`) into one Chrome
trace-event JSON; :mod:`repro.trace.chrome` holds every Chrome writer of the
library, the request-span exporters of :mod:`repro.obs` included.
``SolveTrace.summary()`` renders an ASCII convergence/phase report, and the
``repro trace`` CLI command wires both together.
"""

from repro.trace.chrome import merged_chrome_trace, validate_chrome_trace
from repro.trace.record import (
    PIVOT_EVENTS,
    TERMINAL_EVENTS,
    SolveTrace,
    TraceCollector,
    TraceRecord,
)
from repro.trace.render import render_summary

__all__ = [
    "PIVOT_EVENTS",
    "TERMINAL_EVENTS",
    "SolveTrace",
    "TraceCollector",
    "TraceRecord",
    "merged_chrome_trace",
    "render_summary",
    "validate_chrome_trace",
]
