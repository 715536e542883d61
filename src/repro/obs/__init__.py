"""Request-scoped span tracing on the simulated clock (``repro.obs``).

Where :mod:`repro.trace` records one solve iteration-by-iteration and
:mod:`repro.metrics` counts fleet-wide aggregates, this layer connects
them: every *request* (a served job, one engine solve, one batch schedule)
gets a tree of named **spans** — ``serve.job → queue.wait → placement →
device.execute``, ``engine.solve → engine.phase / engine.refactor /
pdhg.epoch``, ``batch.schedule → batch.segment`` — with parent/child
links and attributes, all in modeled seconds.

Recording is opt-in and non-perturbing, the same contract the trace and
metrics layers pin: with no recorder installed every emission point is one
``is None`` check inside the :mod:`repro.metrics.instrument` /
:mod:`repro.engine.hooks` façades (the only modules allowed to emit;
``make lint`` keeps backends and serve code from importing ``repro.obs``),
and with one installed, solver and serving results are bit-identical.

One call per event: each batch and serve event (a priced batch, a
rejected, expired or completed job, a dispatch window) is one function of
:mod:`repro.metrics.instrument` that updates the metrics registry and
records the event's span tree, so the two views count the same events.
:meth:`~repro.obs.span.ObsRecorder.collect` returns every finished trace;
a replay's :attr:`~repro.serve.ServeReport.obs_recording` holds that
replay's traces only.

Quickstart::

    from repro import obs
    from repro.obs import attribute, render_tree
    from repro.serve import ServeConfig, serve_trace, synthetic_trace

    with obs.observing() as rec:
        report = serve_trace(synthetic_trace(n_jobs=8, seed=7),
                             ServeConfig(n_devices=2))
    recording = rec.collect()
    print(render_tree(recording, recording.trace_ids()[0]))
    print(attribute(recording).render())      # == report.attribution()

``python -m repro explain`` wraps exactly this pipeline; the O1 experiment
(EXPERIMENTS.md) runs it across fleets and problem sizes.
"""

from __future__ import annotations

from repro.obs.attribution import (
    AttributionReport,
    BUCKETS,
    JobAttribution,
    attribute,
    execute_breakdown,
)
from repro.obs.context import active, disable, enable, enabled, observing
from repro.obs.export import OBS_JSON_SCHEMA, from_json, render_tree, to_json
from repro.obs.span import ObsRecorder, ObsRecording, Span, SpanNode
from repro.trace.chrome import chrome_span_events, serve_chrome_trace

__all__ = [
    "AttributionReport",
    "BUCKETS",
    "JobAttribution",
    "OBS_JSON_SCHEMA",
    "ObsRecorder",
    "ObsRecording",
    "Span",
    "SpanNode",
    "active",
    "attribute",
    "chrome_span_events",
    "disable",
    "enable",
    "enabled",
    "execute_breakdown",
    "from_json",
    "observing",
    "render_tree",
    "serve_chrome_trace",
    "to_json",
]
