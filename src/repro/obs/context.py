"""Process-wide switch for span recording (mirrors ``repro.metrics``).

One module-level slot holds the active :class:`~repro.obs.span.ObsRecorder`
(or ``None``).  Every emission façade in :mod:`repro.metrics.instrument`
starts with ``active()`` — a plain global read — so span recording costs a
single ``is None`` check while disabled, the same zero-overhead contract
the metrics registry pins.

This module is deliberately dependency-free (stdlib only, the recorder is
imported lazily inside :func:`enable`): it is imported at module scope by
``repro.metrics.instrument``, which in turn is imported by the GPU device
and every observer call site, so it must never drag the rest of
``repro.obs`` (exporters, attribution) into those import paths.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import ObsRecorder

_active: "ObsRecorder | None" = None


def enable(recorder: "ObsRecorder | None" = None) -> "ObsRecorder":
    """Install ``recorder`` (or a fresh one) as the active span recorder."""
    global _active
    if recorder is None:
        from repro.obs.span import ObsRecorder

        recorder = ObsRecorder()
    _active = recorder
    return recorder


def disable() -> None:
    """Uninstall the active recorder; emission becomes a no-op again."""
    global _active
    _active = None


def active() -> "ObsRecorder | None":
    """The installed recorder, or ``None`` when span recording is off."""
    return _active


def enabled() -> bool:
    return _active is not None


@contextlib.contextmanager
def observing(recorder: "ObsRecorder | None" = None) -> Iterator["ObsRecorder"]:
    """Scoped recording: enable on entry, restore the previous recorder on
    exit.  Yields the recorder so the caller can ``collect()`` afterwards::

        with obs.observing() as rec:
            serve_trace(trace, config)
        print(render_tree(rec.collect()))
    """
    global _active
    previous = _active
    rec = enable(recorder)
    try:
        yield rec
    finally:
        _active = previous
