"""Every Chrome trace-event writer of the library, on one set of tracks.

The output is Chrome trace-event JSON, loadable in ``chrome://tracing`` or
Perfetto, and is written through one helper that prefixes the track names:

- :func:`merged_chrome_trace` — one solve: the iteration and section
  tracks of a :class:`~repro.trace.record.SolveTrace`, the kernel and
  transfer tracks of its device timeline, and optional request spans;
- :func:`chrome_span_events` — async ``b``/``e`` pairs for the spans of an
  :class:`~repro.obs.span.ObsRecording`, plus ``s``/``f`` flow arrows
  along parent→child links;
- :func:`serve_chrome_trace` — a whole serving replay, with each job's
  engine-solve spans rebased into its ``device.execute`` slice.

Tracks (thread ids):

- **tid 0** — one slice per simplex iteration (decision metadata in args);
- **tid 1** — the per-iteration solver sections (pricing / ftran / ratio /
  update / transfer) laid head-to-tail inside each iteration;
- **tid 2** — kernel launches and memsets from the device timeline;
- **tid 3** — memory transfers;
- **tid 4** — request spans.

Iterations, kernels and engine-solve spans share the per-solve device
clock, so solver phases line up with the kernels they launched.
:func:`validate_chrome_trace` checks the schema subset written here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import TimelineEvent
    from repro.obs.span import ObsRecording, Span
    from repro.trace.record import SolveTrace

TID_ITERATIONS = 0
TID_SECTIONS = 1
TID_KERNELS = 2
TID_TRANSFERS = 3
TID_SPANS = 4

_TRACK_NAMES = {
    TID_ITERATIONS: "solver iterations",
    TID_SECTIONS: "solver phases",
    TID_KERNELS: "kernels",
    TID_TRANSFERS: "transfers",
    TID_SPANS: "request spans",
}


def _write(
    events: list[dict[str, Any]],
    tids: Iterable[int],
    pid: int,
    target: "str | Path | None",
) -> str:
    """Prefix thread-name metadata for ``tids`` and serialise; also write
    the JSON text to ``target`` when given."""
    meta = [
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": _TRACK_NAMES[tid]},
        }
        for tid in tids
    ]
    text = json.dumps({"traceEvents": meta + events, "displayTimeUnit": "ms"})
    if target is not None:
        Path(target).write_text(text)
    return text


# ---------------------------------------------------------------------------
# one solve: iterations, sections, kernels, transfers
# ---------------------------------------------------------------------------


#: :class:`~repro.trace.record.TraceRecord` fields an iteration slice
#: carries in its ``args`` (plus ``objective`` when it is set).
_DECISION_FIELDS = (
    "phase", "event", "entering", "leaving_row", "leaving_var", "pivot",
    "theta", "ratio_ties", "pricing_rule", "eta_count", "degenerate",
)


def _iteration_events(trace: "SolveTrace", pid: int) -> list[dict[str, Any]]:
    """One ``iter <n>`` slice per record, carrying the decision fields, plus
    one nested slice per solver section laid head-to-tail inside it."""
    events: list[dict[str, Any]] = []
    for r in trace:
        start_us = r.t_start * 1e6
        args: dict[str, Any] = {f: getattr(r, f) for f in _DECISION_FIELDS}
        if not math.isnan(r.objective):
            args["objective"] = r.objective
        events.append(
            {
                "name": f"iter {r.iteration} (p{r.phase})",
                "cat": "iteration", "ph": "X", "ts": start_us,
                "dur": max(r.seconds, 0.0) * 1e6,
                "pid": pid, "tid": TID_ITERATIONS, "args": args,
            }
        )
        cursor = start_us
        for section, seconds in r.sections.items():
            sec_us = max(seconds, 0.0) * 1e6
            events.append(
                {
                    "name": section, "cat": "solver-phase", "ph": "X",
                    "ts": cursor, "dur": sec_us,
                    "pid": pid, "tid": TID_SECTIONS,
                    "args": {"iteration": r.iteration, "phase": r.phase},
                }
            )
            cursor += sec_us
    return events


def _timeline_events(
    timeline: Iterable["TimelineEvent"], pid: int
) -> list[dict[str, Any]]:
    """One slice per device event at its recorded ``start``."""
    out: list[dict[str, Any]] = []
    for ev in timeline:
        is_kernel = ev.kind == "kernel"
        out.append(
            {
                "name": ev.name if is_kernel else f"memcpy.{ev.kind}",
                "cat": "kernel" if is_kernel else "transfer",
                "ph": "X",
                "ts": ev.start * 1e6,
                "dur": ev.seconds * 1e6,
                "pid": pid,
                "tid": TID_KERNELS if is_kernel else TID_TRANSFERS,
                "args": {"threads": ev.threads, "nbytes": ev.nbytes},
            }
        )
    return out


def merged_chrome_trace(
    trace: "SolveTrace",
    *,
    timeline: "Iterable[TimelineEvent] | None" = None,
    span_events: Iterable[dict] | None = None,
    target: "str | Path | None" = None,
    pid: int = 0,
) -> str:
    """Serialise the solver trace merged with its device timeline.

    ``timeline`` is the solve's :attr:`Device.timeline
    <repro.gpu.device.Device.timeline>`; without it only the solver tracks
    are emitted (the CPU solvers have no kernel timeline).
    ``span_events`` merges pre-built request-span events
    (:func:`chrome_span_events` on the same per-solve clock) as a fifth
    track.  Returns the JSON text; also writes it to ``target`` when given.
    """
    events = _iteration_events(trace, pid)
    if timeline is not None:
        events.extend(_timeline_events(timeline, pid))
    tids = [TID_ITERATIONS, TID_SECTIONS, TID_KERNELS, TID_TRANSFERS]
    if span_events is not None:
        events.extend(span_events)
        tids.append(TID_SPANS)
    return _write(events, tids, pid, target)


# ---------------------------------------------------------------------------
# request spans
# ---------------------------------------------------------------------------


def _flow(
    name: str, ident: str, t0: float, t1: float, pid: int
) -> list[dict[str, Any]]:
    """An ``s`` → ``f`` flow arrow from ``t0`` to ``t1`` (seconds)."""
    base = {
        "name": name, "cat": "span-flow", "id": ident,
        "pid": pid, "tid": TID_SPANS,
    }
    return [
        {**base, "ph": "s", "ts": t0 * 1e6},
        {**base, "ph": "f", "bp": "e", "ts": t1 * 1e6},
    ]


def chrome_span_events(
    recording: "ObsRecording",
    trace_ids: "Iterable[str] | None" = None,
    *,
    pid: int = 0,
    scale: float = 1.0,
    offset: float = 0.0,
) -> list[dict[str, Any]]:
    """Async ``b``/``e`` events for every span of the selected traces, plus
    ``s``/``f`` flow arrows along parent→child links.  ``scale``/``offset``
    rebase span times (seconds) before the microsecond conversion."""
    selected = set(
        recording.trace_ids() if trace_ids is None else trace_ids
    )
    by_id = {sp.span_id: sp for sp in recording.spans}
    events: list[dict[str, Any]] = []
    for sp in recording.spans:
        if sp.trace_id not in selected:
            continue
        base = {
            "name": sp.name, "cat": "span", "id": f"{sp.trace_id}/{sp.span_id}",
            "pid": pid, "tid": TID_SPANS,
        }
        events.append(
            {
                **base, "ph": "b", "ts": (offset + sp.t_start * scale) * 1e6,
                "args": {"trace_id": sp.trace_id, **sp.attrs},
            }
        )
        events.append(
            {**base, "ph": "e", "ts": (offset + sp.t_end * scale) * 1e6}
        )
        parent = by_id.get(sp.parent_id) if sp.parent_id is not None else None
        if parent is not None:
            events.extend(
                _flow(
                    "link", f"{parent.trace_id}/{parent.span_id}->{sp.span_id}",
                    offset + parent.t_start * scale,
                    offset + sp.t_start * scale, pid,
                )
            )
    return events


def serve_chrome_trace(
    recording: "ObsRecording",
    target: "str | Path | None" = None,
    *,
    pid: int = 0,
) -> str:
    """One Chrome trace for a whole serving replay.

    Job traces (roots named ``serve.job``) are emitted on the serve clock.
    Each job's linked engine-solve traces are rebased into its
    ``device.execute`` slice — offset to the slice start and scaled by the
    recorded contention ``stretch`` — and connected with a ``dispatch``
    flow arrow, so a job's queue wait, placement and solve phases line up
    on one axis.
    """
    roots = recording.roots()
    rebase: dict[str, "Span"] = {
        solve_id: sp
        for sp in recording.spans
        if sp.name == "device.execute"
        for solve_id in sp.attrs.get("solves", ())
    }
    events: list[dict[str, Any]] = []
    for trace_id in recording.trace_ids():
        parent = recording.links.get(trace_id)
        execute = rebase.get(trace_id) if parent is not None else None
        if execute is None:  # a job trace, or a linked but unplaced solve
            events.extend(chrome_span_events(recording, [trace_id], pid=pid))
            continue
        scale = float(execute.attrs.get("stretch", 1.0))
        events.extend(
            chrome_span_events(
                recording, [trace_id], pid=pid,
                scale=scale, offset=execute.t_start,
            )
        )
        root = roots.get(trace_id)
        if root is not None:
            events.extend(
                _flow(
                    "dispatch", f"{parent}->{trace_id}", execute.t_start,
                    execute.t_start + root.t_start * scale, pid,
                )
            )
    return _write(events, [TID_SPANS], pid, target)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float))


def validate_chrome_trace(data: "str | dict") -> dict:
    """Validate a Chrome trace-event JSON document, returning the parsed dict.

    Checks the schema subset this module writes: a top-level
    ``traceEvents`` list whose entries carry ``name``/``ph``/``pid``/``tid``.
    Duration (``X``) events carry numeric ``ts`` and ``dur >= 0``.  Async
    (``b``/``e``) and flow (``s``/``f``) events carry an ``id`` and a
    numeric ``ts``; every ``e`` closes an open ``b`` of the same id at a
    ``ts`` no earlier than the begin's, every ``b`` is closed, and every
    flow ``s`` has a matching ``f``.  Raises :class:`ValueError` on any
    violation.
    """
    doc = json.loads(data) if isinstance(data, str) else data
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("chrome trace must be an object with a traceEvents list")
    open_begins: dict[Any, list[float]] = {}
    open_flows: dict[Any, int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] missing {key!r}")
        ph, ts = ev["ph"], ev.get("ts")
        if ph == "X":
            dur = ev.get("dur")
            if not _is_number(ts) or not _is_number(dur):
                raise ValueError(f"traceEvents[{i}] X event needs numeric ts/dur")
            if dur < 0:
                raise ValueError(f"traceEvents[{i}] has negative duration")
        elif ph in ("b", "e", "s", "f"):
            if "id" not in ev or not _is_number(ts):
                raise ValueError(
                    f"traceEvents[{i}] {ph!r} event needs an id and a numeric ts"
                )
            ident = ev["id"]
            if ph == "b":
                open_begins.setdefault(ident, []).append(ts)
            elif ph == "e":
                begins = open_begins.get(ident)
                if not begins:
                    raise ValueError(
                        f"traceEvents[{i}] 'e' event {ident!r} closes no open 'b'"
                    )
                if ts < begins.pop():
                    raise ValueError(
                        f"traceEvents[{i}] 'e' event {ident!r} ends before its 'b'"
                    )
            else:
                open_flows[ident] = open_flows.get(ident, 0) + (
                    1 if ph == "s" else -1
                )
    unclosed = [ident for ident, begins in open_begins.items() if begins]
    if unclosed:
        raise ValueError(f"async 'b' events never closed: {unclosed[:5]}")
    unmatched = [ident for ident, n in open_flows.items() if n]
    if unmatched:
        raise ValueError(f"flow events without an s/f partner: {unmatched[:5]}")
    return doc
