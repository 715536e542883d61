"""Exporters for span recordings: ASCII tree and stable JSON.

Two renderings of the same :class:`~repro.obs.span.ObsRecording`:

- :func:`render_tree` — an indented per-trace span tree for terminals
  (what ``python -m repro explain`` prints);
- :func:`to_json` / :func:`from_json` — a stable, versioned JSON schema
  (sorted keys, spans ordered by id) for artifacts and diffing.

The Chrome trace-event exporters of span recordings
(``chrome_span_events``, ``serve_chrome_trace``) live with the solver and
device tracks in :mod:`repro.trace.chrome`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.span import ObsRecording, Span, SpanNode

#: Schema tag of the JSON export (v2 dropped the sampling ``decisions``).
OBS_JSON_SCHEMA = "repro-obs/v2"


# ---------------------------------------------------------------------------
# ASCII tree
# ---------------------------------------------------------------------------


def _format_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        val = attrs[key]
        if isinstance(val, float):
            parts.append(f"{key}={val:.3g}")
        else:
            parts.append(f"{key}={val}")
    return "  {" + ", ".join(parts) + "}"


def _render_node(node: SpanNode, prefix: str, last: bool, out: list[str]) -> None:
    sp = node.span
    connector = "`-- " if last else "|-- "
    out.append(
        f"{prefix}{connector}{sp.name}  "
        f"[{sp.t_start * 1e3:.4f}ms +{sp.duration * 1e3:.4f}ms]"
        f"{_format_attrs(sp.attrs)}"
    )
    child_prefix = prefix + ("    " if last else "|   ")
    for i, child in enumerate(node.children):
        _render_node(child, child_prefix, i == len(node.children) - 1, out)


def render_tree(
    recording: ObsRecording, trace_id: "str | None" = None
) -> str:
    """Indented span tree of one trace (or of every recorded trace)."""
    trace_ids = [trace_id] if trace_id is not None else recording.trace_ids()
    out: list[str] = []
    for tid in trace_ids:
        root = recording.tree(tid)
        sp = root.span
        outcome = recording.outcomes.get(tid, "?")
        out.append(
            f"{tid} ({outcome}): {sp.name}  "
            f"[{sp.t_start * 1e3:.4f}ms +{sp.duration * 1e3:.4f}ms]"
            f"{_format_attrs(sp.attrs)}"
        )
        for i, child in enumerate(root.children):
            _render_node(child, "", i == len(root.children) - 1, out)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# stable JSON
# ---------------------------------------------------------------------------


def to_json(recording: ObsRecording, target: "str | Path | None" = None) -> str:
    """Serialise the recording (stable ordering; schema-tagged)."""
    doc = {
        "schema": OBS_JSON_SCHEMA,
        "spans": [
            sp.to_dict()
            for sp in sorted(recording.spans, key=lambda s: s.span_id)
        ],
        "outcomes": recording.outcomes,
        "links": recording.links,
        "latencies": recording.latencies,
    }
    text = json.dumps(doc, sort_keys=True)
    if target is not None:
        Path(target).write_text(text)
    return text


def from_json(data: "str | dict") -> ObsRecording:
    """Parse a :func:`to_json` document back into a recording."""
    doc = json.loads(data) if isinstance(data, str) else data
    if doc.get("schema") != OBS_JSON_SCHEMA:
        raise ValueError(
            f"unsupported obs JSON schema {doc.get('schema')!r} "
            f"(want {OBS_JSON_SCHEMA!r})"
        )
    spans = [
        Span(
            span_id=rec["span_id"],
            trace_id=rec["trace_id"],
            parent_id=rec["parent_id"],
            name=rec["name"],
            t_start=rec["t_start"],
            t_end=rec["t_end"],
            attrs=dict(rec.get("attrs", {})),
        )
        for rec in doc["spans"]
    ]
    return ObsRecording(
        spans=spans,
        outcomes=dict(doc.get("outcomes", {})),
        links=dict(doc.get("links", {})),
        latencies=dict(doc.get("latencies", {})),
    )
