"""Spans, the per-request span recorder, and the collected recording.

A **span** is one named interval on the simulated clock with a parent link
and free-form attributes; the spans of one request (a served job, one
engine solve, one batch schedule) share a **trace id** and form a tree
with exactly one root.  Two clock domains appear:

- ``clock="serve"`` — the server's global event clock (job lifecycle
  spans);
- ``clock="solve"`` — the per-solve modeled clock, which restarts at zero
  for every solve (the device resets its stats in ``begin()``).  Engine
  spans live here so they line up with the kernels of *their* solve; the
  ``request`` attribute and the recorder's link table tie them back to the
  serve-side job that spawned them.

The recorder buffers spans per trace, and :meth:`ObsRecorder.collect`
returns every *finished* trace as an :class:`ObsRecording`.  Spans are
recorded with one call per event: the batch and serve event functions of
:mod:`repro.metrics.instrument` and the engine observer
(:mod:`repro.engine.hooks`) are the only writers.  Emission while no
recorder is installed never reaches this module (their ``active()``
check), which is what keeps the disabled path one pointer read.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable


@dataclasses.dataclass
class Span:
    """One named interval of a request trace."""

    span_id: int
    trace_id: str
    parent_id: "int | None"
    name: str
    t_start: float
    t_end: float
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "attrs": dict(self.attrs),
        }


@dataclasses.dataclass
class SpanNode:
    """One node of a reconstructed span tree."""

    span: Span
    children: list["SpanNode"] = dataclasses.field(default_factory=list)


class ObsRecorder:
    """Buffers spans per trace until :meth:`collect`."""

    def __init__(self):
        self._spans: dict[str, list[Span]] = {}
        self._pending: dict[int, Span] = {}
        self._outcomes: dict[str, str] = {}
        self._latencies: dict[str, float] = {}
        self._links: dict[str, str] = {}
        self._next_span = 0
        self._next_trace: dict[str, int] = {}
        self._request: "tuple[str, list[str]] | None" = None
        self._replays = 0
        self._replay_start = 0

    # -- trace bookkeeping ----------------------------------------------

    def spans_of(self, trace_id: str) -> list[Span]:
        """The spans buffered so far for one trace (emission-order copy)."""
        return list(self._spans.get(trace_id, ()))

    def new_trace(self, family: str) -> str:
        """Allocate the next ``<family>-<n>`` trace id (``solve``,
        ``batch``, ``window``); a trace begun while a request context is
        open (a served job mid-dispatch) is linked to that request."""
        n = self._next_trace.get(family, 0)
        self._next_trace[family] = n + 1
        trace_id = f"{family}-{n}"
        self._spans[trace_id] = []
        if self._request is not None:
            parent, children = self._request
            self._links[trace_id] = parent
            children.append(trace_id)
        return trace_id

    def begin_replay(self) -> None:
        """Open a serve replay: :meth:`job_trace` names its jobs apart from
        earlier replays', and :meth:`collect_replay` returns its traces."""
        self._replays += 1
        self._replay_start = self._next_span

    def job_trace(self, job_id: int) -> str:
        """Trace id of a served job: ``job-<id>`` in the recorder's first
        replay, ``job-<id>@<k>`` in the k-th after it (job ids restart at
        0 for every server)."""
        if self._replays <= 1:
            return f"job-{job_id}"
        return f"job-{job_id}@{self._replays - 1}"

    def push_request(self, trace_id: str) -> None:
        """Open a request context: solve traces begun before the matching
        :meth:`pop_request` are linked to ``trace_id``."""
        self._request = (trace_id, [])

    def pop_request(self) -> list[str]:
        """Close the request context, returning the linked solve traces."""
        if self._request is None:
            return []
        _, children = self._request
        self._request = None
        return children

    def request_trace(self) -> "str | None":
        return None if self._request is None else self._request[0]

    # -- span emission ----------------------------------------------------

    def span(
        self,
        trace_id: str,
        name: str,
        t_start: float,
        t_end: float,
        parent: "int | None" = None,
        **attrs: Any,
    ) -> int:
        """Record one complete span; returns its id (usable as a parent)."""
        span_id = self._next_span
        self._next_span += 1
        sp = Span(span_id, trace_id, parent, name, t_start, t_end, attrs)
        self._spans.setdefault(trace_id, []).append(sp)
        return span_id

    def open_span(
        self,
        trace_id: str,
        name: str,
        t_start: float,
        parent: "int | None" = None,
        **attrs: Any,
    ) -> int:
        """Begin a span whose end is not yet known (children may reference
        its id before :meth:`close_span` fills in ``t_end``)."""
        span_id = self.span(trace_id, name, t_start, t_start, parent, **attrs)
        self._pending[span_id] = self._spans[trace_id][-1]
        return span_id

    def close_span(self, span_id: int, t_end: float, **attrs: Any) -> None:
        sp = self._pending.pop(span_id, None)
        if sp is None:
            return  # already closed (idempotent: lifecycle + finally paths)
        sp.t_end = max(sp.t_start, t_end)
        if attrs:
            sp.attrs.update(attrs)

    def finish_trace(
        self,
        trace_id: str,
        outcome: str,
        latency: "float | None" = None,
    ) -> None:
        """Mark a trace finished (idempotent; first outcome wins)."""
        if trace_id in self._outcomes:
            return
        self._outcomes[trace_id] = outcome
        if latency is not None:
            self._latencies[trace_id] = float(latency)

    # -- collection --------------------------------------------------------

    def collect(self) -> "ObsRecording":
        """Every finished trace, in the order the traces began."""
        return self._recording(self._outcomes)

    def collect_replay(self) -> "ObsRecording":
        """The finished traces begun since :meth:`begin_replay`."""
        return self._recording(
            tid
            for tid in self._outcomes
            if self._spans[tid][0].span_id >= self._replay_start
        )

    def _recording(self, trace_ids: Iterable[str]) -> "ObsRecording":
        chosen = set(trace_ids)

        def pick(table: dict) -> dict:
            return {tid: v for tid, v in table.items() if tid in chosen}

        return ObsRecording(
            spans=[sp for tid in pick(self._spans) for sp in self._spans[tid]],
            outcomes=pick(self._outcomes),
            links=pick(self._links),
            latencies=pick(self._latencies),
        )


@dataclasses.dataclass
class ObsRecording:
    """The output of one recorder: finished traces' spans and outcomes."""

    spans: list[Span]
    outcomes: dict[str, str]
    links: dict[str, str]
    latencies: dict[str, float]

    def trace_ids(self) -> list[str]:
        """Recorded trace ids, stable (first-span) order."""
        seen: dict[str, None] = {}
        for sp in self.spans:
            seen.setdefault(sp.trace_id, None)
        return list(seen)

    def trace_spans(self, trace_id: str) -> list[Span]:
        return [sp for sp in self.spans if sp.trace_id == trace_id]

    def tree(self, trace_id: str) -> SpanNode:
        """Reconstruct the span tree of one trace (children by start time).

        Raises :class:`ValueError` unless the trace has exactly one root
        and every parent link resolves within the trace.
        """
        spans = self.trace_spans(trace_id)
        if not spans:
            raise ValueError(f"no spans recorded for trace {trace_id!r}")
        nodes = {sp.span_id: SpanNode(sp) for sp in spans}
        roots: list[SpanNode] = []
        for sp in spans:
            if sp.parent_id is None:
                roots.append(nodes[sp.span_id])
            elif sp.parent_id in nodes:
                nodes[sp.parent_id].children.append(nodes[sp.span_id])
            else:
                raise ValueError(
                    f"span {sp.span_id} of {trace_id!r} references parent "
                    f"{sp.parent_id} outside its trace"
                )
        if len(roots) != 1:
            raise ValueError(
                f"trace {trace_id!r} has {len(roots)} roots (want exactly 1)"
            )
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.span.t_start, n.span.span_id))
        return roots[0]

    def validate(self) -> None:
        """Well-formedness of every recorded trace: exactly one root,
        resolvable parents, and every child interval contained in its
        parent's (up to a float tolerance).  Raises :class:`ValueError` on
        violation."""
        for trace_id in self.trace_ids():
            root = self.tree(trace_id)
            stack = [root]
            while stack:
                node = stack.pop()
                for child in node.children:
                    p, c = node.span, child.span
                    tol = 1e-9 * max(1.0, abs(p.t_end), abs(c.t_end))
                    if (
                        c.t_start < p.t_start - tol
                        or c.t_end > p.t_end + tol
                    ):
                        raise ValueError(
                            f"span {c.name!r} [{c.t_start}, {c.t_end}] of "
                            f"{trace_id!r} escapes parent {p.name!r} "
                            f"[{p.t_start}, {p.t_end}]"
                        )
                    stack.append(child)

    def roots(self) -> "dict[str, Span]":
        """Trace id -> root span, for traces that parse to a single root."""
        out: dict[str, Span] = {}
        for sp in self.spans:
            if sp.parent_id is None and sp.trace_id not in out:
                out[sp.trace_id] = sp
        return out
