"""Outside-in span tracer for the benchmark's traced run.

:func:`tracing` patches public functions and methods of each layer from
outside the program and restores them on exit; nothing in ``src/`` knows
it is being traced.  Every patched call becomes a frame on one stack, so a
call's *self time* is its duration minus the durations of the patched calls
it made.

Two kinds of frame:

- *kept spans* — requests, the serve, batch, façade, engine and backend
  layer entries.  Each is stored in memory with its name, start, end,
  parent span and request id, and written out by :meth:`Tracer.dump`.
- *hot calls* — kernel launches and bodies, transfers, cost-model calls,
  plan sections and sparse-LU solves.  There are thousands per request, so
  each is only counted into its nearest kept span as (calls, total, self).

Callers must reach the patched functions through their module attribute at
call time (``sys.modules["repro.solve"].solve``), as the library's own
layers do; a name bound by ``from ... import`` before patching is missed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Iterator

_now = time.perf_counter

#: (module, class or None, attribute, span name) of the kept layer spans.
KEPT = (
    ("repro.serve.service", None, "serve_trace", "serve.serve_trace"),
    ("repro.serve.service", "LPServer", "run", "serve.run"),
    ("repro.batch", None, "solve_batch", "batch.solve_batch"),
    ("repro.batch.scheduler", "ConcurrentSchedule", "plan", "batch.plan"),
    ("repro.solve", None, "solve", "solve.facade"),
)

#: The same for the hot calls, aggregated per kept span.
HOT = (
    ("repro.simplex.sparse_basis", "SparseLUBasis", "refactorize",
     "lu.refactorize"),
    ("repro.simplex.sparse_basis", "SparseLUBasis", "ftran", "lu.ftran"),
    ("repro.simplex.sparse_basis", "SparseLUBasis", "btran", "lu.btran"),
    ("repro.simplex.sparse_basis", "SparseLUBasis", "update", "lu.update"),
    ("repro.gpu.memory", "DeviceArray", "copy_from_host", "gpu.transfer"),
    ("repro.gpu.memory", "DeviceArray", "copy_to_host", "gpu.transfer"),
    ("repro.gpu.memory", "DeviceArray", "scalar_to_host", "gpu.transfer"),
    ("repro.gpu.memory", "DeviceArray", "set_scalar", "gpu.transfer"),
    ("repro.perfmodel.gpu_model", "GpuCostModel", "kernel_time",
     "perfmodel.kernel_time"),
    ("repro.perfmodel.gpu_model", "GpuCostModel", "transfer_time",
     "perfmodel.kernel_time"),
)

#: Host per-layer metrics: metric stem -> (frame name, "self" or "total").
#: Each yields ``<stem>_s`` (seconds per request) and a calls-per-request
#: twin named after the stem without ``_self``.
LAYER_METRICS = {
    "serve.serve_trace_self": ("serve.serve_trace", "self"),
    "serve.run_self": ("serve.run", "self"),
    "batch.solve_batch_self": ("batch.solve_batch", "self"),
    "batch.plan": ("batch.plan", "total"),
    "solve.facade_self": ("solve.facade", "self"),
    "engine.run_solve_self": ("engine.run_solve", "self"),
    "backend.begin": ("backend.begin", "total"),
    "backend.run_phase_self": ("backend.run_phase", "self"),
    "lu.refactorize": ("lu.refactorize", "total"),
    "lu.ftran": ("lu.ftran", "total"),
    "lu.btran": ("lu.btran", "total"),
    "lu.update": ("lu.update", "total"),
    "gpu.launch_self": ("gpu.launch", "self"),
    "gpu.kernel_body": ("gpu.kernel_body", "total"),
    "gpu.transfer": ("gpu.transfer", "total"),
    "perfmodel.kernel_time": ("perfmodel.kernel_time", "total"),
    "plan.section_self": ("plan.section", "self"),
}


def _count(table: dict, name: str, duration: float, own: float) -> None:
    agg = table.get(name)
    if agg is None:
        agg = table[name] = [0, 0.0, 0.0]
    agg[0] += 1
    agg[1] += duration
    agg[2] += own


class Tracer:
    """The frame stack, the kept spans and per-name totals of one run."""

    def __init__(self) -> None:
        self.t0 = _now()
        self.spans: list[dict] = []
        #: name -> [calls, total seconds, self seconds] over the whole run.
        self.totals: dict[str, list] = {}
        #: Hot calls made outside any kept span.
        self.unattributed: dict[str, list] = {}
        self.request: "int | None" = None
        # Frame: [name, start, child seconds, kept, hot-call dict of the
        # nearest kept span, id of the nearest kept span, parent span id].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._backends: set[type] = set()

    # -- frames ------------------------------------------------------------

    def enter(self, name: str, kept: bool) -> None:
        stack = self._stack
        top = stack[-1] if stack else None
        if kept:
            frame = [name, 0.0, 0.0, True, {}, self._next_id,
                     top[5] if top else None]
            self._next_id += 1
        else:
            frame = [name, 0.0, 0.0, False,
                     top[4] if top else self.unattributed,
                     top[5] if top else None, None]
        stack.append(frame)
        frame[1] = _now()

    def exit(self) -> None:
        end = _now()
        name, start, child, kept, hot, span_id, parent = self._stack.pop()
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        _count(self.totals, name, duration, own)
        if kept:
            self.spans.append({
                "id": span_id, "name": name, "parent": parent,
                "request": self.request,
                "start": start - self.t0, "end": end - self.t0,
                "self": own, "hot": hot,
            })
        else:
            _count(hot, name, duration, own)

    @contextlib.contextmanager
    def request_span(self, index: int) -> Iterator[None]:
        """One request of the traced pass: the root of its span tree."""
        self.request = index
        self.enter("request", True)
        try:
            yield
        finally:
            self.exit()
            self.request = None

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str, kept: bool):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name, kept)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_named(self, module: str, cls: "str | None", attr: str,
                     name: str, kept: bool) -> None:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, kept))

    def _patch_backend(self, cls: type) -> None:
        """Wrap ``begin`` / ``run_phase`` of a backend class the first time
        the engine runs it (backends are imported lazily by the registry)."""
        if cls in self._backends:
            return
        self._backends.add(cls)
        for attr in ("begin", "run_phase"):
            if attr in cls.__dict__:
                self._patch(cls, attr, self._wrap(
                    cls.__dict__[attr], f"backend.{attr}", True
                ))

    def install(self) -> None:
        for module, cls, attr, name in KEPT:
            self._patch_named(module, cls, attr, name, True)
        for module, cls, attr, name in HOT:
            self._patch_named(module, cls, attr, name, False)

        lifecycle = importlib.import_module("repro.engine.lifecycle")
        run_solve = lifecycle.__dict__["run_solve"]
        patch_backend, enter, exit_ = self._patch_backend, self.enter, self.exit

        @functools.wraps(run_solve)
        def traced_run_solve(backend, *args, **kwargs):
            patch_backend(type(backend))
            enter("engine.run_solve", True)
            try:
                return run_solve(backend, *args, **kwargs)
            finally:
                exit_()

        self._patch(lifecycle, "run_solve", traced_run_solve)

        device_cls = importlib.import_module("repro.gpu.device").Device
        launch = device_cls.__dict__["launch"]
        wrap = self._wrap

        @functools.wraps(launch)
        def traced_launch(device, name, body, cost, **kwargs):
            # A captured body runs later inside the fused launch's body,
            # which is wrapped then; wrapping it here would count it twice.
            if device._capture is None:
                body = wrap(body, "gpu.kernel_body", False)
            enter("gpu.launch", False)
            try:
                return launch(device, name, body, cost, **kwargs)
            finally:
                exit_()

        self._patch(device_cls, "launch", traced_launch)

        plan_cls = importlib.import_module("repro.gpu.plan").LaunchPlan
        section = plan_cls.__dict__["section"]

        @contextlib.contextmanager
        @functools.wraps(section)
        def traced_section(plan, *args, **kwargs):
            enter("plan.section", False)
            try:
                with section(plan, *args, **kwargs) as sec:
                    yield sec
            finally:
                exit_()

        self._patch(plan_cls, "section", traced_section)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._backends.clear()

    # -- results -----------------------------------------------------------

    def coverage(self) -> list[float]:
        """Per request: the share of its host time that layer spans cover
        (1 minus the request span's own self time over its duration)."""
        return [
            1.0 - s["self"] / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == "request" and s["end"] > s["start"]
        ]

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Host per-layer metrics: seconds and calls per request."""
        out = {}
        for stem, (frame, kind) in LAYER_METRICS.items():
            calls, total, own = self.totals.get(frame, (0, 0.0, 0.0))
            out[f"{stem}_s"] = (own if kind == "self" else total) / requests
            out[f"{stem.removesuffix('_self')}_calls"] = calls / requests
        return out

    def dump(self, path) -> None:
        """Write the kept spans and the unattributed hot calls as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "unattributed": self.unattributed}, fh
            )


@contextlib.contextmanager
def tracing() -> Iterator[Tracer]:
    """Install a :class:`Tracer` for the duration of the block."""
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()
