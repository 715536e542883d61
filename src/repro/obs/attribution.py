"""Modeled-time attribution: where each served job's latency went.

:func:`attribute` decomposes every completed job trace of an
:class:`~repro.obs.span.ObsRecording` into six named buckets that sum
*exactly* (telescoping float identities, no residual fudge) to the job's
end-to-end modeled latency:

=================== ======================================================
bucket              modeled time it covers
=================== ======================================================
``queue_wait``      submission → dispatch (admission queue)
``placement``       dispatch → the job's execute slice opening (window
                    serialization along its stream lane)
``transfer``        PCIe/device copies outside refactorizations, stretched
                    by the window's contention factor
``launch_overhead`` per-kernel launch cost (``min(kernel, overhead)`` per
                    launch outside refactorizations), stretched
``refactorization`` modeled time inside ``engine.refactor`` spans,
                    stretched
``compute``         the remainder of the execute slice
=================== ======================================================

The per-event split (:func:`execute_breakdown`) runs **at emission time**,
only when a recorder is installed, and stores its aggregates as attributes
on the job's ``device.execute`` span — attribution afterwards is pure span
reading.  CPU-backed methods have no device timeline: their execute slice
lands in ``compute`` (minus any host refactorization spans), which keeps
the sum exact across every method.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

from repro.obs.span import ObsRecording

#: Attribution buckets, report order.
BUCKETS = (
    "queue_wait",
    "placement",
    "transfer",
    "launch_overhead",
    "refactorization",
    "compute",
)

#: Outcomes attribution covers (jobs that actually executed).
_EXECUTED = frozenset({"completed", "deadline-missed"})


def execute_breakdown(
    events: Sequence[Any],
    launch_overhead: float,
    refactor_intervals: Sequence[tuple[float, float]],
) -> dict[str, float]:
    """Split one solve's raw device timeline into attribution components.

    ``events`` are :class:`~repro.gpu.device.TimelineEvent`-shaped records
    on the solve-local clock; ``refactor_intervals`` are the
    ``engine.refactor`` span intervals on the same clock.  Events whose
    midpoint falls inside a refactor interval are charged to
    ``refactor_seconds`` (via the interval lengths) rather than their own
    component, so the components never double-count.
    """
    refactor_seconds = sum(e - s for s, e in refactor_intervals)
    transfer = 0.0
    launch = 0.0
    kernels = 0
    transfers = 0
    for ev in events:
        mid = ev.start + 0.5 * ev.seconds
        in_refactor = any(s <= mid <= e for s, e in refactor_intervals)
        if ev.kind == "kernel":
            kernels += 1
            if not in_refactor:
                launch += min(ev.seconds, launch_overhead)
        else:
            transfers += 1
            if not in_refactor:
                transfer += ev.seconds
    return {
        "transfer_seconds": transfer,
        "launch_seconds": launch,
        "refactor_seconds": refactor_seconds,
        "n_kernels": kernels,
        "n_transfers": transfers,
    }


@dataclasses.dataclass
class JobAttribution:
    """One completed job's latency decomposition."""

    trace_id: str
    job_id: int
    method: str
    device: str
    outcome: str
    latency_seconds: float
    buckets: dict[str, float]

    @property
    def coverage(self) -> float:
        """Fraction of the latency the named buckets explain (== 1.0 by
        construction; reported so the acceptance check is observable)."""
        if self.latency_seconds <= 0.0:
            return 1.0
        return sum(self.buckets.values()) / self.latency_seconds


@dataclasses.dataclass
class AttributionReport:
    """Per-job decompositions plus method- and fleet-level rollups."""

    jobs: list[JobAttribution]
    #: Jobs that never executed (rejected/expired), by outcome.
    unexecuted: dict[str, int]

    def totals(self) -> dict[str, float]:
        out = {b: 0.0 for b in BUCKETS}
        for job in self.jobs:
            for b in BUCKETS:
                out[b] += job.buckets[b]
        return out

    def by_method(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for job in self.jobs:
            tot = out.setdefault(job.method, {b: 0.0 for b in BUCKETS})
            for b in BUCKETS:
                tot[b] += job.buckets[b]
        return out

    def total_latency(self) -> float:
        return sum(j.latency_seconds for j in self.jobs)

    def render(self, *, per_job: bool = False) -> str:
        """Tables: fleet-wide shares, per-method totals, optional per-job."""
        from repro.bench.tables import Table

        lines: list[str] = []
        totals = self.totals()
        grand = self.total_latency()
        t = Table(["bucket", "seconds", "share %"])
        for b in BUCKETS:
            share = 100.0 * totals[b] / grand if grand > 0 else 0.0
            t.add_row(b, totals[b], share)
        lines.append("fleet-wide latency attribution:")
        lines.append(t.render())
        by_method = self.by_method()
        if len(by_method) > 1:
            tm = Table(["method"] + list(BUCKETS))
            for method, tot in sorted(by_method.items()):
                tm.add_row(method, *[tot[b] for b in BUCKETS])
            lines.append("per-method totals (seconds):")
            lines.append(tm.render())
        if per_job:
            tj = Table(
                ["job", "method", "latency ms"]
                + [f"{b} ms" for b in BUCKETS]
            )
            for job in self.jobs:
                tj.add_row(
                    job.job_id, job.method, job.latency_seconds * 1e3,
                    *[job.buckets[b] * 1e3 for b in BUCKETS],
                )
            lines.append("per-job decomposition:")
            lines.append(tj.render())
        if self.unexecuted:
            parts = ", ".join(
                f"{n} {outcome}"
                for outcome, n in sorted(self.unexecuted.items())
            )
            lines.append(f"not executed (no attribution): {parts}")
        return "\n".join(lines)


def attribute(recording: ObsRecording) -> AttributionReport:
    """Decompose every executed job trace of ``recording`` (see module
    docstring for the bucket semantics and exactness guarantee)."""
    jobs: list[JobAttribution] = []
    unexecuted: dict[str, int] = {}
    for trace_id, outcome in sorted(recording.outcomes.items()):
        if not trace_id.startswith("job-"):
            continue
        if outcome not in _EXECUTED:
            unexecuted[outcome] = unexecuted.get(outcome, 0) + 1
            continue
        root = recording.tree(trace_id)
        children = {node.span.name: node.span for node in root.children}
        buckets = {b: 0.0 for b in BUCKETS}
        queue = children.get("queue.wait")
        if queue is not None:
            buckets["queue_wait"] = queue.duration
        placement = children.get("placement")
        if placement is not None:
            buckets["placement"] = placement.duration
        execute = children.get("device.execute")
        if execute is not None:
            stretch = float(execute.attrs.get("stretch", 1.0))
            transfer = (
                float(execute.attrs.get("transfer_seconds", 0.0)) * stretch
            )
            launch = float(execute.attrs.get("launch_seconds", 0.0)) * stretch
            refactor = (
                float(execute.attrs.get("refactor_seconds", 0.0)) * stretch
            )
            buckets["transfer"] = transfer
            buckets["launch_overhead"] = launch
            buckets["refactorization"] = refactor
            buckets["compute"] = (
                execute.duration - transfer - launch - refactor
            )
        sp = root.span
        jobs.append(
            JobAttribution(
                trace_id=trace_id,
                job_id=int(sp.attrs.get("job_id", -1)),
                method=str(sp.attrs.get("method", "?")),
                device=str(sp.attrs.get("device", "?")),
                outcome=outcome,
                latency_seconds=sp.duration,
                buckets=buckets,
            )
        )
    return AttributionReport(jobs=jobs, unexecuted=unexecuted)
