"""Jobs: the unit of work the serving loop schedules.

A :class:`Job` wraps one :class:`~repro.lp.problem.LPProblem` with the
serving metadata the event loop needs — priority, submission time on the
simulated clock, an optional deadline — and accumulates the lifecycle
record (state transitions, placement, latency, warm-start provenance) as
the job moves through admission, queueing, dispatch and completion.

All times are **simulated seconds** on the server's event clock, the same
modeled-time axis every makespan in the library uses; nothing here reads
the wall clock.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.lp.problem import LPProblem
from repro.result import SolveResult

#: Priority levels: lower value = served first.  Any int works; these three
#: are the named levels the synthetic traces and the CLI use.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

_PRIORITY_NAMES = {
    PRIORITY_HIGH: "high",
    PRIORITY_NORMAL: "normal",
    PRIORITY_LOW: "low",
}


def priority_name(priority: int) -> str:
    """Human label of a priority level (used as a metrics label)."""
    return _PRIORITY_NAMES.get(priority, str(priority))


class JobState(enum.Enum):
    """Lifecycle of a serving job.

    ``QUEUED -> RUNNING -> COMPLETED`` is the happy path; ``REJECTED``
    (admission control) and ``EXPIRED`` (deadline passed while queued) are
    the terminal drop states.  ``COMPLETED`` means the solver ran — the
    LP's own verdict (optimal / infeasible / unbounded) lives in
    ``result.status``.
    """

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    EXPIRED = "expired"


@dataclasses.dataclass
class Job:
    """One submitted LP and its serving lifecycle record."""

    job_id: int
    problem: LPProblem
    method: str
    priority: int = PRIORITY_NORMAL
    submit_time: float = 0.0
    #: Absolute simulated-clock deadline (``None`` = no deadline).  Jobs
    #: still queued past it are dropped as EXPIRED; admission control also
    #: rejects jobs whose predicted completion already overshoots it.
    deadline: float | None = None
    state: JobState = JobState.QUEUED
    #: Structural fingerprint of the problem (warm-start cache key).
    fingerprint: str = ""
    #: Modeled device-memory footprint used by the bin-packing placement.
    footprint_bytes: int = 0
    device: str | None = None
    dispatch_time: float | None = None
    finish_time: float | None = None
    result: SolveResult | None = None
    #: Why admission control dropped the job (REJECTED state only).
    reject_reason: str | None = None
    #: Whether the solve started from a cached basis (a cache hit).
    warm_started: bool = False
    #: Whether this job broke its warm-start chain: it ran and finished
    #: non-optimal, so its basis was not cached (same flag
    #: :func:`repro.batch.solve_batch_chain` records per item).
    chain_broken: bool = False

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-finish modeled latency (``None`` until completed)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def queue_seconds(self) -> float | None:
        """Time spent queued before dispatch (``None`` until dispatched)."""
        if self.dispatch_time is None:
            return None
        return self.dispatch_time - self.submit_time

    @property
    def is_optimal(self) -> bool:
        return self.result is not None and self.result.is_optimal

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Job #{self.job_id} {self.problem.name!r} "
            f"{priority_name(self.priority)} {self.state.value}>"
        )
