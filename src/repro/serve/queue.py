"""Bounded priority queue with admission control.

The queue orders jobs by ``(priority, arrival sequence)`` — strict
priority, FIFO within a level — and enforces a hard depth bound: a full
queue **rejects** new work instead of growing without limit, which is the
load-shedding half of admission control (the deadline-feasibility half
lives in the server, which knows the fleet's backlog).

Deadlines are enforced lazily at pop time: a job whose absolute deadline
has passed while it waited is dropped as EXPIRED rather than dispatched —
there is no point starting work whose answer nobody is waiting for.
"""

from __future__ import annotations

import heapq

from repro.errors import SolverError
from repro.metrics.instrument import record_job_expired, record_queue_depth
from repro.serve.job import Job, JobState


class AdmissionQueue:
    """A bounded priority queue of :class:`~repro.serve.job.Job`\\ s."""

    def __init__(self, max_depth: int = 64):
        if max_depth < 1:
            raise SolverError("queue max_depth must be >= 1")
        self.max_depth = max_depth
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = 0
        #: Running totals for the report.
        self.admitted = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.max_depth

    def push(self, job: Job) -> bool:
        """Enqueue ``job``; returns False (and leaves the job untouched)
        when the queue is at its depth bound."""
        if self.full:
            return False
        heapq.heappush(self._heap, (job.priority, self._seq, job))
        self._seq += 1
        self.admitted += 1
        record_queue_depth(len(self._heap))
        return True

    def expire_stale(self, now: float) -> int:
        """Drop every job at the head whose deadline has passed, marking it
        EXPIRED (with metrics); returns how many were dropped.  Only the
        head is examined — an expired job buried under live ones is
        handled when it surfaces, which is before it could ever dispatch.
        """
        dropped = 0
        while self._heap:
            _, _, job = self._heap[0]
            if job.deadline is None or now <= job.deadline:
                break
            heapq.heappop(self._heap)
            job.state = JobState.EXPIRED
            job.finish_time = now
            self.expired += 1
            dropped += 1
            record_job_expired(job)
        if dropped:
            record_queue_depth(len(self._heap))
        return dropped

    def pop(self) -> Job:
        """Dequeue the head job unconditionally (callers pair this with
        :meth:`expire_stale` / :meth:`peek`)."""
        _, _, job = heapq.heappop(self._heap)
        record_queue_depth(len(self._heap))
        return job

    def pop_ready(self, now: float) -> Job | None:
        """The highest-priority job whose deadline has not passed, or
        ``None`` when the queue empties (expired heads are dropped on the
        way, exactly as :meth:`expire_stale` does)."""
        self.expire_stale(now)
        return self.pop() if self._heap else None

    def peek(self) -> Job | None:
        """The job :meth:`pop` would return (no dequeue, no expiry)."""
        return self._heap[0][2] if self._heap else None

    def depth_by_priority(self) -> dict[int, int]:
        """Waiting jobs per priority level (for reporting)."""
        depths: dict[int, int] = {}
        for priority, _, _ in self._heap:
            depths[priority] = depths.get(priority, 0) + 1
        return depths
