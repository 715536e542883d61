"""Per-iteration trace records and the collector solvers write into.

A :class:`SolveTrace` is a flat list of :class:`TraceRecord` — one per
simplex iteration — capturing *what the solver decided* (entering/leaving
indices, pivot magnitude, step length, pricing rule in effect) alongside
*where the modeled time went* (per-section seconds between consecutive
records).  The companion :class:`TraceCollector` is the narrow hook the
solvers call: it snapshots the active clock (device clock or CPU cost
recorder) and section totals, and turns every ``record()`` call into a
record holding the deltas since the previous one.

Tracing is opt-in via ``SolverOptions(trace=True)``; with it off no
collector exists and the solvers' hot loops are untouched.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterator

#: Events that correspond to an actual step of progress: a basis change
#: (pivot), a bound flip, or — for the first-order methods, which have no
#: basis — a restart to an averaged iterate.  These are the records that
#: carry an objective value and feed ``objective_series``.
PIVOT_EVENTS = frozenset({"pivot", "flip", "restart"})

#: Events that terminate a phase (the iteration is still counted by the
#: solver's iteration statistics, so the trace records it too).
TERMINAL_EVENTS = frozenset(
    {"optimal", "unbounded", "infeasible", "numerical", "recovery"}
)


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One traced simplex iteration.

    ``event`` is ``"pivot"`` for a normal basis change, ``"flip"`` for a
    bound flip (bounded solvers), ``"recovery"`` when the iteration spent
    its work refactorising after a singular update, and one of
    ``"optimal"`` / ``"unbounded"`` / ``"infeasible"`` / ``"numerical"``
    for the terminal iteration that detected that outcome.  Index fields
    are ``-1`` when not applicable (e.g. no entering column at optimality).
    ``sections`` maps solver-phase names (pricing / ftran / ratio / update
    / transfer, ...) to the modeled seconds spent in them *during this
    iteration*; ``t_start``/``t_end`` locate the iteration on the modeled
    clock of the machine the solver ran on.
    """

    phase: int
    iteration: int
    event: str = "pivot"
    entering: int = -1
    leaving_row: int = -1
    leaving_var: int = -1
    pivot: float = 0.0
    theta: float = 0.0
    ratio_ties: int = 0
    pricing_rule: str = ""
    eta_count: int = 0
    objective: float = math.nan
    degenerate: bool = False
    t_start: float = 0.0
    t_end: float = 0.0
    sections: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Modeled seconds this iteration occupied on its machine."""
        return self.t_end - self.t_start


class SolveTrace:
    """The full per-iteration trace of one solve.

    Iterable and indexable like a list of :class:`TraceRecord`.  ``meta``
    carries solver-level context (problem size, dtype, options) set by the
    solver that produced the trace.
    """

    def __init__(self, solver: str, meta: dict[str, Any] | None = None):
        self.solver = solver
        self.meta: dict[str, Any] = dict(meta or {})
        self.records: list[TraceRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SolveTrace {self.solver!r} {len(self.records)} records "
            f"phases={sorted(self.phase_iterations())}>"
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    @property
    def iteration_count(self) -> int:
        """Total traced iterations (equals the solver's iteration total)."""
        return len(self.records)

    def phase_iterations(self) -> dict[int, int]:
        """Phase number -> number of traced iterations in that phase."""
        out: dict[int, int] = {}
        for r in self.records:
            out[r.phase] = out.get(r.phase, 0) + 1
        return out

    def phase_seconds(self) -> dict[str, float]:
        """Solver-section name -> total modeled seconds across the trace."""
        out: dict[str, float] = {}
        for r in self.records:
            for name, seconds in r.sections.items():
                out[name] = out.get(name, 0.0) + seconds
        return out

    def objective_series(self, phase: int | None = None) -> list[float]:
        """Objective values of pivot/flip records (optionally one phase)."""
        return [
            r.objective
            for r in self.records
            if r.event in PIVOT_EVENTS
            and not math.isnan(r.objective)
            and (phase is None or r.phase == phase)
        ]

    def degenerate_count(self) -> int:
        """Number of degenerate (θ ≈ 0) pivots recorded."""
        return sum(1 for r in self.records if r.degenerate)

    def summary(self) -> str:
        """ASCII convergence / per-phase summary (see :mod:`repro.trace.render`)."""
        from repro.trace.render import render_summary

        return render_summary(self)


class TraceCollector:
    """The hook a solver writes iteration records through.

    ``clock`` returns the solver's modeled time (device clock for GPU
    solvers, :class:`~repro.perfmodel.cpu_model.CpuCostRecorder` total for
    CPU solvers); ``sections`` returns the cumulative per-section seconds
    dict of the same machine.  Both are sampled when the collector is
    created and again at every :meth:`record` call, so each record carries
    exactly the deltas of its own iteration.  Reading the clock/sections
    never charges modeled time itself (they are plain attribute reads), so
    collecting a trace cannot perturb the numbers it observes.
    """

    def __init__(
        self,
        solver: str,
        *,
        clock: Callable[[], float],
        sections: Callable[[], dict[str, float]] | None = None,
        meta: dict[str, Any] | None = None,
    ):
        self.trace = SolveTrace(solver, meta)
        self._clock = clock
        self._sections = sections
        self._t_prev = float(clock())
        self._sections_prev: dict[str, float] = (
            dict(sections()) if sections is not None else {}
        )

    def record(self, **fields: Any) -> TraceRecord:
        """Append one record; ``fields`` are :class:`TraceRecord` fields
        minus the timing ones, which the collector fills in from the clock
        and section deltas since the previous record."""
        now = float(self._clock())
        sections_delta: dict[str, float] = {}
        if self._sections is not None:
            current = dict(self._sections())
            for name, total in current.items():
                delta = total - self._sections_prev.get(name, 0.0)
                if delta > 0.0:
                    sections_delta[name] = delta
            self._sections_prev = current
        rec = TraceRecord(
            t_start=self._t_prev,
            t_end=now,
            sections=sections_delta,
            **fields,
        )
        self._t_prev = now
        self.trace.records.append(rec)
        return rec
