"""Tests for the per-iteration solver tracing subsystem (repro.trace).

The contract under test:

1. every solve method, with ``trace=True``, attaches a ``SolveTrace`` whose
   record count equals the solver's reported iteration total;
2. tracing never perturbs results — status, objective, iteration counts and
   modeled seconds are bit-identical with tracing on and off;
3. the merged Chrome-trace JSON round-trips through ``json.loads`` and
   carries both solver tracks and (for GPU methods) kernel/transfer tracks;
4. the trace aggregates (phase seconds, objective series, summary, batch
   traces) read back what the records hold.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch import solve_batch
from repro.gpu.device import Device
from repro.lp.generators import random_dense_lp
from repro.lp.problem import Bounds, LPProblem
from repro.solve import solve
from repro.trace import (
    PIVOT_EVENTS,
    TERMINAL_EVENTS,
    SolveTrace,
    TraceCollector,
    TraceRecord,
    merged_chrome_trace,
    validate_chrome_trace,
)

ALL_METHODS = (
    "tableau",
    "revised",
    "dual",
    "gpu-revised",
    "gpu-tableau",
)


@pytest.fixture(scope="module")
def lp():
    return random_dense_lp(14, 20, seed=7)


# ---------------------------------------------------------------------------
# 1. one record per counted iteration, for every solver
# ---------------------------------------------------------------------------


class TestIterationInvariant:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_record_count_equals_iteration_total(self, lp, method):
        result = solve(lp, method=method, trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.iterations.total_iterations
        assert result.trace.iteration_count == result.iterations.total_iterations

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_record_fields_well_formed(self, lp, method):
        trace = solve(lp, method=method, trace=True).trace
        for r in trace:
            assert r.event in PIVOT_EVENTS | TERMINAL_EVENTS
            assert r.phase in (1, 2)
            assert r.iteration >= 1
            assert r.seconds >= 0.0
            assert all(v >= 0.0 for v in r.sections.values())
            if r.event == "pivot":
                assert r.entering >= 0
                assert r.leaving_row >= 0
                assert r.pivot != 0.0
                assert r.pricing_rule
        # records are in modeled-clock order
        for a, b in zip(trace, trace.records[1:]):
            assert b.t_start == pytest.approx(a.t_end)

    def test_phase_iterations_match_stats(self, lp):
        result = solve(lp, method="revised", trace=True)
        phases = result.trace.phase_iterations()
        assert phases.get(1, 0) == result.iterations.phase1_iterations
        assert phases.get(2, 0) == result.iterations.phase2_iterations

    def test_no_trace_by_default(self, lp):
        result = solve(lp, method="gpu-revised")
        assert result.trace is None
        assert "trace" not in result.extra

    def test_bound_flips_traced_as_flip_events(self):
        # maximize x with 0 <= x <= 1: the revised methods, which keep the
        # bound out of the rows, flip x to it without a basis change
        lp = LPProblem.minimize(
            c=[-1.0, 0.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[5.0],
            bounds=Bounds(np.array([0.0, 0.0]), np.array([1.0, 5.0])),
        )
        for method in ("revised", "gpu-revised"):
            result = solve(lp, method=method, trace=True)
            assert result.is_optimal
            events = {r.event for r in result.trace}
            assert "flip" in events, method


# ---------------------------------------------------------------------------
# 2. tracing never perturbs the solve
# ---------------------------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    method=st.sampled_from(ALL_METHODS),
    m=st.integers(4, 12),
    extra=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_tracing_is_bit_identical(method, m, extra, seed):
    lp = random_dense_lp(m, m + extra, seed=seed)
    plain = solve(lp, method=method)
    traced = solve(lp, method=method, trace=True)
    assert plain.status == traced.status
    assert plain.iterations.total_iterations == traced.iterations.total_iterations
    assert plain.timing.modeled_seconds == traced.timing.modeled_seconds
    if plain.objective is not None:
        assert plain.objective == traced.objective
        assert np.array_equal(plain.x, traced.x)
    assert len(traced.trace) == traced.iterations.total_iterations


# ---------------------------------------------------------------------------
# 3. the merged Chrome trace
# ---------------------------------------------------------------------------


def _ev(ph, ts=0.0, **extra):
    """A bare async/flow trace event for the validator cases."""
    return {"name": "s", "ph": ph, "pid": 0, "tid": 4, "ts": ts, **extra}


class TestChromeTrace:
    def test_gpu_merge_has_solver_and_kernel_tracks(self, lp):
        dev = Device()
        dev.record_timeline()
        result = solve(lp, method="gpu-revised", trace=True, device=dev)
        text = merged_chrome_trace(result.trace, timeline=dev.timeline)
        doc = json.loads(text)  # round-trips as plain JSON
        assert validate_chrome_trace(text) == doc
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "solver-phase" in cats
        assert "iteration" in cats
        assert "kernel" in cats
        assert "transfer" in cats
        iter_events = [e for e in doc["traceEvents"] if e.get("cat") == "iteration"]
        assert len(iter_events) == result.iterations.total_iterations

    def test_cpu_merge_is_solver_only(self, lp):
        result = solve(lp, method="revised", trace=True)
        doc = validate_chrome_trace(merged_chrome_trace(result.trace))
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "solver-phase" in cats
        assert "kernel" not in cats

    def test_writes_target_file(self, lp, tmp_path):
        result = solve(lp, method="revised", trace=True)
        target = tmp_path / "trace.json"
        text = merged_chrome_trace(result.trace, target=target)
        assert json.loads(target.read_text()) == json.loads(text)

    def test_track_names_metadata(self, lp):
        result = solve(lp, method="revised", trace=True)
        doc = validate_chrome_trace(merged_chrome_trace(result.trace))
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"solver iterations", "solver phases", "kernels", "transfers"} <= names

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace("[1, 2, 3]")
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "k", "ph": "X", "pid": 0, "tid": 0,
                     "ts": 0.0, "dur": -1.0}
                ]}
            )

    def test_validate_accepts_paired_async_and_flow_events(self):
        validate_chrome_trace({"traceEvents": [
            _ev("b", 1.0, id="a"), _ev("b", 2.0, id="a"),  # nested, same id
            _ev("e", 2.0, id="a"), _ev("e", 3.0, id="a"),
            _ev("s", 1.0, id="l"), _ev("f", 2.0, id="l", bp="e"),
        ]})

    @pytest.mark.parametrize(
        "events, match",
        [
            ([_ev("b"), _ev("e")], "needs an id"),
            ([_ev("b", ts="0", id=1)], "numeric ts"),
            ([_ev("b", ts=None, id=1)], "numeric ts"),
            ([_ev("e", id=1)], "closes no open"),
            ([_ev("b", 0.0, id=1), _ev("e", 0.0, id=2)],
             "closes no open"),
            ([_ev("b", 5.0, id=1), _ev("e", 4.0, id=1)],
             "ends before its 'b'"),
            ([_ev("b", 0.0, id=1)], "never closed"),
            ([_ev("s", id="l")], "s/f partner"),
            ([_ev("f", id="l")], "s/f partner"),
            ([_ev("s", id="l"), _ev("f", id="m")],
             "s/f partner"),
        ],
    )
    def test_validate_rejects_unpaired_async_and_flow_events(
        self, events, match
    ):
        with pytest.raises(ValueError, match=match):
            validate_chrome_trace({"traceEvents": events})


# ---------------------------------------------------------------------------
# 4. aggregation/rendering
# ---------------------------------------------------------------------------


class TestLegacyAndAggregation:
    def test_phase_seconds_cover_modeled_time(self, lp):
        result = solve(lp, method="gpu-revised", trace=True)
        sections = result.trace.phase_seconds()
        assert sections
        assert sum(sections.values()) <= result.timing.modeled_seconds * (1 + 1e-9)

    def test_objective_series_monotone_for_phase2(self, lp):
        trace = solve(lp, method="revised", trace=True).trace
        series = trace.objective_series(phase=2)
        assert series  # minimisation: internal objective never increases
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))

    def test_summary_renders(self, lp):
        trace = solve(lp, method="gpu-revised", trace=True).trace
        text = trace.summary()
        assert "gpu-revised" in text
        assert "phase 2" in text
        assert "exit=optimal" in text

    def test_batch_trace_aggregation(self):
        lps = [random_dense_lp(8, 12, seed=s) for s in range(4)]
        batch = solve_batch(lps, method="gpu-revised", trace=True)
        assert len(batch.traces) == 4
        breakdown = batch.phase_breakdown()
        assert breakdown
        assert sum(breakdown.values()) == pytest.approx(
            sum(sum(t.phase_seconds().values()) for t in batch.traces)
        )
        untraced = solve_batch(lps, method="gpu-revised")
        assert untraced.traces == []
        assert untraced.phase_breakdown() == {}


# ---------------------------------------------------------------------------
# 5. the collector itself
# ---------------------------------------------------------------------------


class TestTraceCollector:
    def test_deltas_between_records(self):
        clock = {"t": 1.0}
        sections = {"pricing": 0.5}
        tr = TraceCollector(
            "test", clock=lambda: clock["t"], sections=lambda: sections
        )
        clock["t"] = 1.25
        sections["pricing"] = 0.6
        sections["ratio"] = 0.1
        r1 = tr.record(phase=1, iteration=1)
        assert r1.t_start == 1.0 and r1.t_end == 1.25
        assert r1.seconds == pytest.approx(0.25)
        assert r1.sections == pytest.approx({"pricing": 0.1, "ratio": 0.1})
        clock["t"] = 1.5
        r2 = tr.record(phase=1, iteration=2, event="optimal")
        assert r2.t_start == 1.25 and r2.sections == {}
        assert len(tr.trace) == 2

    def test_record_defaults(self):
        r = TraceRecord(phase=2, iteration=3)
        assert r.event == "pivot"
        assert r.entering == -1 and r.leaving_var == -1
        assert math.isnan(r.objective)

    def test_trace_indexing(self):
        trace = SolveTrace("s", meta={"m": 1})
        assert len(trace) == 0 and list(trace) == []
        assert trace.meta == {"m": 1}

    def test_rule_label(self):
        """Every rule the simplex loop holds names itself in trace records."""
        from repro.simplex.pricing import DevexRule, StallSwitch, SteepestEdgeRule

        assert StallSwitch("dantzig", 4).label == "dantzig"
        assert StallSwitch("bland", 4).label == "bland"
        hybrid = StallSwitch("hybrid", 1)
        assert hybrid.label == "hybrid:dantzig"
        hybrid.notify(improved=False)
        assert hybrid.label == "hybrid:bland"
        assert DevexRule().label == "devex"
        assert SteepestEdgeRule().label == "steepest-edge"


# ---------------------------------------------------------------------------
# device-timeline starts in the merged Chrome trace
# ---------------------------------------------------------------------------


class TestTimelineStarts:
    def test_recorded_starts_are_honored(self):
        """Events with overlapping starts keep them: the exporter places
        every event at its recorded start, never at a cumulative sum."""
        from repro.gpu.device import TimelineEvent

        events = [
            TimelineEvent("kernel", "lane0", 0.004, threads=64, start=0.0),
            TimelineEvent("kernel", "lane1", 0.004, threads=64, start=0.001),
            TimelineEvent("htod", "transfer", 0.002, nbytes=8, start=0.002),
        ]
        doc = validate_chrome_trace(
            merged_chrome_trace(SolveTrace("replay"), timeline=events)
        )
        out = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["ts"] for e in out] == [0.0, 1000.0, 2000.0]
        assert [e["cat"] for e in out] == ["kernel", "kernel", "transfer"]
        # lanes 0 and 1 overlap on the trace: [0, 4ms) vs [1ms, 5ms)
        assert out[0]["ts"] + out[0]["dur"] > out[1]["ts"]

    def test_device_records_serialized_starts(self):
        """The device itself serialises work, so its recorded starts equal
        the cumulative reconstruction — the merged trace is unchanged for
        straight-line solves."""
        dev = Device()
        dev.record_timeline()
        arr = dev.to_device(np.arange(16, dtype=np.float32))
        dev.memset(arr, 0)
        arr.copy_to_host()
        cursor = 0.0
        for ev in dev.timeline:
            assert ev.start == pytest.approx(cursor)
            cursor += ev.seconds
        assert cursor == pytest.approx(dev.clock)

    def test_timeline_accounts_for_a_whole_solve(self):
        """The device timeline is the one device-clock event recorder: over
        a whole solve its seconds sum to the modeled time, and its kernel
        names count exactly the launches in ``Device.stats``."""
        dev = Device()
        dev.record_timeline()
        result = solve(
            random_dense_lp(24, 32, seed=1), method="gpu-revised", device=dev
        )
        assert result.is_optimal
        assert math.fsum(ev.seconds for ev in dev.timeline) == pytest.approx(
            result.timing.modeled_seconds
        )
        counts = Counter(ev.name for ev in dev.timeline if ev.kind == "kernel")
        assert counts == {
            name: rec.launches for name, rec in dev.stats.by_kernel.items()
        }
