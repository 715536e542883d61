"""Tests for request-scoped span tracing (repro.obs).

The contract under test:

1. **zero overhead / non-perturbation** — with no recorder installed every
   emission point is one ``is None`` check, and with one installed, solver
   and serving results are bit-identical to an unobserved run;
2. **well-formed span trees** — every kept trace has exactly one root,
   resolvable parent links, and children contained in their parents'
   intervals (``ObsRecording.validate``);
3. **deterministic sampling** — head sampling is a pure hash of the trace
   id, tail exemplars (bad outcomes, the slowest quantile) always survive,
   linked solve traces inherit their job's decision;
4. **exporters** — the JSON schema round-trips, the ASCII tree renders,
   and the Chrome async/flow events pass ``validate_chrome_trace`` both
   standalone and merged into the four-track solver trace;
5. **attribution** — the six buckets sum exactly (<= 1e-9) to each
   executed job's modeled latency, for GPU and CPU methods alike.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lp.generators import random_dense_lp
from repro.obs import (
    BUCKETS,
    ObsRecorder,
    SamplingPolicy,
    attribute,
    chrome_span_events,
    execute_breakdown,
    from_json,
    head_keep,
    observing,
    render_tree,
    serve_chrome_trace,
    to_json,
)
from repro.obs.sampling import (
    DROPPED,
    KEEP_LINKED,
    KEEP_TAIL_OUTCOME,
    KEEP_TAIL_SLOW,
)
from repro.perfmodel.presets import GTX280_PARAMS
from repro.serve import ServeConfig, serve_trace, synthetic_trace
from repro.solve import solve
from repro.trace.chrome import merged_chrome_trace, validate_chrome_trace

ALL_METHODS = (
    "tableau",
    "revised",
    "revised-bounded",
    "dual",
    "gpu-revised",
    "gpu-revised-bounded",
    "gpu-tableau",
    "pdlp",
)


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    yield
    obs.disable()


@pytest.fixture(scope="module")
def lp():
    return random_dense_lp(14, 20, seed=7)


@pytest.fixture(scope="module")
def served():
    """One observed serving replay shared by the read-only tests."""
    with observing():
        report = serve_trace(
            synthetic_trace(n_jobs=10, seed=3), ServeConfig(n_devices=2)
        )
    return report


# ---------------------------------------------------------------------------
# 1. zero overhead / non-perturbation
# ---------------------------------------------------------------------------


class TestZeroOverhead:
    def test_disabled_by_default(self):
        assert obs.active() is None
        assert not obs.enabled()

    def test_observing_restores_previous_recorder(self):
        outer = obs.enable()
        with observing() as inner:
            assert obs.active() is inner
            assert inner is not outer
        assert obs.active() is outer
        obs.disable()
        assert obs.active() is None

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_solve_bit_identical_with_recorder(self, lp, method):
        obs.disable()
        plain = solve(lp, method=method)
        with observing():
            observed = solve(lp, method=method)
        assert plain.status == observed.status
        assert (
            plain.iterations.total_iterations
            == observed.iterations.total_iterations
        )
        assert plain.timing.modeled_seconds == observed.timing.modeled_seconds
        if plain.objective is not None:
            assert plain.objective == observed.objective
            assert np.array_equal(plain.x, observed.x)

    def test_serve_bit_identical_with_recorder(self):
        trace = synthetic_trace(n_jobs=6, seed=11)
        config = ServeConfig(n_devices=2)
        plain = serve_trace(trace, config)
        with observing():
            observed = serve_trace(trace, config)
        assert plain.span_seconds == observed.span_seconds
        assert plain.latencies() == observed.latencies()
        assert [j.state for j in plain.jobs] == [
            j.state for j in observed.jobs
        ]
        assert plain.obs_recording is None
        assert observed.obs_recording is not None


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    method=st.sampled_from(ALL_METHODS),
    m=st.integers(4, 12),
    extra=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_observation_is_bit_identical_property(method, m, extra, seed):
    lp = random_dense_lp(m, m + extra, seed=seed)
    obs.disable()
    plain = solve(lp, method=method)
    with observing():
        observed = solve(lp, method=method)
    assert plain.status == observed.status
    assert plain.timing.modeled_seconds == observed.timing.modeled_seconds
    if plain.objective is not None:
        assert plain.objective == observed.objective
        assert np.array_equal(plain.x, observed.x)


# ---------------------------------------------------------------------------
# 2. span-tree well-formedness
# ---------------------------------------------------------------------------


class TestSpanTrees:
    def test_every_kept_trace_is_a_tree(self, served):
        recording = served.obs_recording
        recording.validate()  # single roots + parent containment
        for trace_id in recording.trace_ids():
            root = recording.tree(trace_id)
            assert root.span.parent_id is None

    def test_job_lifecycle_spans(self, served):
        recording = served.obs_recording
        job_ids = [t for t in recording.trace_ids() if t.startswith("job-")]
        assert job_ids
        for trace_id in job_ids:
            root = recording.tree(trace_id)
            assert root.span.name == "serve.job"
            names = {node.span.name for node in root.children}
            assert "serve.submit" in names
            if recording.outcomes[trace_id] in ("completed", "deadline-missed"):
                assert {"queue.wait", "placement", "device.execute"} <= names

    def test_engine_solve_traces_link_to_jobs(self, served):
        recording = served.obs_recording
        solve_ids = [
            t for t in recording.trace_ids() if t.startswith("solve-")
        ]
        assert solve_ids
        for trace_id in solve_ids:
            assert recording.links[trace_id].startswith("job-")
            root = recording.tree(trace_id)
            assert root.span.name == "engine.solve"
            assert root.span.attrs["clock"] == "solve"
            phases = [
                n for n in root.children if n.span.name == "engine.phase"
            ]
            assert phases, f"{trace_id} has no engine.phase spans"

    def test_window_and_batch_traces(self, served):
        recording = served.obs_recording
        windows = [
            t for t in recording.trace_ids() if t.startswith("window-")
        ]
        assert windows
        for trace_id in windows:
            assert recording.tree(trace_id).span.name == "dispatch.window"
        batches = [t for t in recording.trace_ids() if t.startswith("batch-")]
        for trace_id in batches:
            root = recording.tree(trace_id)
            assert root.span.name == "batch.schedule"
            lanes = {
                node.span.attrs["lane"]
                for node in root.children
                if node.span.name == "batch.segment"
            }
            assert lanes  # segments carry their stream lane

    def test_pdhg_epoch_spans(self, lp):
        with observing() as rec:
            solve(lp, method="pdlp")
        recording = rec.collect()
        recording.validate()
        (trace_id,) = recording.trace_ids()
        root = recording.tree(trace_id)
        epochs = [n.span for n in root.children if n.span.name == "pdhg.epoch"]
        assert epochs
        assert [e.attrs["epoch"] for e in epochs] == list(
            range(1, len(epochs) + 1)
        )
        for first, second in zip(epochs, epochs[1:]):
            assert second.t_start >= first.t_end - 1e-12

    def test_refactor_spans_inside_engine_solve(self):
        # short refactor period so the solver refactorizes at least once
        lp = random_dense_lp(24, 36, seed=5)
        with observing() as rec:
            solve(lp, method="gpu-revised", refactor_period=5)
        recording = rec.collect()
        recording.validate()
        (trace_id,) = recording.trace_ids()
        root = recording.tree(trace_id)
        refactors = [
            n.span for n in root.children if n.span.name == "engine.refactor"
        ]
        assert refactors
        for sp in refactors:
            assert root.span.t_start <= sp.t_start <= sp.t_end <= root.span.t_end


# ---------------------------------------------------------------------------
# 3. sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_head_keep_is_deterministic(self):
        flips = [head_keep(f"job-{i}", 0.5) for i in range(64)]
        assert flips == [head_keep(f"job-{i}", 0.5) for i in range(64)]
        assert any(flips) and not all(flips)
        assert all(head_keep(f"job-{i}", 1.0) for i in range(64))
        assert not any(head_keep(f"job-{i}", 0.0) for i in range(64))

    def test_tail_outcomes_survive_zero_head_rate(self):
        policy = SamplingPolicy(head_rate=0.0)
        decisions = policy.decide(
            outcomes={"job-0": "completed", "job-1": "rejected"},
            latencies={"job-0": 1.0},
            links={},
        )
        assert decisions["job-1"] == KEEP_TAIL_OUTCOME
        # job-0 is also the slowest completed job -> tail-slow, not dropped
        assert decisions["job-0"] == KEEP_TAIL_SLOW

    def test_slowest_quantile_kept(self):
        policy = SamplingPolicy(head_rate=0.0, tail_slowest_quantile=0.99)
        outcomes = {f"job-{i}": "completed" for i in range(10)}
        latencies = {f"job-{i}": float(i) for i in range(10)}
        decisions = policy.decide(outcomes, latencies, {})
        assert decisions["job-9"] == KEEP_TAIL_SLOW
        assert (
            sum(1 for d in decisions.values() if d == DROPPED) >= 8
        )

    def test_linked_traces_inherit_parent_decision(self):
        policy = SamplingPolicy(head_rate=0.0)
        decisions = policy.decide(
            outcomes={
                "job-0": "rejected",
                "solve-0": "optimal",
                "job-1": "completed",
                "job-2": "completed",
                "solve-1": "optimal",
            },
            latencies={"job-1": 1.0, "job-2": 2.0},
            links={"solve-0": "job-0", "solve-1": "job-1"},
        )
        assert decisions["solve-0"] == KEEP_LINKED
        assert decisions["job-1"] == DROPPED  # job-2 is the slow exemplar
        assert decisions["solve-1"] == DROPPED

    def test_dropped_traces_lose_their_spans(self):
        policy = SamplingPolicy(head_rate=0.0, tail_slowest_quantile=1.0)
        with observing(policy=policy):
            report = serve_trace(
                synthetic_trace(n_jobs=6, seed=3),
                ServeConfig(n_devices=1, n_streams=2),
            )
        recording = report.obs_recording
        assert recording.dropped_traces > 0
        assert recording.kept_traces >= 1  # the slowest exemplar survives
        kept = {sp.trace_id for sp in recording.spans}
        for trace_id, decision in recording.decisions.items():
            if decision == DROPPED:
                assert trace_id not in kept
        recording.validate()

    def test_sampling_decisions_are_replayable(self):
        policy = SamplingPolicy(head_rate=0.5)
        runs = []
        for _ in range(2):
            with observing(policy=SamplingPolicy(head_rate=0.5)):
                report = serve_trace(
                    synthetic_trace(n_jobs=6, seed=3),
                    ServeConfig(n_devices=1, n_streams=2),
                )
            runs.append(report.obs_recording.decisions)
        assert runs[0] == runs[1]
        assert policy == SamplingPolicy(head_rate=0.5)  # frozen/valued


# ---------------------------------------------------------------------------
# 4. exporters
# ---------------------------------------------------------------------------


class TestExport:
    def test_json_round_trip(self, served):
        recording = served.obs_recording
        back = from_json(to_json(recording))
        assert to_json(back) == to_json(recording)
        assert back.outcomes == recording.outcomes
        assert back.decisions == recording.decisions
        back.validate()

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            from_json('{"schema": "repro-obs/v999", "spans": []}')

    def test_render_tree_shows_lifecycle(self, served):
        recording = served.obs_recording
        job_id = next(
            t for t in recording.trace_ids() if t.startswith("job-")
        )
        text = render_tree(recording, job_id)
        assert "serve.job" in text
        assert "serve.submit" in text
        everything = render_tree(recording)
        assert "engine.solve" in everything

    def test_chrome_span_events_validate(self, served):
        recording = served.obs_recording
        events = chrome_span_events(recording)
        doc = validate_chrome_trace(
            '{"traceEvents": ' + __import__("json").dumps(events) + "}"
        )
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"b", "e", "s", "f"} <= phases
        # every async begin has a matching end with the same id
        begins = {e["id"] for e in doc["traceEvents"] if e["ph"] == "b"}
        ends = {e["id"] for e in doc["traceEvents"] if e["ph"] == "e"}
        assert begins == ends

    def test_merged_chrome_trace_with_spans(self, lp):
        with observing() as rec:
            result = solve(lp, method="gpu-revised", trace=True)
        recording = rec.collect()
        (trace_id,) = recording.trace_ids()
        text = merged_chrome_trace(
            result.trace,
            span_events=chrome_span_events(recording, [trace_id]),
        )
        doc = validate_chrome_trace(text)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "request spans" in names
        assert any(e.get("cat") == "span" for e in doc["traceEvents"])

    def test_serve_chrome_trace_validates_and_rebases(self, served):
        recording = served.obs_recording
        doc = validate_chrome_trace(serve_chrome_trace(recording))
        spans = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert spans
        assert any(e["name"] == "dispatch" for e in doc["traceEvents"])
        # rebased solve roots start inside their job's execute slice
        executes = {
            solve_id: e
            for e in doc["traceEvents"]
            if e["ph"] == "b" and e["name"] == "device.execute"
            for solve_id in e["args"].get("solves", ())
        }
        for e in doc["traceEvents"]:
            if e["ph"] != "b" or e["name"] != "engine.solve":
                continue
            owner = executes.get(e["args"]["trace_id"])
            if owner is not None:
                assert e["ts"] >= owner["ts"] - 1e-3


# ---------------------------------------------------------------------------
# 5. attribution
# ---------------------------------------------------------------------------


class TestAttribution:
    def test_buckets_sum_exactly_to_latency(self, served):
        attr = served.attribution()
        assert attr.jobs
        for job in attr.jobs:
            assert set(job.buckets) == set(BUCKETS)
            total = sum(job.buckets.values())
            assert abs(total - job.latency_seconds) <= 1e-9
            assert job.coverage >= 0.95

    def test_report_totals_and_render(self, served):
        attr = served.attribution()
        totals = attr.totals()
        assert abs(sum(totals.values()) - attr.total_latency()) <= 1e-9
        text = attr.render(per_job=True)
        assert "fleet-wide latency attribution" in text
        assert "per-job decomposition" in text
        for bucket in BUCKETS:
            assert bucket in text

    def test_cpu_method_lands_in_compute(self):
        with observing():
            report = serve_trace(
                synthetic_trace(n_jobs=4, seed=2),
                ServeConfig(n_devices=2, method="revised"),
            )
        attr = report.attribution()
        assert attr.jobs
        for job in attr.jobs:
            assert job.buckets["transfer"] == 0.0
            assert job.buckets["launch_overhead"] == 0.0
            assert abs(
                sum(job.buckets.values()) - job.latency_seconds
            ) <= 1e-9

    def test_attribution_requires_a_recording(self):
        report = serve_trace(
            synthetic_trace(n_jobs=2, seed=1), ServeConfig(n_devices=1)
        )
        assert report.obs_recording is None
        with pytest.raises(Exception, match="recording"):
            report.attribution()

    def test_execute_breakdown_refactor_exclusion(self):
        ev = dataclasses.make_dataclass(
            "Ev", ["kind", "name", "seconds", "start"]
        )
        events = [
            ev("kernel", "k0", 0.004, 0.0),      # outside: launch-capped
            ev("htod", "transfer", 0.002, 0.004),  # inside refactor window
            ev("kernel", "k1", 0.003, 0.006),    # inside refactor window
            ev("dtoh", "transfer", 0.001, 0.009),  # outside: transfer
        ]
        out = execute_breakdown(
            events, launch_overhead=0.001,
            refactor_intervals=[(0.004, 0.009)],
        )
        assert out["refactor_seconds"] == pytest.approx(0.005)
        assert out["transfer_seconds"] == pytest.approx(0.001)
        assert out["launch_seconds"] == pytest.approx(0.001)
        assert out["n_kernels"] == 2 and out["n_transfers"] == 2


@pytest.fixture(
    scope="module", params=[(32, 7), (64, 3)], ids=["n32-seed7", "n64-seed3"]
)
def fleet_replay(request):
    """Replays on a 4-device fleet where rounding once put a job's execute
    slice one ULP before its dispatch (negative ``placement``)."""
    n_jobs, seed = request.param
    with observing():
        return serve_trace(
            synthetic_trace(n_jobs, seed=seed), ServeConfig(n_devices=4)
        )


class TestPlacementClamp:
    def test_no_span_ends_before_it_starts(self, fleet_replay):
        spans = fleet_replay.obs_recording.spans
        assert spans
        assert all(sp.t_end >= sp.t_start for sp in spans)

    def test_buckets_non_negative_and_exact(self, fleet_replay):
        attr = fleet_replay.attribution()
        assert attr.jobs
        for job in attr.jobs:
            assert min(job.buckets.values()) >= 0.0, job
            assert abs(sum(job.buckets.values()) - job.latency_seconds) <= 1e-9

    def test_serve_chrome_trace_validates(self, fleet_replay):
        doc = validate_chrome_trace(
            serve_chrome_trace(fleet_replay.obs_recording)
        )
        assert any(e["name"] == "placement" for e in doc["traceEvents"])


# ---------------------------------------------------------------------------
# satellite: all-rejected traces render n/a quantiles
# ---------------------------------------------------------------------------


class TestAllRejected:
    def _all_rejected_report(self, observe=False):
        tiny_card = dataclasses.replace(GTX280_PARAMS, global_mem_bytes=4096)
        trace = synthetic_trace(n_jobs=3, seed=1, sizes=((32, 48),))
        config = ServeConfig(n_devices=1, gpu_params=tiny_card)
        if observe:
            with observing():
                return serve_trace(trace, config)
        return serve_trace(trace, config)

    def test_summary_renders_na_quantiles(self):
        report = self._all_rejected_report()
        assert len(report.rejected) == len(report.jobs)
        assert not report.latencies()
        assert math.isnan(report.latency_quantile(0.5))
        assert "p50/p95/p99=n/a" in report.summary()

    def test_rejected_jobs_are_unexecuted_exemplars(self):
        report = self._all_rejected_report(observe=True)
        recording = report.obs_recording
        for trace_id, outcome in recording.outcomes.items():
            if trace_id.startswith("job-"):
                assert outcome == "rejected"
                assert recording.decisions[trace_id] == KEEP_TAIL_OUTCOME
                root = recording.tree(trace_id)
                names = {n.span.name for n in root.children}
                assert "serve.reject" in names
        attr = report.attribution()
        assert attr.jobs == []
        assert attr.unexecuted == {"rejected": len(report.jobs)}
