"""Tests for the serving layer (repro.serve).

Covers the four tentpole pieces — admission queue, device fleet placement,
warm-start cache, event loop — plus the serving invariants: answers are
bit-identical to solo solves, fleets beat the sequential baseline on the
canonical trace, and perturbed resubmissions land warm-start cache hits.
"""

import dataclasses

import numpy as np
import pytest

from repro import metrics
from repro.errors import SolverError, UnknownMethodError
from repro.lp.generators import random_dense_lp
from repro.perfmodel.presets import GTX280_PARAMS
from repro.serve import (
    AdmissionQueue,
    DeviceWorker,
    Job,
    JobState,
    LPServer,
    MakespanPredictor,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ServeConfig,
    WarmStartCache,
    estimate_footprint_bytes,
    make_fleet,
    perturb_problem,
    priority_name,
    serve_trace,
    synthetic_trace,
)
from repro.solve import solve


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    yield
    metrics.disable()


def _job(job_id=0, priority=PRIORITY_NORMAL, deadline=None, m=4, n=6):
    return Job(
        job_id=job_id,
        problem=random_dense_lp(m, n, seed=job_id),
        method="gpu-revised",
        priority=priority,
        deadline=deadline,
    )


# ---------------------------------------------------------------------------
# admission queue
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def test_priority_order_fifo_within_level(self):
        q = AdmissionQueue()
        ids = []
        for i, prio in enumerate(
            [PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH,
             PRIORITY_NORMAL, PRIORITY_HIGH]
        ):
            q.push(_job(job_id=i, priority=prio))
        while len(q):
            ids.append(q.pop().job_id)
        # highs first (arrival order), then normals, then the low
        assert ids == [2, 4, 1, 3, 0]

    def test_depth_bound_sheds_load(self):
        q = AdmissionQueue(max_depth=2)
        assert q.push(_job(0)) and q.push(_job(1))
        assert q.full
        assert not q.push(_job(2))
        assert len(q) == 2 and q.admitted == 2

    def test_expire_stale_drops_passed_deadlines(self):
        q = AdmissionQueue()
        q.push(_job(0, priority=PRIORITY_HIGH, deadline=1.0))
        q.push(_job(1, priority=PRIORITY_NORMAL, deadline=5.0))
        dropped = q.expire_stale(now=2.0)
        assert dropped == 1 and q.expired == 1
        survivor = q.pop_ready(now=2.0)
        assert survivor.job_id == 1
        assert q.pop_ready(now=2.0) is None

    def test_expired_job_is_marked(self):
        q = AdmissionQueue()
        job = _job(0, deadline=0.5)
        q.push(job)
        q.expire_stale(now=1.0)
        assert job.state is JobState.EXPIRED
        assert job.finish_time == 1.0

    def test_peek_does_not_dequeue(self):
        q = AdmissionQueue()
        q.push(_job(7))
        assert q.peek().job_id == 7
        assert len(q) == 1

    def test_depth_by_priority(self):
        q = AdmissionQueue()
        for i, prio in enumerate([PRIORITY_HIGH, PRIORITY_HIGH, PRIORITY_LOW]):
            q.push(_job(i, priority=prio))
        assert q.depth_by_priority() == {PRIORITY_HIGH: 2, PRIORITY_LOW: 1}

    def test_bad_depth_rejected(self):
        with pytest.raises(SolverError):
            AdmissionQueue(max_depth=0)


# ---------------------------------------------------------------------------
# warm-start cache
# ---------------------------------------------------------------------------


class TestWarmStartCache:
    def test_miss_then_hit(self):
        cache = WarmStartCache()
        assert cache.get("fp") is None
        cache.put("fp", np.array([1, 2, 3]))
        got = cache.get("fp")
        assert got.tolist() == [1, 2, 3]
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_returns_a_copy(self):
        cache = WarmStartCache()
        basis = np.array([1, 2, 3])
        cache.put("fp", basis)
        basis[0] = 99  # caller mutation does not poison the cache
        first = cache.get("fp")
        first[1] = 99  # nor does mutating the returned copy
        assert cache.get("fp").tolist() == [1, 2, 3]

    def test_lru_eviction(self):
        cache = WarmStartCache(capacity=2)
        cache.put("a", np.array([1]))
        cache.put("b", np.array([2]))
        cache.get("a")  # refresh a: b becomes the LRU entry
        cache.put("c", np.array([3]))
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.evictions == 1

    def test_refresh_does_not_evict(self):
        cache = WarmStartCache(capacity=2)
        cache.put("a", np.array([1]))
        cache.put("b", np.array([2]))
        cache.put("a", np.array([9]))  # refresh, not insert
        assert cache.evictions == 0
        assert cache.get("a").tolist() == [9]

    def test_overflow_stays_bounded_through_server(self):
        # Regression: the cache grew without bound — one entry per distinct
        # structure ever served.  A replay over more structures than the
        # configured capacity must end with len(cache) == capacity, the
        # overflow counted as evictions, and the eviction metric emitted.
        from repro import metrics

        config = ServeConfig(n_devices=1, cache_capacity=3, method="gpu-revised")
        with metrics.collecting() as reg:
            server = LPServer(config)
            for i in range(6):
                # distinct shapes -> distinct structural fingerprints
                server.submit(random_dense_lp(8 + i, 12 + i, seed=i))
            server.run()
        assert len(server.cache) == 3
        assert server.cache.capacity == 3
        assert server.cache.stores == 6
        assert server.cache.evictions == 3
        assert reg.get("repro_serve_cache_evictions_total") is not None

    def test_summary_and_len(self):
        cache = WarmStartCache(capacity=4)
        cache.put("a", np.array([1]))
        assert len(cache) == 1
        assert "1/4" in cache.summary()

    def test_bad_capacity(self):
        with pytest.raises(SolverError):
            WarmStartCache(capacity=0)


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


class TestFleet:
    def test_footprint_grows_with_problem(self):
        small = estimate_footprint_bytes(random_dense_lp(8, 12, seed=1))
        large = estimate_footprint_bytes(random_dense_lp(64, 96, seed=1))
        assert 0 < small < large

    def test_footprint_method_sensitivity(self):
        lp = random_dense_lp(32, 48, seed=2)
        revised = estimate_footprint_bytes(lp, "gpu-revised")
        tableau = estimate_footprint_bytes(lp, "gpu-tableau")
        assert tableau > revised  # the full tableau dwarfs B^-1

    def test_make_fleet_names_and_validation(self):
        fleet = make_fleet(3)
        assert [d.name for d in fleet] == ["dev0", "dev1", "dev2"]
        assert all(d.device is not None for d in fleet)
        with pytest.raises(SolverError):
            make_fleet(0)

    def test_cpu_worker_has_no_device(self):
        worker = DeviceWorker("w0", on_gpu=False)
        assert worker.device is None
        assert worker.idle_at(0.0)

    def test_utilization_clamped(self):
        worker = DeviceWorker("w0")
        worker.busy_seconds = 2.0
        assert worker.utilization(1.0) == 1.0
        assert worker.utilization(4.0) == pytest.approx(0.5)
        assert worker.utilization(0.0) == 0.0

    def test_predictor_running_mean(self):
        pred = MakespanPredictor()
        lp = random_dense_lp(16, 24, seed=3)
        assert pred.predict(lp, "gpu-revised") == 0.0  # unseen: no estimate
        pred.observe(lp, "gpu-revised", 1.0)
        pred.observe(lp, "gpu-revised", 3.0)
        assert pred.predict(lp, "gpu-revised") == pytest.approx(2.0)
        # similar sizes share a bucket; different magnitudes do not
        near = random_dense_lp(17, 25, seed=4)
        far = random_dense_lp(128, 192, seed=4)
        assert pred.predict(near, "gpu-revised") == pytest.approx(2.0)
        # an unseen bucket of an observed method extrapolates by the work
        # ratio instead of claiming 0.0 ("free") — 16x24 to 128x192 is
        # three log2 steps in each dimension, so 2.0 * 2**6
        assert pred.predict(far, "gpu-revised") == pytest.approx(128.0)
        assert pred.predict(lp, "revised") == 0.0  # per-method
        assert len(pred) == 1

    def test_predictor_extrapolates_from_nearest_bucket(self):
        # Regression: a job bigger than every observed bucket used to
        # predict 0.0 and bypass deadline admission control entirely.
        pred = MakespanPredictor()
        small = random_dense_lp(16, 24, seed=3)
        mid = random_dense_lp(32, 48, seed=3)
        huge = random_dense_lp(256, 384, seed=3)
        pred.observe(small, "gpu-revised", 1.0)
        pred.observe(mid, "gpu-revised", 4.0)
        # nearest bucket wins: 32x48 -> 256x384 is 3+3 log2 steps
        assert pred.predict(huge, "gpu-revised") == pytest.approx(4.0 * 2**6)
        # estimate grows monotonically with the size gap
        assert pred.predict(huge, "gpu-revised") > pred.predict(
            mid, "gpu-revised"
        )
        # scaling down works too (smaller than every observed bucket)
        tiny = random_dense_lp(4, 6, seed=3)
        assert 0.0 < pred.predict(tiny, "gpu-revised") < 1.0


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


class TestLPServer:
    def test_single_job_matches_solo_solve(self):
        lp = random_dense_lp(16, 24, seed=10)
        server = LPServer(ServeConfig(n_devices=1))
        job = server.submit(lp)
        report = server.run()
        solo = solve(lp, method="gpu-revised")
        assert job.state is JobState.COMPLETED
        assert job.result.objective == solo.objective
        assert job.result.status is solo.status
        assert job.latency_seconds > 0.0
        assert report.span_seconds >= job.finish_time - 1e-15

    def test_unknown_method_rejected(self):
        with pytest.raises(UnknownMethodError):
            LPServer(ServeConfig(method="not-a-method"))

    def test_submit_validation(self):
        server = LPServer()
        with pytest.raises(SolverError):
            server.submit(random_dense_lp(4, 6, seed=0), timeout=0.0)
        server.clock = 1.0
        with pytest.raises(SolverError):
            server.submit(random_dense_lp(4, 6, seed=0), at=0.5)

    def test_priority_wins_under_backlog(self):
        # one busy device: a later HIGH submission dispatches before the
        # earlier LOW ones queued behind the running job
        server = LPServer(ServeConfig(n_devices=1, n_streams=1))
        server.submit(random_dense_lp(16, 24, seed=20), at=0.0)
        low = [
            server.submit(random_dense_lp(16, 24, seed=21 + i),
                          at=1e-4, priority=PRIORITY_LOW)
            for i in range(2)
        ]
        high = server.submit(random_dense_lp(16, 24, seed=30),
                             at=2e-4, priority=PRIORITY_HIGH)
        server.run()
        assert high.dispatch_time < min(j.dispatch_time for j in low)

    def test_queue_full_rejection(self):
        server = LPServer(
            ServeConfig(n_devices=1, n_streams=1, max_queue_depth=1)
        )
        server.submit(random_dense_lp(16, 24, seed=40), at=0.0)
        queued = server.submit(random_dense_lp(16, 24, seed=41), at=1e-5)
        shed = server.submit(random_dense_lp(16, 24, seed=42), at=2e-5)
        report = server.run()
        assert queued.state is JobState.COMPLETED
        assert shed.state is JobState.REJECTED
        assert shed.reject_reason == "queue-full"
        assert shed.result is None
        assert len(report.rejected) == 1

    def test_memory_rejection(self):
        tiny_card = dataclasses.replace(GTX280_PARAMS, global_mem_bytes=4096)
        server = LPServer(ServeConfig(n_devices=2, gpu_params=tiny_card))
        job = server.submit(random_dense_lp(32, 48, seed=50))
        server.run()
        assert job.state is JobState.REJECTED
        assert job.reject_reason == "memory"

    def test_deadline_rejection_at_admission(self):
        # device busy well past the deadline when the job arrives
        server = LPServer(ServeConfig(n_devices=1, n_streams=1))
        server.submit(random_dense_lp(32, 48, seed=60), at=0.0)
        late = server.submit(
            random_dense_lp(32, 48, seed=61), at=1e-5, timeout=1e-5
        )
        server.run()
        assert late.state is JobState.REJECTED
        assert late.reject_reason == "deadline"

    def test_deadline_expiry_in_queue(self):
        # admitted (the deadline looked feasible) but starved by HIGH
        # traffic until the deadline passes: dropped as EXPIRED
        def replay(timeout):
            server = LPServer(ServeConfig(n_devices=1, n_streams=1))
            first = server.submit(random_dense_lp(24, 36, seed=70), at=0.0)
            for i in range(3):
                server.submit(random_dense_lp(24, 36, seed=71 + i),
                              at=1e-4, priority=PRIORITY_HIGH)
            # different size bucket: the predictor has no estimate yet, so
            # admission cannot prove infeasibility and must admit
            starved = server.submit(
                random_dense_lp(6, 9, seed=80), at=2e-4,
                priority=PRIORITY_LOW, timeout=timeout,
            )
            return first, starved, server.run()

        # without a deadline the starved job waits out the modeled service
        # of the four jobs ahead of it; a deadline halfway through expires
        _, unhurried, _ = replay(None)
        wait = unhurried.queue_seconds
        assert unhurried.state is JobState.COMPLETED and wait > 0
        first, starved, report = replay(wait / 2)
        assert first.state is JobState.COMPLETED
        assert starved.state is JobState.EXPIRED
        assert starved.result is None
        assert len(report.expired) == 1

    def test_warm_start_on_structural_repeat(self):
        lp = random_dense_lp(24, 36, seed=90)
        rng = np.random.default_rng(91)
        again = perturb_problem(lp, rng)
        server = LPServer(ServeConfig(n_devices=1, n_streams=1))
        cold = server.submit(lp, at=0.0)
        warm = server.submit(again, at=1e-3)
        server.run()
        assert not cold.warm_started
        assert warm.warm_started
        assert server.cache.hits == 1
        # warm starts never change the answer
        assert warm.result.objective == pytest.approx(
            solve(again, method="gpu-revised").objective
        )

    def test_non_optimal_breaks_chain_and_skips_cache(self):
        base = random_dense_lp(12, 18, seed=100)
        from repro.lp.problem import LPProblem

        infeasible = LPProblem(
            c=base.c, a=base.a_dense(), senses=base.senses,
            b=-np.ones(base.num_constraints), bounds=base.bounds,
            maximize=base.maximize, name="infeasible",
        )
        server = LPServer(ServeConfig(n_devices=1))
        first = server.submit(infeasible, at=0.0)
        second = server.submit(infeasible, at=1e-3)
        server.run()
        assert first.state is JobState.COMPLETED and not first.is_optimal
        assert first.chain_broken and second.chain_broken
        # nothing was cached, so the structural repeat still cold-starts
        assert not second.warm_started
        assert server.cache.hits == 0 and server.cache.stores == 0

    def test_non_warm_start_method_never_touches_cache(self):
        lp = random_dense_lp(8, 12, seed=110)
        server = LPServer(ServeConfig(method="gpu-tableau"))
        server.submit(lp, at=0.0)
        server.submit(lp, at=1e-3)
        server.run()
        assert server.cache.hits + server.cache.misses == 0

    def test_cpu_method_serves(self):
        server = LPServer(ServeConfig(n_devices=2, method="revised"))
        jobs = [
            server.submit(random_dense_lp(10, 15, seed=120 + i), at=i * 1e-5)
            for i in range(4)
        ]
        report = server.run()
        assert all(j.is_optimal for j in jobs)
        assert all(d.device is None for d in report.devices)

    def test_sharding_spreads_jobs(self):
        server = LPServer(ServeConfig(n_devices=2, n_streams=1))
        for i in range(6):
            server.submit(random_dense_lp(16, 24, seed=130 + i), at=0.0)
        report = server.run()
        used = {j.device for j in report.completed}
        assert used == {"dev0", "dev1"}

    def test_windows_respect_stream_width(self):
        server = LPServer(ServeConfig(n_devices=1, n_streams=2))
        for i in range(8):
            server.submit(random_dense_lp(8, 12, seed=140 + i), at=0.0)
        report = server.run()
        dev = report.devices[0]
        assert dev.jobs_done == 8
        assert dev.dispatches >= 4  # windows of at most n_streams=2

    def test_run_is_reusable(self):
        server = LPServer(ServeConfig(n_devices=1))
        a = server.submit(random_dense_lp(8, 12, seed=150))
        server.run()
        b = server.submit(random_dense_lp(8, 12, seed=151))
        report = server.run()
        assert a.state is JobState.COMPLETED
        assert b.state is JobState.COMPLETED
        assert b.submit_time >= a.finish_time
        assert len(report.jobs) == 2


# ---------------------------------------------------------------------------
# traces and the replay harness
# ---------------------------------------------------------------------------


class TestTraces:
    def test_trace_is_deterministic(self):
        t1 = synthetic_trace(n_jobs=12, seed=5)
        t2 = synthetic_trace(n_jobs=12, seed=5)
        assert [e.at for e in t1] == [e.at for e in t2]
        assert [e.priority for e in t1] == [e.priority for e in t2]
        assert [e.problem.fingerprint() for e in t1] == [
            e.problem.fingerprint() for e in t2
        ]

    def test_resubmissions_share_fingerprints(self):
        trace = synthetic_trace(n_jobs=32, seed=0)
        resub = [e for e in trace if e.resubmit_of is not None]
        assert resub  # the default fraction guarantees some
        for entry in resub:
            original = trace[entry.resubmit_of]
            assert entry.problem.fingerprint() == original.problem.fingerprint()
            # but the numbers differ: it is a perturbation, not a copy
            assert not np.array_equal(entry.problem.b, original.problem.b)

    def test_mixed_priorities_and_timeouts(self):
        trace = synthetic_trace(n_jobs=32, seed=1)
        priorities = {e.priority for e in trace}
        assert priorities == {PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW}
        assert any(e.timeout is not None for e in trace)
        assert any(e.timeout is None for e in trace)

    def test_arrivals_increase(self):
        trace = synthetic_trace(n_jobs=16, seed=2)
        ats = [e.at for e in trace]
        assert ats == sorted(ats) and ats[0] > 0.0

    def test_validation(self):
        with pytest.raises(SolverError):
            synthetic_trace(n_jobs=0)
        with pytest.raises(SolverError):
            synthetic_trace(n_jobs=4, resubmit_fraction=1.5)

    def test_perturb_rejects_sparse(self):
        from repro.lp.generators import random_sparse_lp

        with pytest.raises(SolverError):
            perturb_problem(
                random_sparse_lp(16, 24, seed=3), np.random.default_rng(0)
            )


class TestServeTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthetic_trace(n_jobs=16, seed=7)

    def test_fleet_beats_sequential(self):
        # arrivals that outpace one stream: the fleet wins by not queueing
        trace = synthetic_trace(n_jobs=16, seed=7, mean_interarrival=0.0005)
        seq = serve_trace(
            trace, ServeConfig(n_devices=1, n_streams=1, cache_capacity=1)
        )
        fleet = serve_trace(trace, ServeConfig(n_devices=2))
        # the premise: on one stream the last arrival waits behind the queue
        assert seq.jobs[-1].queue_seconds > 0.0
        assert seq.all_optimal and fleet.all_optimal
        assert fleet.span_seconds < seq.span_seconds
        assert fleet.cache_hits >= 1
        assert fleet.latency_quantile(0.95) <= seq.latency_quantile(0.95)

    def test_replay_is_deterministic(self, trace):
        a = serve_trace(trace, ServeConfig(n_devices=2))
        b = serve_trace(trace, ServeConfig(n_devices=2))
        assert a.span_seconds == b.span_seconds
        assert a.latencies() == b.latencies()
        assert [j.device for j in a.jobs] == [j.device for j in b.jobs]

    def test_answers_survive_any_fleet_shape(self, trace):
        solo = {
            i: solve(e.problem, method="gpu-revised").objective
            for i, e in enumerate(trace)
        }
        for n_devices in (1, 3):
            report = serve_trace(trace, ServeConfig(n_devices=n_devices))
            for job in report.completed:
                assert job.result.objective == pytest.approx(
                    solo[job.job_id], rel=1e-9
                )

    def test_report_rendering(self, trace):
        report = serve_trace(trace, ServeConfig(n_devices=2))
        text = report.render()
        assert "dev0" in text and "dev1" in text
        assert "cache:" in text
        assert "served 16/16" in text
        assert report.summary() in text

    def test_config_overrides_kwargs(self, trace):
        report = serve_trace(trace, n_devices=2, method="revised")
        assert report.config.n_devices == 2
        assert report.config.method == "revised"


class TestServeMetrics:
    def test_full_serving_telemetry(self):
        trace = synthetic_trace(n_jobs=12, seed=9)
        with metrics.collecting() as reg:
            serve_trace(trace, ServeConfig(n_devices=2))
            snap = reg.snapshot()
        m = snap["metrics"]
        submitted = sum(
            e["value"] for e in m["repro_serve_jobs_submitted_total"]["series"]
        )
        assert submitted == 12
        assert "repro_serve_queue_depth" in m
        assert "repro_serve_latency_seconds" in m
        lat = m["repro_serve_latency_seconds"]["series"][0]
        assert lat["count"] >= 1
        quantiles = {
            e["labels"]["q"]: e["value"]
            for e in m["repro_serve_latency_quantile_seconds"]["series"]
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert quantiles["0.5"] <= quantiles["0.99"]
        hits = {
            e["labels"]["outcome"]: e["value"]
            for e in m["repro_serve_cache_lookups_total"]["series"]
        }
        assert hits.get("hit", 0) >= 1

    def test_rejections_are_counted(self):
        with metrics.collecting() as reg:
            server = LPServer(
                ServeConfig(n_devices=1, n_streams=1, max_queue_depth=1)
            )
            server.submit(random_dense_lp(16, 24, seed=160), at=0.0)
            server.submit(random_dense_lp(16, 24, seed=161), at=1e-5)
            server.submit(random_dense_lp(16, 24, seed=162), at=2e-5)
            server.run()
            snap = reg.snapshot()
        rejected = snap["metrics"]["repro_serve_jobs_rejected_total"]["series"]
        assert {e["labels"]["reason"]: e["value"] for e in rejected} == {
            "queue-full": 1.0
        }

    def test_disabled_metrics_are_a_noop(self):
        trace = synthetic_trace(n_jobs=6, seed=11)
        baseline = serve_trace(trace, ServeConfig(n_devices=2))
        with metrics.collecting():
            observed = serve_trace(trace, ServeConfig(n_devices=2))
        # collection never perturbs the modeled outcome
        assert observed.span_seconds == baseline.span_seconds
        assert observed.latencies() == baseline.latencies()


class TestPriorityNames:
    def test_known_and_unknown(self):
        assert priority_name(PRIORITY_HIGH) == "high"
        assert priority_name(PRIORITY_NORMAL) == "normal"
        assert priority_name(PRIORITY_LOW) == "low"
        assert priority_name(7) == "7"
