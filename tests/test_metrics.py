"""Tests for the process-wide metrics layer (repro.metrics).

The contract under test:

1. registry primitives — counters / gauges / histograms with labeled
   series, declare-or-fetch semantics, snapshot/diff arithmetic;
2. collection never perturbs a solve — status, objective, pivot sequence
   and modeled seconds are bit-identical with the registry on and off,
   for every solve method (hypothesis property);
3. the instrumentation hooks populate the expected series when enabled
   and are no-ops when disabled;
4. the Prometheus exposition parses under the line-oriented grammar
   checker, and the checker rejects malformed text.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.lp.generators import random_dense_lp
from repro.metrics import (
    MetricsError,
    MetricsRegistry,
    diff_snapshots,
    from_json,
    snapshot_value,
    to_json,
    to_prometheus,
    validate_prometheus_text,
)
from repro.solve import solve

ALL_METHODS = (
    "tableau",
    "revised",
    "dual",
    "gpu-revised",
    "gpu-tableau",
)


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    """Every test leaves the process-wide registry disabled."""
    yield
    metrics.disable()


# ---------------------------------------------------------------------------
# 1. registry primitives
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Hits.", labels=("kind",))
        c.inc(kind="a")
        c.inc(2.5, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3.5
        assert c.value(kind="b") == 1.0
        assert c.value(kind="missing") == 0.0

    def test_rejects_negative(self):
        c = MetricsRegistry().counter("n_total")
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        c = MetricsRegistry().counter("n_total", labels=("kind",))
        with pytest.raises(MetricsError, match="expected labels"):
            c.inc()
        with pytest.raises(MetricsError, match="expected labels"):
            c.inc(kind="a", extra="b")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13.0

    def test_set_max_keeps_peak(self):
        g = MetricsRegistry().gauge("peak")
        g.set_max(10)
        g.set_max(3)
        assert g.value() == 10.0
        g.set_max(12)
        assert g.value() == 12.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1, 5, 10))
        for v in (0.5, 3, 7, 100):
            h.observe(v)
        series = next(h.series_items())[1]
        assert series.bucket_counts == [1, 2, 3]  # cumulative
        assert series.count == 4
        assert series.total == pytest.approx(110.5)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.histogram("h1", buckets=(5, 1))  # unsorted
        with pytest.raises(MetricsError):
            reg.histogram("h2", buckets=(1, 1, 2))  # duplicate
        with pytest.raises(MetricsError):
            reg.histogram("h3", buckets=())  # empty


class TestQuantileEstimation:
    """Bucket-based quantile estimation (histogram_quantile semantics):
    linear interpolation within the bucket containing the target rank."""

    def test_uniform_known_values(self):
        # values 1..100 into decade buckets: the estimate is exact at
        # every bucket-aligned quantile
        h = MetricsRegistry().histogram(
            "lat", buckets=tuple(float(b) for b in range(10, 101, 10))
        )
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.0)
        assert h.quantile(0.95) == pytest.approx(95.0)
        assert h.quantile(0.99) == pytest.approx(99.0)
        assert h.quantile(0.1) == pytest.approx(10.0)
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_interpolation_within_bucket(self):
        # 4 observations all landing in (10, 20]: the median interpolates
        # to the midpoint of the bucket's fill
        h = MetricsRegistry().histogram("lat", buckets=(10.0, 20.0))
        for v in (12, 14, 16, 18):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(15.0)
        assert h.quantile(0.25) == pytest.approx(12.5)

    def test_first_bucket_anchors_at_zero(self):
        # latency-style buckets: the first bucket's lower edge is 0
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.07)
        assert h.quantile(0.5) == pytest.approx(0.05)

    def test_overflow_clamps_to_last_bound(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 10.0, 20.0):  # two in the +Inf overflow bucket
            h.observe(v)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_empty_and_absent_series_are_nan(self):
        empty = MetricsRegistry().histogram("lat")
        assert math.isnan(empty.quantile(0.5))
        h = MetricsRegistry().histogram("lab", labels=("k",))
        h.observe(1.0, k="a")
        assert math.isnan(h.quantile(0.5, k="missing"))
        assert not math.isnan(h.quantile(0.5, k="a"))

    def test_bad_q_rejected(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(MetricsError):
            h.quantile(1.5)
        with pytest.raises(MetricsError):
            h.quantile(-0.1)

    def test_module_level_quantile_on_snapshot_series(self):
        from repro.metrics import bucket_quantile, quantile

        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(10.0, 20.0, 30.0))
        for v in (5.0, 15.0, 25.0, 28.0):
            h.observe(v)
        # Histogram object and its snapshot representation agree
        series = reg.snapshot()["metrics"]["lat"]["series"][0]
        assert quantile(h, 0.5) == pytest.approx(quantile(series, 0.5))
        # ...and both match the raw bucket computation
        assert quantile(series, 0.5) == pytest.approx(
            bucket_quantile((10.0, 20.0, 30.0), (1, 2, 4), 4, 0.5)
        )
        with pytest.raises(MetricsError):
            quantile({"count": 3}, 0.5)

    def test_empty_histogram_quantile_is_nan(self):
        # Regression guard: a quantile of a histogram with zero
        # observations must be NaN, not a ZeroDivisionError and not 0.0
        # (which would read as "instant latency" on a dashboard).
        from repro.metrics import bucket_quantile

        assert math.isnan(bucket_quantile((1.0, 2.0), (0, 0), 0, 0.5))
        assert math.isnan(bucket_quantile((), (), 0, 0.99))
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))

    def test_single_observation_quantile(self):
        # One observation: every quantile interpolates inside the bucket
        # that holds it — bounded by the bucket's edges, never NaN.
        from repro.metrics import bucket_quantile

        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)
        for q in (0.0, 0.5, 0.99, 1.0):
            est = h.quantile(q)
            assert 1.0 <= est <= 2.0, (q, est)
        # and the raw-bucket computation agrees
        assert bucket_quantile((1.0, 2.0, 4.0), (0, 1, 1), 1, 1.0) == pytest.approx(
            2.0
        )

    def test_estimate_brackets_true_quantile(self):
        # against a known distribution: the bucket estimate always lands
        # inside the bucket holding the true quantile
        rng = np.random.default_rng(42)
        values = rng.exponential(0.1, size=2000)
        buckets = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)
        h = MetricsRegistry().histogram("lat", buckets=buckets)
        for v in values:
            h.observe(float(v))
        for q in (0.5, 0.9, 0.95, 0.99):
            true_q = float(np.quantile(values, q))
            est = h.quantile(q)
            hi = next((b for b in buckets if b >= true_q), buckets[-1])
            lo_candidates = [b for b in buckets if b < true_q]
            lo = lo_candidates[-1] if lo_candidates else 0.0
            assert lo <= est <= hi, (q, est, true_q)


class TestRegistry:
    def test_declare_or_fetch_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "X.", labels=("k",))
        b = reg.counter("x_total", "ignored", labels=("k",))
        assert a is b

    def test_redeclaration_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("k",))
        with pytest.raises(MetricsError, match="already registered"):
            reg.gauge("x_total", labels=("k",))
        with pytest.raises(MetricsError, match="already registered"):
            reg.counter("x_total", labels=("other",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.counter("0bad")
        with pytest.raises(MetricsError):
            reg.counter("ok_total", labels=("bad-label",))

    def test_reset_drops_series_keeps_declarations(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        reg.reset()
        assert c.value() == 0.0
        assert reg.get("x_total") is c


class TestSnapshotAndDiff:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "C.", labels=("k",)).inc(3, k="a")
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1, 10)).observe(4)
        return reg

    def test_snapshot_layout(self):
        snap = self._registry().snapshot()
        assert snap["schema"] == metrics.SNAPSHOT_SCHEMA
        c = snap["metrics"]["c_total"]
        assert c["type"] == "counter"
        assert c["series"] == [{"labels": {"k": "a"}, "value": 3.0}]
        h = snap["metrics"]["h"]["series"][0]
        assert h["buckets"] == {"1.0": 0, "10.0": 1}
        assert h["count"] == 1

    def test_diff_counters_subtract_gauges_keep_after(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.counter("c_total", labels=("k",)).inc(2, k="a")
        reg.gauge("g").set(99)
        reg.histogram("h", buckets=(1, 10)).observe(0.5)
        delta = diff_snapshots(before, reg.snapshot())
        assert snapshot_value(delta, "c_total", k="a") == 2.0
        assert snapshot_value(delta, "g") == 99.0  # a gauge is a level
        h = delta["metrics"]["h"]["series"][0]
        assert h["count"] == 1
        assert h["buckets"] == {"1.0": 1, "10.0": 1}

    def test_new_series_pass_through_diff(self):
        reg = self._registry()
        before = reg.snapshot()
        reg.counter("c_total", labels=("k",)).inc(5, k="new")
        delta = diff_snapshots(before, reg.snapshot())
        assert snapshot_value(delta, "c_total", k="new") == 5.0

    def test_snapshot_value_missing(self):
        snap = self._registry().snapshot()
        assert snapshot_value(snap, "nope") is None
        assert snapshot_value(snap, "c_total", k="zz") is None

    def test_check_snapshot_rejects_garbage(self):
        with pytest.raises(MetricsError):
            diff_snapshots({}, {})
        with pytest.raises(MetricsError):
            diff_snapshots(
                {"schema": "other/v9", "metrics": {}},
                {"schema": metrics.SNAPSHOT_SCHEMA, "metrics": {}},
            )

    def test_json_round_trip(self):
        snap = self._registry().snapshot()
        assert from_json(to_json(snap)) == snap


class TestEnableDisable:
    def test_enable_active_disable(self):
        assert metrics.active() is None
        reg = metrics.enable()
        assert metrics.active() is reg
        assert metrics.enabled()
        metrics.disable()
        assert metrics.active() is None
        assert not metrics.enabled()

    def test_collecting_restores_previous(self):
        outer = metrics.enable()
        with metrics.collecting() as inner:
            assert metrics.active() is inner
            assert inner is not outer
        assert metrics.active() is outer

    def test_module_snapshot_when_disabled_is_empty(self):
        snap = metrics.snapshot()
        assert snap == {"schema": metrics.SNAPSHOT_SCHEMA, "metrics": {}}


# ---------------------------------------------------------------------------
# 2. collection never perturbs a solve
# ---------------------------------------------------------------------------


def _pivot_sequence(result):
    return [
        (r.event, r.phase, r.entering, r.leaving_row, r.pivot)
        for r in result.trace
    ]


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
def test_metrics_collection_is_bit_identical(method, m, extra, seed):
    lp = random_dense_lp(m, m + extra, seed=seed)
    metrics.disable()
    plain = solve(lp, method=method, trace=True)
    with metrics.collecting():
        collected = solve(lp, method=method, trace=True)
    assert plain.status == collected.status
    assert plain.iterations.total_iterations == collected.iterations.total_iterations
    assert plain.timing.modeled_seconds == collected.timing.modeled_seconds
    assert _pivot_sequence(plain) == _pivot_sequence(collected)
    if plain.objective is not None:
        assert plain.objective == collected.objective
        assert np.array_equal(plain.x, collected.x)


# ---------------------------------------------------------------------------
# 3. the instrumentation hooks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lp():
    return random_dense_lp(14, 20, seed=7)


class TestInstrumentation:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_solve_counted_exactly_once(self, lp, method):
        # one solve -> one recorded solve, under the name the result
        # reports (dual's primal fallback as dual-cpu(primal-fallback))
        with metrics.collecting() as reg:
            result = solve(lp, method=method)
            snap = reg.snapshot()
        series = snap["metrics"]["repro_solves_total"]["series"]
        assert sum(e["value"] for e in series) == 1.0
        (entry,) = [e for e in series if e["value"] == 1.0]
        solver = entry["labels"]["solver"]
        assert entry["labels"]["status"] == result.status.value
        total = snapshot_value(
            snap, "repro_solver_iterations_total", solver=solver, phase="1",
        ) + snapshot_value(
            snap, "repro_solver_iterations_total", solver=solver, phase="2",
        )
        assert total == result.iterations.total_iterations
        assert snapshot_value(
            snap, "repro_solver_modeled_seconds_total", solver=solver
        ) == pytest.approx(result.timing.modeled_seconds)

    def test_gpu_solve_records_device_metrics(self, lp):
        with metrics.collecting() as reg:
            solve(lp, method="gpu-revised")
            snap = reg.snapshot()
        launches = snap["metrics"]["repro_gpu_kernel_launches_total"]["series"]
        assert launches and sum(e["value"] for e in launches) > 0
        assert snapshot_value(
            snap, "repro_gpu_transfer_bytes_total", direction="htod"
        ) > 0
        assert snapshot_value(snap, "repro_gpu_peak_bytes_in_use") > 0
        occ = snap["metrics"]["repro_gpu_kernel_occupancy"]["series"][0]
        assert occ["count"] == sum(e["value"] for e in launches)

    def test_batch_records_schedule_metrics(self):
        from repro.batch import solve_batch

        lps = [random_dense_lp(10, 14, seed=s) for s in range(3)]
        with metrics.collecting() as reg:
            solve_batch(lps, method="gpu-revised", schedule="concurrent")
            snap = reg.snapshot()
        assert snapshot_value(
            snap, "repro_batch_lps_total", schedule="concurrent"
        ) == 3.0
        assert snapshot_value(snap, "repro_batch_queue_depth") == 3.0
        util = snapshot_value(
            snap, "repro_batch_stream_utilization", schedule="concurrent"
        )
        assert 0.0 < util <= 1.0

    def test_traced_solve_records_ratio_ties(self, lp):
        with metrics.collecting() as reg:
            result = solve(lp, method="revised", trace=True)
            snap = reg.snapshot()
        ties = snapshot_value(
            snap, "repro_solver_ratio_test_ties_total", solver=result.solver
        )
        assert ties == sum(r.ratio_ties for r in result.trace)

    def test_disabled_launch_skips_occupancy(self, monkeypatch):
        """Metrics off cost nothing: a zero-flop launch (whose kernel time
        needs no fill factor) never computes the occupancy histogram's
        input, while with metrics on it is computed once per launch."""
        from repro.gpu.device import Device
        from repro.perfmodel.gpu_model import GpuCostModel
        from repro.perfmodel.ops import OpCost
        from repro.perfmodel.presets import GTX280_PARAMS

        calls = []
        real = GpuCostModel.fill_factor

        def counting(model, threads, block):
            calls.append(threads)
            return real(model, threads, block)

        monkeypatch.setattr(GpuCostModel, "fill_factor", counting)
        dev = Device(GTX280_PARAMS)
        cost = OpCost(bytes_read=4096.0, threads=1024)
        metrics.disable()
        dev.launch("k", lambda: None, cost)
        dev.memset(dev.alloc(16), 0)
        assert calls == []
        with metrics.collecting():
            dev.launch("k", lambda: None, cost)
            dev.memset(dev.alloc(16), 0)
        assert calls == [1024, 16]

    def test_disabled_is_a_noop(self, lp):
        reg = MetricsRegistry()
        metrics.disable()
        solve(lp, method="gpu-revised")
        assert len(reg) == 0
        assert metrics.active() is None


# ---------------------------------------------------------------------------
# 4. the Prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_real_workload_output_validates(self, lp):
        with metrics.collecting() as reg:
            solve(lp, method="gpu-revised")
            text = to_prometheus(reg)
        assert validate_prometheus_text(text) > 0
        assert '# TYPE repro_solves_total counter' in text
        assert 'repro_solves_total{solver="gpu-revised",status="optimal"} 1' in text

    def test_histogram_expansion(self):
        reg = MetricsRegistry()
        reg.histogram("lat", "Latency.", buckets=(1, 5)).observe(3)
        text = to_prometheus(reg)
        assert 'lat_bucket{le="1"} 0' in text
        assert 'lat_bucket{le="5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 3" in text
        assert "lat_count 1" in text
        assert validate_prometheus_text(text) == 5

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels=("k",)).inc(k='we"ird\\va\nlue')
        text = to_prometheus(reg)
        assert r'k="we\"ird\\va\nlue"' in text
        assert validate_prometheus_text(text) == 1

    def test_special_values(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", labels=("k",))
        g.set(float("nan"), k="nan")
        g.set(float("inf"), k="inf")
        g.set(-float("inf"), k="ninf")
        text = to_prometheus(reg)
        assert 'g{k="nan"} NaN' in text
        assert 'g{k="inf"} +Inf' in text
        assert 'g{k="ninf"} -Inf' in text
        assert validate_prometheus_text(text) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "no_trailing_newline 1",
            "# TYPE x bogus_type\n",
            "1bad_name 1\n",
            'x{k="unclosed} 1\n',
            "x notanumber\n",
            "# TYPE x counter\n# TYPE x counter\nx 1\n",
            "# TYPE x counter\ny 1\n",  # sample lacks its TYPE
        ],
    )
    def test_malformed_text_rejected(self, bad):
        with pytest.raises(MetricsError):
            validate_prometheus_text(bad)

    def test_empty_exposition_ok(self):
        assert validate_prometheus_text("") == 0
        assert to_prometheus(MetricsRegistry()) == ""
