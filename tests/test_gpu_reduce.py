"""Tests for the parallel reduction / scan primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gpu import reduce as R
from repro.gpu.device import Device
from repro.perfmodel.presets import GTX280_PARAMS


def dvec(device, values, dtype=np.float64):
    return device.to_device(np.asarray(values, dtype=dtype))


class TestValueReductions:
    def test_sum(self, device, rng):
        xh = rng.normal(size=1000)
        assert R.reduce_sum(dvec(device, xh)) == pytest.approx(xh.sum())

    def test_min_max(self, device, rng):
        xh = rng.normal(size=777)
        x = dvec(device, xh)
        assert R.reduce_min(x) == pytest.approx(xh.min())
        assert R.reduce_max(x) == pytest.approx(xh.max())

    def test_max_abs(self, device):
        assert R.reduce_max_abs(dvec(device, [1.0, -9.0, 3.0])) == 9.0

    def test_single_element(self, device):
        assert R.reduce_sum(dvec(device, [42.0])) == 42.0

    def test_multipass_charges_multiple_launches(self, device):
        """A reduction over >2*block² elements needs at least 3 passes."""
        n = 2 * 256 * 2 * 256 + 1
        x = device.zeros(n, np.float32)
        R.reduce_sum(x)
        assert device.stats.by_kernel["reduce.sum"].launches >= 3

    def test_scalar_dtoh_charged(self, device):
        x = dvec(device, np.ones(10))
        before = device.stats.dtoh_bytes
        R.reduce_sum(x)
        assert device.stats.dtoh_bytes > before


class TestArgReductions:
    def test_argmin(self, device):
        idx, val = R.argmin(dvec(device, [3.0, -1.0, 2.0]))
        assert (idx, val) == (1, -1.0)

    def test_argmin_tie_breaks_low_index(self, device):
        idx, _ = R.argmin(dvec(device, [5.0, 1.0, 1.0, 1.0]))
        assert idx == 1

    def test_argmax_abs(self, device):
        idx, val = R.argmax_abs(dvec(device, [3.0, -10.0, 2.0]))
        assert (idx, val) == (1, 10.0)

    def test_argmin_where(self, device):
        x = dvec(device, [5.0, 1.0, 3.0, 0.5])
        mask = dvec(device, [1.0, 0.0, 1.0, 0.0])
        idx, val = R.argmin_where(x, mask)
        assert (idx, val) == (2, 3.0)

    def test_argmin_where_empty_mask(self, device):
        x = dvec(device, [5.0, 1.0])
        mask = dvec(device, [0.0, 0.0])
        idx, val = R.argmin_where(x, mask)
        assert idx == R.NO_INDEX
        assert val == np.inf

    def test_first_index_below(self, device):
        x = dvec(device, [0.5, -0.1, -3.0])
        before = device.stats.dtoh_bytes
        assert R.first_index_below(x, 0.0) == (1, -0.1)
        # index and value come back in one 4 + 8 byte transfer
        assert device.stats.dtoh_bytes - before == 12

    def test_first_index_below_none(self, device):
        x = dvec(device, [0.5, 0.1])
        assert R.first_index_below(x, 0.0) == (R.NO_INDEX, np.inf)

    def test_argmin_to_device_stays_on_device(self, device):
        x = dvec(device, [3.0, -1.0, 2.0, -1.0])
        out = device.alloc(2, np.float64)
        before = device.stats.dtoh_bytes
        R.argmin_to_device(x, out)
        assert device.stats.dtoh_bytes == before
        assert device.stats.by_kernel["reduce.argmin"].launches == 1
        assert list(out.data) == [1.0, -1.0]

    def test_argmin_to_device_below_threshold(self, device):
        x = dvec(device, [3.0, -1.0, 2.0])
        out = device.alloc(2, np.float64)
        R.argmin_to_device(x, out, below=-0.5)
        assert list(out.data) == [1.0, -1.0]
        # no element prices in: the index becomes NO_INDEX, the value stays
        R.argmin_to_device(x, out, below=-2.0)
        assert list(out.data) == [R.NO_INDEX, -1.0]
        # a minimum *equal* to the threshold does not price in
        R.argmin_to_device(x, out, below=-1.0)
        assert out.data[0] == R.NO_INDEX

    def test_first_below_to_device(self, device):
        x = dvec(device, [0.5, -0.1, -3.0])
        out = device.alloc(2, np.float64)
        before = device.stats.dtoh_bytes
        R.first_below_to_device(x, 0.0, out)
        assert list(out.data) == [1.0, -0.1]
        R.first_below_to_device(x, -5.0, out)
        assert list(out.data) == [R.NO_INDEX, np.inf]
        assert device.stats.dtoh_bytes == before
        assert device.stats.by_kernel["reduce.first_below"].launches == 2

    def test_ratio_readback_gathers_in_one_transfer(self, device):
        ratios = dvec(device, [4.0, 2.0, 2.0, 9.0])
        best = device.alloc(2, np.float64)
        R.argmin_to_device(ratios, best)
        choice = dvec(device, [5.0, -0.25])
        # rows 1 and 2 tie at θ = 2; the keys pick row 2 (lower variable)
        keys = dvec(device, [np.inf, 7.0, 3.0, np.inf])
        alpha = dvec(device, [0.1, 0.2, 0.3, 0.4])
        before = device.stats.dtoh_bytes
        device.record_timeline()
        assert R.ratio_readback(choice, keys, best, (alpha,)) == (
            5, -0.25, 2, 2.0, (0.3,)
        )
        assert [e.kind for e in device.timeline if e.kind != "kernel"] == ["dtoh"]
        # (q, d_q, p, θ, α_p) in one struct
        assert device.stats.dtoh_bytes - before == 5 * 8

    def test_ratio_readback_falls_back_to_best_row(self, device):
        ratios = dvec(device, [4.0, 2.0])
        best = device.alloc(2, np.float64)
        R.argmin_to_device(ratios, best)
        keys = dvec(device, [np.inf, np.inf])
        choice = dvec(device, [R.NO_INDEX, 0.0])
        assert R.ratio_readback(choice, keys, best) == (
            R.NO_INDEX, 0.0, 1, 2.0, ()
        )

    def test_count_below(self, device):
        x = dvec(device, [-1.0, 0.0, -2.0, 3.0])
        assert R.count_below(x, 0.0) == 2
        assert R.count_below(x, 10.0) == 4


class TestScanCompact:
    def test_inclusive_scan(self, device):
        x = dvec(device, [1.0, 2.0, 3.0, 4.0])
        out = device.zeros(4, np.float64)
        R.inclusive_scan(x, out)
        assert np.array_equal(out.data, [1.0, 3.0, 6.0, 10.0])

    def test_scan_size_mismatch(self, device):
        from repro.errors import DeviceArrayError

        x = dvec(device, [1.0, 2.0])
        out = device.zeros(3, np.float64)
        with pytest.raises(DeviceArrayError):
            R.inclusive_scan(x, out)

    def test_compact_indices(self, device):
        mask = dvec(device, [0.0, 1.0, 0.0, 1.0, 1.0])
        hits = R.compact_indices(mask)
        assert np.array_equal(hits, [1, 3, 4])

    def test_compact_empty(self, device):
        mask = dvec(device, [0.0, 0.0])
        assert R.compact_indices(mask).size == 0


@settings(max_examples=30, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 500),
                elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_reduction_properties(x):
    dev = Device(GTX280_PARAMS)
    d = dev.to_device(x)
    assert R.reduce_min(d) == pytest.approx(x.min())
    assert R.reduce_max(d) == pytest.approx(x.max())
    idx, val = R.argmin(d)
    assert val == pytest.approx(x.min())
    assert x[idx] == pytest.approx(val)
    # tie-break: no earlier index attains the min
    assert not np.any(x[:idx] == x.min()) or x.min() != val


@settings(max_examples=30, deadline=None)
@given(
    x=arrays(np.float64, st.integers(1, 300),
             elements=st.floats(-100, 100, allow_nan=False)),
    threshold=st.floats(-100, 100, allow_nan=False),
)
def test_first_below_matches_linear_scan(x, threshold):
    dev = Device(GTX280_PARAMS)
    got, value = R.first_index_below(dev.to_device(x), threshold)
    hits = np.nonzero(x < threshold)[0]
    expected = int(hits[0]) if hits.size else R.NO_INDEX
    assert got == expected
    assert value == (x[got] if hits.size else np.inf)
