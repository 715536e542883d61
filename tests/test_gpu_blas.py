"""Device BLAS correctness against NumPy, plus cost/accounting behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import gpu_kernels as K
from repro.errors import DeviceArrayError
from repro.gpu import blas
from repro.gpu.device import Device
from repro.perfmodel.presets import GTX280_PARAMS


def dvec(device, values, dtype=np.float64):
    return device.to_device(np.asarray(values, dtype=dtype))


class TestLevel1:
    def test_copy(self, device, rng):
        x = dvec(device, rng.normal(size=100))
        y = device.zeros(100, np.float64)
        blas.copy(x, y)
        assert np.array_equal(y.data, x.data)

    def test_scal(self, device):
        x = dvec(device, [1.0, -2.0, 3.0])
        blas.scal(2.0, x)
        assert np.array_equal(x.data, [2.0, -4.0, 6.0])

    def test_axpy(self, device, rng):
        xh, yh = rng.normal(size=50), rng.normal(size=50)
        x, y = dvec(device, xh), dvec(device, yh)
        blas.axpy(0.5, x, y)
        np.testing.assert_allclose(y.data, 0.5 * xh + yh, rtol=1e-12)

    def test_dot(self, device, rng):
        xh, yh = rng.normal(size=64), rng.normal(size=64)
        x, y = dvec(device, xh), dvec(device, yh)
        assert blas.dot(x, y) == pytest.approx(float(xh @ yh), rel=1e-12)

    def test_nrm2(self, device, rng):
        xh = rng.normal(size=33)
        assert blas.nrm2(dvec(device, xh)) == pytest.approx(np.linalg.norm(xh))

    def test_fill(self, device):
        x = device.zeros(5, np.float32)
        blas.fill(x, 3.5)
        assert np.all(x.data == np.float32(3.5))

class TestLevel2:
    def test_gemv_notrans(self, device, rng):
        ah = rng.normal(size=(8, 5))
        xh = rng.normal(size=5)
        a, x = device.to_device(ah), dvec(device, xh)
        y = device.zeros(8, np.float64)
        blas.gemv(a, x, y)
        np.testing.assert_allclose(y.data, ah @ xh, rtol=1e-12)

    def test_gemv_trans(self, device, rng):
        ah = rng.normal(size=(8, 5))
        xh = rng.normal(size=8)
        a, x = device.to_device(ah), dvec(device, xh)
        y = device.zeros(5, np.float64)
        blas.gemv(a, x, y, trans=True)
        np.testing.assert_allclose(y.data, ah.T @ xh, rtol=1e-12)

    def test_gemv_alpha_beta(self, device, rng):
        ah = rng.normal(size=(4, 4))
        xh = rng.normal(size=4)
        yh = rng.normal(size=4)
        a, x, y = device.to_device(ah), dvec(device, xh), dvec(device, yh)
        blas.gemv(a, x, y, alpha=-2.0, beta=0.5)
        np.testing.assert_allclose(y.data, -2.0 * (ah @ xh) + 0.5 * yh, rtol=1e-12)

    def test_gemv_shape_mismatch(self, device):
        a = device.zeros((3, 4), np.float64)
        x = device.zeros(3, np.float64)  # wrong: needs 4
        y = device.zeros(3, np.float64)
        with pytest.raises(DeviceArrayError):
            blas.gemv(a, x, y)

    def test_ger(self, device, rng):
        ah = rng.normal(size=(6, 3))
        xh = rng.normal(size=6)
        yh = rng.normal(size=3)
        a, x, y = device.to_device(ah), dvec(device, xh), dvec(device, yh)
        K.pivot_ger(device, x, y, a, alpha=1.5)
        np.testing.assert_allclose(a.data, ah + 1.5 * np.outer(xh, yh), rtol=1e-12)

    def test_mixed_dtype_rejected(self, device):
        a = device.zeros((3, 3), np.float32)
        x = device.zeros(3, np.float64)
        y = device.zeros(3, np.float32)
        with pytest.raises(DeviceArrayError):
            blas.gemv(a, x, y)

    def test_cross_device_rejected(self, device):
        other = Device(GTX280_PARAMS)
        a = device.zeros((3, 3), np.float64)
        x = other.zeros(3, np.float64)
        y = device.zeros(3, np.float64)
        with pytest.raises(DeviceArrayError):
            blas.gemv(a, x, y)


class TestAccounting:
    def test_every_call_advances_clock(self, device):
        x = dvec(device, np.ones(64))
        y = dvec(device, np.ones(64))
        for op in (lambda: blas.copy(x, y), lambda: blas.axpy(1.0, x, y),
                   lambda: blas.dot(x, y), lambda: blas.scal(2.0, x)):
            t0 = device.clock
            op()
            assert device.clock > t0

    def test_dot_returns_scalar_via_dtoh(self, device):
        x = dvec(device, np.ones(64))
        before = device.stats.dtoh_bytes
        blas.dot(x, x)
        assert device.stats.dtoh_bytes > before

    def test_gemv_flops_recorded(self, device):
        a = device.zeros((100, 200), np.float32)
        x = device.zeros(200, np.float32)
        y = device.zeros(100, np.float32)
        blas.gemv(a, x, y)
        rec = device.stats.by_kernel["blas.gemv"]
        assert rec.flops == 2 * 100 * 200

    def test_fp32_gemv_faster_than_fp64(self):
        dev32, dev64 = Device(GTX280_PARAMS), Device(GTX280_PARAMS)
        for dev, dt in ((dev32, np.float32), (dev64, np.float64)):
            a = dev.zeros((512, 512), dt)
            x = dev.zeros(512, dt)
            y = dev.zeros(512, dt)
            t0 = dev.clock
            blas.gemv(a, x, y)
        t32 = dev32.stats.by_kernel["blas.gemv"].seconds
        t64 = dev64.stats.by_kernel["blas.gemv"].seconds
        assert t32 < t64  # bandwidth-bound: half the bytes


@settings(max_examples=25, deadline=None)
@given(
    x=arrays(np.float64, st.integers(1, 200),
             elements=st.floats(-1e6, 1e6, allow_nan=False)),
    alpha=st.floats(-100, 100, allow_nan=False),
)
def test_axpy_matches_numpy_property(x, alpha):
    dev = Device(GTX280_PARAMS)
    y = np.ones_like(x)
    dx, dy = dev.to_device(x), dev.to_device(y)
    blas.axpy(alpha, dx, dy)
    np.testing.assert_allclose(dy.data, alpha * x + y, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 20),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**31),
    trans=st.booleans(),
)
def test_gemv_matches_numpy_property(m, n, seed, trans):
    rng = np.random.default_rng(seed)
    dev = Device(GTX280_PARAMS)
    ah = rng.normal(size=(m, n))
    xh = rng.normal(size=m if trans else n)
    a, x = dev.to_device(ah), dev.to_device(xh)
    y = dev.zeros(n if trans else m, np.float64)
    blas.gemv(a, x, y, trans=trans)
    expected = ah.T @ xh if trans else ah @ xh
    np.testing.assert_allclose(y.data, expected, rtol=1e-10, atol=1e-10)
