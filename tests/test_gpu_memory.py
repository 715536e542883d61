"""Tests for DeviceArray semantics: transfers, lifetime, scalar access."""

import numpy as np
import pytest

from repro.errors import DeviceArrayError


class TestProperties:
    def test_structural(self, device):
        a = device.alloc((3, 4), np.float64)
        assert a.shape == (3, 4)
        assert a.size == 12
        assert a.ndim == 2
        assert a.itemsize == 8
        assert a.nbytes == 96
        assert len(a) == 3

    def test_repr_states(self, device):
        a = device.alloc(3, np.float32)
        assert "live" in repr(a)
        a.free()
        assert "freed" in repr(a)


class TestLifetime:
    def test_free_then_use_raises(self, device):
        a = device.alloc(4, np.float32)
        a.free()
        with pytest.raises(DeviceArrayError):
            _ = a.data
        with pytest.raises(DeviceArrayError):
            a.copy_to_host()
        with pytest.raises(DeviceArrayError):
            a.free()

    def test_is_freed_flag(self, device):
        a = device.alloc(4, np.float32)
        assert not a.is_freed
        a.free()
        assert a.is_freed


class TestTransfers:
    def test_copy_from_host_shape_mismatch(self, device):
        a = device.alloc(4, np.float32)
        with pytest.raises(DeviceArrayError):
            a.copy_from_host(np.zeros(5))

    def test_copy_from_host_casts_dtype(self, device):
        a = device.alloc(4, np.float32)
        a.copy_from_host(np.arange(4, dtype=np.int64))
        assert a.dtype == np.float32
        assert np.array_equal(a.data, [0, 1, 2, 3])

    def test_copy_to_host_out_buffer(self, device):
        a = device.to_device(np.arange(6, dtype=np.float64))
        out = np.empty(6, dtype=np.float64)
        result = a.copy_to_host(out)
        assert result is out
        assert np.array_equal(out, np.arange(6))

    def test_copy_to_host_bad_out(self, device):
        a = device.to_device(np.arange(6, dtype=np.float64))
        with pytest.raises(DeviceArrayError):
            a.copy_to_host(np.empty(5, dtype=np.float64))
        with pytest.raises(DeviceArrayError):
            a.copy_to_host(np.empty(6, dtype=np.float32))

    def test_copy_to_host_is_a_copy(self, device):
        a = device.to_device(np.arange(3, dtype=np.float32))
        h = a.copy_to_host()
        h[0] = 99
        assert a.data[0] == 0


class TestScalarAccess:
    def test_scalar_to_host(self, device):
        a = device.to_device(np.array([1.5, 2.5, 3.5], dtype=np.float32))
        before = device.stats.dtoh_bytes
        assert a.scalar_to_host(1) == pytest.approx(2.5)
        assert device.stats.dtoh_bytes == before + 4

    def test_scalar_to_host_2d(self, device):
        a = device.to_device(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert a.scalar_to_host((1, 2)) == 5.0

    def test_set_scalar(self, device):
        a = device.zeros(4, np.float32)
        before = device.stats.htod_bytes
        a.set_scalar(2, 7.0)
        assert a.data[2] == 7.0
        assert device.stats.htod_bytes == before + 4

    def test_scalar_transfers_latency_bound(self, device):
        """A 4-byte read costs ~PCIe latency, same order as a 4 KiB read."""
        a = device.to_device(np.zeros(1024, dtype=np.float32))
        t0 = device.clock
        a.scalar_to_host(0)
        dt_scalar = device.clock - t0
        assert dt_scalar >= device.params.pcie_latency
