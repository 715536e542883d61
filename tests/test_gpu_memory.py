"""Tests for DeviceArray semantics: transfers, lifetime, scalar access."""

import numpy as np
import pytest

from repro.errors import DeviceArrayError
from repro.gpu.memory import COLUMN_MAJOR, ROW_MAJOR, DeviceArray


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


class TestLayout:
    def test_row_major_by_default(self, device):
        assert device.alloc((3, 4), np.float64).layout == ROW_MAJOR
        assert device.to_device(np.zeros((3, 4))).layout == ROW_MAJOR

    def test_placed_column_major(self, device):
        host = np.arange(12.0).reshape(3, 4)
        region = device.region(
            {"a": (host.shape, host.dtype), "b": (host.shape, host.dtype)},
            column_major=("a",),
        )
        region.fill({"a": host, "b": host})
        a, b = region["a"], region["b"]
        assert (a.layout, b.layout) == (COLUMN_MAJOR, ROW_MAJOR)
        assert a.steps == (8, 24)  # down a column: one word
        assert b.steps == (32, 8)  # along a row: one word
        # the backing store keeps the host's order either way
        np.testing.assert_array_equal(a.copy_to_host(), host)

    def test_offset_is_the_place_in_the_allocation(self, device):
        region = device.region({
            "v": ((3,), np.float32), "a": ((4, 4), np.float64),
            "k": ((1,), np.int32),
        })
        # a follows 12 bytes of v, aligned up to its 8-byte words
        assert [region[k].offset for k in ("v", "a", "k")] == [0, 16, 144]
        assert device.alloc(5, np.float32).offset == 0

    def test_aligned_region_starts_matrices_on_segments(self, device):
        layout = {"v": ((3,), np.float32), "a": ((4, 4), np.float64),
                  "k": ((1,), np.int32)}
        region = device.region(layout, aligned=True)
        # a moves from byte 16 to the next segment; vectors still pack
        assert [region[k].offset for k in layout] == [0, 64, 192]

    def test_bad_column_major_names_rejected(self, device):
        with pytest.raises(DeviceArrayError, match="no buffers"):
            device.region({"a": ((3, 4), np.float64)}, column_major=("x",))
        with pytest.raises(DeviceArrayError, match="only a matrix"):
            device.region({"v": ((3,), np.float64)}, column_major=("v",))
        assert device.stats.bytes_in_use == 0  # rejected before allocating


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


class TestRegion:
    """One allocation, several typed views, one HtoD copy per run."""

    LAYOUT = {
        "keys": ((3,), np.int32),
        "x": ((4,), np.float64),
        "m": ((2, 3), np.float32),
        "y": ((5,), np.float64),
    }

    def test_place_is_one_htod_of_the_summed_size(self, device):
        device.record_timeline()
        # widest item first: no alignment padding between the buffers
        hosts = {
            "x": np.arange(4.0),
            "m": np.arange(6, dtype=np.float32).reshape(2, 3),
            "keys": np.array([7, 8, 9], dtype=np.int32),
        }
        region = device.place(hosts)
        (event,) = device.timeline
        assert event.kind == "htod"
        assert event.nbytes == 32 + 24 + 12
        assert event.seconds == device.model.transfer_time(68)
        assert device.stats.allocations == 1
        for name, host in hosts.items():
            view = region[name]
            assert view.dtype == host.dtype and view.shape == host.shape
            assert np.array_equal(view.data, host)

    def test_views_are_aligned_and_disjoint(self, device):
        region = device.region(self.LAYOUT)
        views = [region[name] for name in self.LAYOUT]
        for view in views:
            assert view.data.ctypes.data % view.itemsize == 0
        for view in views:
            view.data[...] = 0
        region["x"].data[:] = 1.0
        assert not region["keys"].data.any() and not region["m"].data.any()
        # 12 bytes of keys, 4 of padding so x starts on an 8-byte boundary
        assert region.nbytes == 16 + 32 + 24 + 40

    def test_refill_of_a_run_is_one_copy(self, device):
        region = device.region(self.LAYOUT)
        device.record_timeline()
        region.fill({"m": np.ones((2, 3)), "x": np.full(4, 2.0)})
        (event,) = device.timeline
        assert event.nbytes == 32 + 24
        assert np.array_equal(region["x"].data, np.full(4, 2.0))
        assert region["m"].dtype == np.float32

    def test_copy_spans_the_padding_inside_its_run(self, device):
        # 12 bytes of keys, 4 of padding, 32 of x: one copy of 48 bytes
        region = device.region(self.LAYOUT)
        device.record_timeline()
        region.fill({"keys": np.arange(3), "x": np.arange(4.0)})
        (event,) = device.timeline
        assert event.nbytes == 48
        assert np.array_equal(region["keys"].data, [0, 1, 2])

    def test_fill_is_one_copy_from_host(self, device, monkeypatch):
        """A region's copy is a DeviceArray.copy_from_host, the one HtoD
        path, so whatever observes that method sees every upload."""
        calls = []
        original = DeviceArray.copy_from_host

        def spy(self, host):
            calls.append(self.nbytes)
            return original(self, host)

        monkeypatch.setattr(DeviceArray, "copy_from_host", spy)
        region = device.region(self.LAYOUT)
        region.fill({"m": np.ones((2, 3)), "y": np.zeros(5)})
        device.to_device(np.arange(3.0))
        assert calls == [24 + 40, 24]

    def test_grouped_copy_must_be_one_contiguous_run(self, device):
        region = device.region(self.LAYOUT)
        before = device.stats.htod_bytes
        with pytest.raises(DeviceArrayError, match="contiguous"):
            region.fill({"keys": np.zeros(3), "m": np.zeros((2, 3))})
        with pytest.raises(DeviceArrayError, match="contiguous"):
            region.fill({})
        assert device.stats.htod_bytes == before

    def test_shape_mismatch_raises(self, device):
        region = device.region(self.LAYOUT)
        with pytest.raises(DeviceArrayError):
            region.fill({"x": np.zeros(5)})

    def test_bytes_released_once(self, device):
        before = device.stats.bytes_in_use
        region = device.region(self.LAYOUT)
        assert device.stats.bytes_in_use == before + region.nbytes
        region["y"].free()  # a view frees its whole region
        assert device.stats.bytes_in_use == before
        assert device.stats.frees == 1
        assert region.is_freed and all(
            region[name].is_freed for name in self.LAYOUT
        )
        with pytest.raises(DeviceArrayError):
            region["x"].free()
        with pytest.raises(DeviceArrayError):
            region.fill({"x": np.zeros(4)})
        assert device.stats.bytes_in_use == before

    def test_to_device_is_a_one_buffer_region(self, device):
        device.record_timeline()
        arr = device.to_device(np.arange(5.0))
        assert arr.region is not None
        assert [ev.kind for ev in device.timeline] == ["htod"]
        arr.free()
        assert device.stats.bytes_in_use == 0

    def test_rejects_unsupported_dtypes(self, device):
        with pytest.raises(TypeError):
            device.region({"h": ((2,), np.float16)})
        assert device.stats.allocations == 0
