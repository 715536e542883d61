"""Device-resident sparse matrices and SpMV kernel tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import DeviceArrayError
from repro.gpu import blas
from repro.gpu.sparse_kernels import (
    DeviceCscMatrix,
    DeviceCsrMatrix,
    spmv_csc_t,
    spmv_csr,
)
from repro.sparse import CscMatrix, CsrMatrix


def upload(cls, device, host, dtype=np.float32):
    """Place ``host`` in a region of its own and view it as ``cls``."""
    return cls(host, device.place(cls.arrays(host, dtype)))


@pytest.fixture
def host_dense():
    return sp.random(17, 23, density=0.25, random_state=5).toarray()


class TestDeviceCsr:
    def test_upload_roundtrip(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        d = upload(DeviceCsrMatrix, device, host, dtype=np.float64)
        back = CsrMatrix(
            host.shape,
            d.indptr.copy_to_host().astype(np.int64),
            d.indices.copy_to_host().astype(np.int64),
            d.data.copy_to_host(),
        )
        np.testing.assert_allclose(back.to_dense(), host_dense)

    def test_upload_accounts_transfers(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        before = device.stats.htod_bytes
        d = upload(DeviceCsrMatrix, device, host)
        assert device.stats.htod_bytes - before == d.nbytes

    def test_spmv(self, device, host_dense, rng):
        host = CsrMatrix.from_dense(host_dense)
        d = upload(DeviceCsrMatrix, device, host, dtype=np.float64)
        xh = rng.normal(size=23)
        x = device.to_device(xh)
        y = device.zeros(17, np.float64)
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, host_dense @ xh, atol=1e-10)

    def test_spmv_shape_check(self, device, host_dense):
        d = upload(DeviceCsrMatrix, device, CsrMatrix.from_dense(host_dense), np.float64)
        x = device.zeros(17, np.float64)  # wrong side
        y = device.zeros(17, np.float64)
        with pytest.raises(DeviceArrayError):
            spmv_csr(d, x, y)

    def test_spmv_flops_proportional_to_nnz(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        d = upload(DeviceCsrMatrix, device, host, np.float32)
        x = device.zeros(23, np.float32)
        y = device.zeros(17, np.float32)
        spmv_csr(d, x, y)
        assert device.stats.by_kernel["sparse.spmv_csr"].flops == 2 * host.nnz

    def test_free(self, device, host_dense):
        before = device.stats.bytes_in_use
        d = upload(DeviceCsrMatrix, device, CsrMatrix.from_dense(host_dense))
        assert device.stats.bytes_in_use > before
        d.free()
        assert device.stats.bytes_in_use == before
        assert d.data.is_freed
        assert d.indptr.is_freed
        assert d.indices.is_freed


class TestDeviceCsc:
    def test_spmv_transpose(self, device, host_dense, rng):
        host = CscMatrix.from_dense(host_dense)
        d = upload(DeviceCscMatrix, device, host, dtype=np.float64)
        xh = rng.normal(size=17)
        x = device.to_device(xh)
        y = device.zeros(23, np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, host_dense.T @ xh, atol=1e-10)

    def test_spmv_t_with_empty_columns(self, device):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(dense), np.float64)
        x = device.to_device(np.array([1.0, 1.0]))
        y = device.zeros(3, np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, [1.0, 0.0, 5.0])

    def test_getcol_device(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = upload(DeviceCscMatrix, device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        nnz = d.getcol_device(4, out)
        np.testing.assert_allclose(out.data, host_dense[:, 4])
        assert nnz == np.count_nonzero(host_dense[:, 4])

    def test_getcol_overwrites_previous(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = upload(DeviceCscMatrix, device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        d.getcol_device(0, out)
        d.getcol_device(1, out)
        np.testing.assert_allclose(out.data, host_dense[:, 1])

    def test_getcol_out_of_range(self, device, host_dense):
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(host_dense), np.float64)
        out = device.zeros(17, np.float64)
        with pytest.raises(DeviceArrayError):
            d.getcol_device(99, out)

    def test_getcol_wrong_length(self, device, host_dense):
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(host_dense), np.float64)
        out = device.zeros(5, np.float64)
        with pytest.raises(DeviceArrayError):
            d.getcol_device(0, out)

    def test_fp32_storage(self, device, host_dense):
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(host_dense), np.float32)
        assert d.data.dtype == np.float32
        assert d.indices.dtype == np.int32


# Matrices whose sparse forms contain empty rows/columns — the cases the
# pre-segment_sums reduceat workaround handled wrongly (neighbour copies
# instead of zeros).
EMPTY_PATTERN_CASES = {
    "nnz-0": np.zeros((3, 4)),
    "leading-empty-row": np.vstack([np.zeros((2, 3)), np.ones((2, 3))]),
    "trailing-empty-col": np.hstack([np.ones((3, 2)), np.zeros((3, 2))]),
    "alternating-diag": np.diag([1.0, 0.0, 2.0, 0.0, 3.0]),
}
_bands = np.arange(30, dtype=np.float64).reshape(6, 5) + 1.0
_bands[2:5, :] = 0.0  # three consecutive empty rows
_bands[:, 1:3] = 0.0  # two consecutive empty columns
EMPTY_PATTERN_CASES["consecutive-empty-bands"] = _bands


class TestEmptySegmentPatterns:
    """Both device SpMV kernels on empty-row/column structures (S4)."""

    @pytest.mark.parametrize(
        "dense", list(EMPTY_PATTERN_CASES.values()),
        ids=list(EMPTY_PATTERN_CASES.keys()),
    )
    def test_spmv_csr_empty_rows(self, device, dense, rng):
        d = upload(DeviceCsrMatrix, device, CsrMatrix.from_dense(dense), np.float64)
        xh = rng.normal(size=dense.shape[1])
        x = device.to_device(xh)
        y = device.zeros(dense.shape[0], np.float64)
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, dense @ xh, atol=1e-12)

    @pytest.mark.parametrize(
        "dense", list(EMPTY_PATTERN_CASES.values()),
        ids=list(EMPTY_PATTERN_CASES.keys()),
    )
    def test_spmv_csc_t_empty_cols(self, device, dense, rng):
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(dense), np.float64)
        xh = rng.normal(size=dense.shape[0])
        x = device.to_device(xh)
        y = device.zeros(dense.shape[1], np.float64)
        spmv_csc_t(d, x, y)
        np.testing.assert_allclose(y.data, dense.T @ xh, atol=1e-12)

    def test_spmv_overwrites_stale_output(self, device):
        # y is fully overwritten even where segments are empty
        dense = np.diag([1.0, 0.0, 2.0])
        d = upload(DeviceCsrMatrix, device, CsrMatrix.from_dense(dense), np.float64)
        x = device.to_device(np.ones(3))
        y = device.to_device(np.full(3, 7.0))
        spmv_csr(d, x, y)
        np.testing.assert_allclose(y.data, [1.0, 0.0, 2.0])


class TestGetcolCostModel:
    """Regression (S1): host-mirrored indptr must not change modeled cost.

    ``getcol_device`` keeps a host copy of ``indptr`` so slicing a column
    does not read device memory from the host; the *modeled* traffic of the
    two launches is pinned here so the mirror stays free in model terms.
    """

    def test_scatter_col_modeled_bytes_pinned(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = upload(DeviceCscMatrix, device, host, dtype=np.float64)
        out = device.zeros(17, np.float64)
        j = 4
        col_nnz = d.getcol_device(j, out)
        w = 8  # float64
        index_bytes = 4
        scatter = device.stats.by_kernel["sparse.scatter_col"]
        # read: nnz values + nnz row indices + the two indptr words;
        # written: nnz scattered values
        assert scatter.bytes == (
            col_nnz * (w + index_bytes) + 2 * index_bytes  # read
            + col_nnz * w                                  # written
        )
        fill = device.stats.by_kernel["sparse.fill_zero"]
        assert fill.bytes == out.nbytes

    def test_fill_zero_counts_whole_vector(self, device, host_dense):
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(host_dense), np.float32)
        out = device.zeros(17, np.float32)
        d.getcol_device(0, out)
        assert device.stats.by_kernel["sparse.fill_zero"].bytes == 17 * 4

    def test_host_indptr_mirrors_device(self, device, host_dense):
        host = CscMatrix.from_dense(host_dense)
        d = upload(DeviceCscMatrix, device, host, dtype=np.float64)
        np.testing.assert_array_equal(d.host_indptr, host.indptr)
        np.testing.assert_array_equal(d.indptr.data, host.indptr)


def _launch_event(device, launch):
    """The one kernel event ``launch`` records on ``device``."""
    device.record_timeline()
    launch()
    (event,) = [e for e in device.timeline if e.kind == "kernel"]
    device.record_timeline(False)
    return event


class TestCsrVectorCost:
    """The CSR-vector SpMV cost: one warp per output, segments charged by
    the 64-byte transactions they span, gathered x entries uncoalesced."""

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 12), (64, 96), (150, 256), (300, 40)])
    def test_dense_spmv_t_never_cheaper_than_gemv_t(
        self, device, rng, shape, dtype, beta
    ):
        ah = rng.normal(size=shape).astype(dtype)
        assert np.count_nonzero(ah) == ah.size
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(ah), dtype)
        # like for like: CSC and the column-major dense matrix both hold
        # each column contiguous; the SpMV runs a warp per column, the
        # GEMV k warps per column, as many as fill the device
        region = device.region({"a": (shape, dtype)}, column_major=("a",))
        region.fill({"a": ah})
        da = region["a"]
        x = device.to_device(rng.normal(size=shape[0]).astype(dtype))
        y = device.zeros(shape[1], dtype)
        sparse = _launch_event(device, lambda: spmv_csc_t(d, x, y, beta=beta))
        dense = _launch_event(
            device, lambda: blas.gemv(da, x, y, beta=beta, trans=True)
        )
        k = blas.warps_per_line(shape[1], shape[0], device.params)
        assert sparse.threads == 32 * shape[1]
        assert dense.threads == 32 * k * shape[1]
        assert sparse.seconds >= dense.seconds

    def test_one_nonzero_segment_pays_a_transaction(self, device):
        n = 48
        ah = np.zeros((n, n))
        ah[np.arange(n), np.arange(n)[::-1]] = 2.0  # one entry per column
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(ah), np.float64)
        tx = device.params.transaction_bytes
        assert d.segment_bytes == n * 2 * tx  # its value and its index
        x = device.to_device(np.ones(n))
        y = device.zeros(n, np.float64)
        event = _launch_event(device, lambda: spmv_csc_t(d, x, y))
        gathered = n * 8
        streamed = n * 2 * tx + (n + 1) * 4
        assert event.cost.bytes_read == streamed + gathered
        assert event.cost.bytes_written == n * 8
        total = streamed + gathered + n * 8
        assert event.cost.coalesced_fraction == pytest.approx(1 - gathered / total)

    def test_segments_charged_by_transactions_spanned(self, device):
        # column 0: 9 fp64 values (bytes 0–72, two transactions) and 9
        # indices (bytes 0–36, one); column 1: 8 values (bytes 72–136) and
        # 8 indices (bytes 36–68), each straddling a boundary, so two
        # transactions apiece; column 2 is empty and reads nothing
        ah = np.zeros((9, 3))
        ah[:, 0] = 1.0
        ah[1:, 1] = 1.0
        d = upload(DeviceCscMatrix, device, CscMatrix.from_dense(ah), np.float64)
        assert d.segment_bytes == 64 * ((2 + 1) + (2 + 2))

    def test_spmv_csr_shares_the_cost(self, device, host_dense):
        host = CsrMatrix.from_dense(host_dense)
        d = upload(DeviceCsrMatrix, device, host, np.float64)
        x = device.zeros(23, np.float64)
        y = device.zeros(17, np.float64)
        event = _launch_event(device, lambda: spmv_csr(d, x, y))
        assert event.threads == 32 * 17
        assert event.cost.bytes_read == (
            d.segment_bytes + 18 * 4 + host.nnz * 8
        )
