"""Cross-validation: thread-level SIMT kernels vs the block-level kernels.

The solver's kernels (in repro.gpu.blas / repro.core.gpu_kernels) compute
with vectorised NumPy; these tests re-execute the same operations thread by
thread on the SIMT interpreter and demand identical answers — the strongest
evidence the block-level shortcuts faithfully model per-thread CUDA code.
"""

import numpy as np
import pytest

from repro.gpu import blas
from repro.gpu.plan import LaunchPlan
from repro.gpu.simt import (
    SimtEngine,
    simt_block_argmin,
    simt_gemv_split_line,
    simt_ger,
    simt_spmv_csr_vector,
)
from repro.gpu.sparse_kernels import (
    DeviceCscMatrix,
    DeviceCsrMatrix,
    spmv_csc_t,
    spmv_csr,
)
from repro.sparse import CscMatrix, CsrMatrix


@pytest.fixture
def engine():
    return SimtEngine()


class TestGemvWarpPerRow:
    def test_matches_numpy(self, engine, rng):
        m, n = 13, 37
        a = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        y = np.zeros(m)
        warps_needed = m
        threads = warps_needed * 32
        block = 128
        grid = -(-threads // block)
        stats = engine.run(simt_gemv_split_line, grid, block, a, x, y)
        np.testing.assert_allclose(y, a @ x, rtol=1e-12)
        assert stats.warps >= warps_needed

    def test_matches_device_blas(self, engine, device, rng):
        m, n = 8, 21
        ah = rng.normal(size=(m, n))
        xh = rng.normal(size=n)
        # block-level device BLAS
        da, dx = device.to_device(ah), device.to_device(xh)
        dy = device.zeros(m, np.float64)
        blas.gemv(da, dx, dy)
        # thread-level SIMT
        y_simt = np.zeros(m)
        engine.run(simt_gemv_split_line, m, 32, ah, xh, y_simt)
        np.testing.assert_allclose(dy.data, y_simt, rtol=1e-10)

    def test_wide_row_grid_stride(self, engine, rng):
        """Rows wider than a warp exercise the lane-stride loop."""
        m, n = 3, 301
        a = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        y = np.zeros(m)
        engine.run(simt_gemv_split_line, 3, 32, a, x, y)
        np.testing.assert_allclose(y, a @ x, rtol=1e-12)


def _segment_test_matrix(rng):
    """9×40 with an empty row, an empty column and a row longer than a
    warp (37 entries)."""
    a = rng.normal(size=(9, 40)) * (rng.random((9, 40)) < 0.3)
    a[3, :] = 0.0  # empty row
    a[:, 5] = 0.0  # empty column
    a[6, :] = rng.normal(size=40)
    a[6, [1, 5, 9]] = 0.0  # 37 entries: more than one pass of the lanes
    return a


def _run_csr_vector(engine, indptr, indices, data, x, y, *scalars):
    """One warp per segment, four warps per block."""
    segments = indptr.size - 1
    block = 4 * 32
    grid = -(-segments * 32 // block)
    return engine.run(
        simt_spmv_csr_vector, grid, block, indptr, indices, data, x, y, *scalars
    )


class TestSpmvCsrVector:
    """The thread-level CSR-vector kernel against the device SpMVs, whose
    cost charges its one-warp-per-output mapping."""

    def test_matches_spmv_csr(self, engine, device, rng):
        ah = _segment_test_matrix(rng)
        host = CsrMatrix.from_dense(ah)
        assert np.diff(host.indptr).max() > 32
        d = DeviceCsrMatrix(host, device.place(DeviceCsrMatrix.arrays(host, np.float64)))
        xh = rng.normal(size=40)
        dy = device.zeros(9, np.float64)
        spmv_csr(d, device.to_device(xh), dy)

        y = np.full(9, 7.0)  # stale values: every row, empty ones too, is written
        stats = _run_csr_vector(
            engine, host.indptr, host.indices, host.data, xh, y
        )
        np.testing.assert_allclose(y, dy.data, rtol=1e-12, atol=1e-14)
        assert y[3] == 0.0
        assert stats.warps >= 9

    def test_matches_spmv_csc_t_with_alpha_beta(self, engine, device, rng):
        ah = _segment_test_matrix(rng)
        host = CscMatrix.from_dense(ah)
        d = DeviceCscMatrix(host, device.place(DeviceCscMatrix.arrays(host, np.float64)))
        xh = rng.normal(size=9)
        ch = rng.normal(size=40)
        dy = device.to_device(ch)
        # the pricing form d := c − Aᵀπ
        spmv_csc_t(d, device.to_device(xh), dy, alpha=-1.0, beta=1.0)

        y = ch.copy()
        stats = _run_csr_vector(
            engine, host.indptr, host.indices, host.data, xh, y, -1.0, 1.0
        )
        np.testing.assert_allclose(y, dy.data, rtol=1e-12, atol=1e-14)
        assert y[5] == ch[5]  # empty column keeps β·y
        assert stats.warps >= 40


class TestBlockArgmin:
    def test_matches_numpy(self, engine, rng):
        n, block = 500, 128
        x = rng.normal(size=n)
        grid = -(-n // block)
        vals = np.zeros(grid)
        idxs = np.zeros(grid, dtype=np.int64)
        engine.run(simt_block_argmin, grid, block, x, vals, idxs)
        winner = int(np.argmin(vals))
        assert vals[winner] == pytest.approx(x.min())
        assert idxs[winner] == int(np.argmin(x))

    def test_tie_break_matches_device_reduction(self, engine, device):
        x = np.array([3.0, 1.0, 5.0, 1.0, 1.0, 9.0, 2.0, 8.0])
        vals = np.zeros(1)
        idxs = np.zeros(1, dtype=np.int64)
        engine.run(simt_block_argmin, 1, 8, x, vals, idxs)
        for fusion in (False, True):
            plan = LaunchPlan(device, fusion=fusion)
            d_x, out = device.to_device(x), device.alloc(2, np.float64)
            with plan.section("pricing") as sec:
                sec.argmin_to_device(d_x, out)
            d_idx, d_val = out.copy_to_host()
            assert idxs[0] == d_idx == 1  # lowest index among the tied 1.0s
            assert vals[0] == d_val


class TestEtaUpdate:
    def test_matches_solver_kernel(self, engine, device, rng):
        """Thread-per-element eta GER == the device kernels' composition."""
        from repro.core.gpu_kernels import (
            drive_decision, eta_kernel, extract_row, pivot_ger,
        )
        from repro.gpu.reduce import SLOT_FIELDS, Slot
        from repro.simplex.basis import eta_from_alpha

        m = 9
        binv_h = rng.normal(size=(m, m))
        alpha_h = rng.normal(size=m)
        p = 4
        alpha_h[p] = 2.0  # safe pivot

        # --- block-level path: the solver's update kernels, reading the
        # pivot (p, α_p) from a decision slot on the device
        binv_d = device.to_device(binv_h)
        alpha_d = device.to_device(alpha_h)
        eta_d = device.zeros(m, np.float64)
        row_d = device.zeros(m, np.float64)
        slot = Slot(device.zeros((1, SLOT_FIELDS), np.float64), 0)
        drive_decision(device, slot, p, 0, alpha_d)
        eta_kernel(device, alpha_d, slot, eta_d)
        extract_row(device, binv_d, slot, row_d)
        pivot_ger(device, eta_d, row_d, binv_d, slot=slot)

        # --- thread-level path
        binv_simt = binv_h.copy()
        eta = eta_from_alpha(alpha_h.copy(), p, 1e-12)
        eta_minus_ep = eta.copy()
        eta_minus_ep[p] -= 1.0
        row_p = binv_h[p, :].copy()
        threads = m * m
        engine.run(simt_ger, -(-threads // 64), 64,
                   binv_simt, eta_minus_ep, row_p)

        np.testing.assert_allclose(binv_d.data, binv_simt, rtol=1e-10)

    def test_update_is_the_pivot_inverse(self, engine, rng):
        """After the SIMT eta update, B⁻¹·(new basis column) = e_p."""
        from repro.simplex.basis import eta_from_alpha

        m = 7
        p = 2
        # start from a random non-singular B with known inverse
        b_matrix = rng.normal(size=(m, m)) + m * np.eye(m)
        binv = np.linalg.inv(b_matrix)
        new_col = rng.normal(size=m)
        alpha = binv @ new_col
        alpha[p] += 1.0  # keep the pivot well away from zero
        new_col = b_matrix @ alpha  # consistent column for the tweaked alpha

        eta = eta_from_alpha(alpha, p, 1e-12)
        eta_minus_ep = eta.copy()
        eta_minus_ep[p] -= 1.0
        row_p = binv[p, :].copy()
        engine.run(simt_ger, -(-m * m // 32), 32,
                   binv, eta_minus_ep, row_p)
        e_p = np.zeros(m)
        e_p[p] = 1.0
        np.testing.assert_allclose(binv @ new_col, e_p, atol=1e-9)
