"""Tests for the structured generators and the fill-in instrumentation."""

import numpy as np
import pytest

from conftest import assert_matches_oracle
from repro import solve
from repro.lp.generators import band_lp, staircase_lp


class TestStaircase:
    def test_shape(self):
        lp = staircase_lp(4, stage_size=5, seed=0)
        assert lp.num_constraints == 20
        assert lp.num_vars == 25
        assert lp.is_sparse

    def test_staircase_structure(self):
        """Row blocks touch exactly their own and the next column block."""
        lp = staircase_lp(3, stage_size=4, seed=1)
        dense = lp.a_dense()
        for t in range(3):
            rows = slice(t * 4, (t + 1) * 4)
            inside = dense[rows, t * 4:(t + 2) * 4]
            outside = dense[rows].copy()
            outside[:, t * 4:(t + 2) * 4] = 0.0
            assert np.all(inside > 0)
            assert np.all(outside == 0.0)

    def test_feasible_bounded_solvable(self):
        lp = staircase_lp(5, stage_size=6, seed=2)
        assert lp.is_feasible(np.zeros(lp.num_vars))
        assert_matches_oracle(lp, solve(lp, method="revised"))

    def test_gpu_sparse_path(self):
        lp = staircase_lp(4, stage_size=5, seed=3)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        assert_matches_oracle(lp, r)
        assert any("spmv_csc_t" in k for k in r.extra["by_kernel"])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            staircase_lp(0)


class TestBand:
    def test_bandwidth_respected(self):
        lp = band_lp(30, bandwidth=3, seed=0)
        dense = lp.a_dense()
        for i in range(30):
            nz = np.nonzero(dense[i])[0]
            assert nz.min() >= i - 3
            assert nz.max() <= i + 3

    def test_nnz_count(self):
        m, k = 25, 2
        lp = band_lp(m, bandwidth=k, seed=1)
        # interior rows have 2k+1 entries; edges are clipped
        expected = sum(min(m, i + k + 1) - max(0, i - k) for i in range(m))
        assert lp.a.nnz == expected

    def test_solvable(self):
        lp = band_lp(40, bandwidth=4, seed=2)
        assert_matches_oracle(lp, solve(lp, method="revised"))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            band_lp(5, bandwidth=0)


class TestFillInstrumentation:
    def test_curve_collected(self):
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.lp.generators import random_sparse_lp
        from repro.simplex.options import SolverOptions

        lp = random_sparse_lp(64, 64, density=0.05, seed=1)
        solver = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64), fill_stats_every=5
        )
        r = solver.solve(lp)
        curve = r.extra["binv_fill"]
        assert curve, "no fill samples collected"
        iters = [it for it, _ in curve]
        assert iters == sorted(iters)
        assert all(it % 5 == 0 for it in iters)
        fracs = [f for _, f in curve]
        assert all(0.0 < f <= 1.0 for f in fracs)
        # fill grows overall
        assert fracs[-1] >= fracs[0]

    def test_instrumentation_does_not_change_modeled_time(self):
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.lp.generators import random_dense_lp
        from repro.simplex.options import SolverOptions

        lp = random_dense_lp(32, 32, seed=4)
        plain = GpuRevisedSimplex(SolverOptions(dtype=np.float64)).solve(lp)
        instr = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64), fill_stats_every=3
        ).solve(lp)
        assert instr.timing.modeled_seconds == pytest.approx(
            plain.timing.modeled_seconds
        )

    def test_off_by_default(self, textbook_lp):
        r = solve(textbook_lp, method="gpu-revised")
        assert "binv_fill" not in r.extra
