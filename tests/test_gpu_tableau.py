"""Tests for the GPU full-tableau simplex (A3 design point)."""

import numpy as np
import pytest

from conftest import TEXTBOOK_OPTIMUM, assert_matches_oracle
from repro.core.gpu_tableau_simplex import GpuTableauSimplex
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp, random_sparse_lp, transportation_lp
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


def solve_gpu(lp, **kw):
    return GpuTableauSimplex(SolverOptions(**kw)).solve(lp)


class TestBasicOutcomes:
    def test_textbook(self, textbook_lp):
        r = solve_gpu(textbook_lp)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)
        assert r.solver == "gpu-tableau"

    def test_infeasible(self, infeasible_lp):
        assert solve_gpu(infeasible_lp).status is SolveStatus.INFEASIBLE

    def test_unbounded(self, unbounded_lp):
        assert solve_gpu(unbounded_lp).status is SolveStatus.UNBOUNDED

    def test_equality(self, equality_lp):
        assert_matches_oracle(equality_lp, solve_gpu(equality_lp, dtype=np.float64))

    def test_iteration_limit(self, textbook_lp):
        assert solve_gpu(textbook_lp, max_iterations=1).status is SolveStatus.ITERATION_LIMIT


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_dense(self, seed):
        lp = random_dense_lp(20, 30, seed=seed)
        assert_matches_oracle(lp, solve_gpu(lp, dtype=np.float64))

    def test_sparse_input_is_densified(self):
        lp = random_sparse_lp(20, 30, density=0.2, seed=1)
        assert_matches_oracle(lp, solve_gpu(lp, dtype=np.float64))

    def test_transportation(self):
        lp = transportation_lp(4, 5, seed=0)
        assert_matches_oracle(lp, solve_gpu(lp, pricing="hybrid", dtype=np.float64))


class TestOptions:
    def test_devex_rejected(self):
        with pytest.raises(SolverError):
            GpuTableauSimplex(SolverOptions(pricing="devex"))

    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing(self, pricing, textbook_lp):
        r = solve_gpu(textbook_lp, pricing=pricing)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)


class TestAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pivots_as_cpu_tableau(self, seed):
        from repro.simplex.tableau import TableauSimplexSolver

        lp = random_dense_lp(18, 25, seed=seed + 300)
        rg = solve_gpu(lp, dtype=np.float64)
        rc = TableauSimplexSolver(SolverOptions(dtype=np.float64)).solve(lp)
        assert rg.iterations.total_iterations == rc.iterations.total_iterations
        assert rg.objective == pytest.approx(rc.objective, rel=1e-8)


class TestDeviceBehaviour:
    def test_tableau_ger_moves_the_most_data(self):
        """The rank-1 full-tableau update is the dominant data mover (the
        strided pivot-row extraction can cost more *time* at low device
        fill — a real GT200 effect the model reproduces — but GER owns the
        traffic)."""
        lp = random_dense_lp(256, 256, seed=5)
        solver = GpuTableauSimplex(
            SolverOptions(pricing="dantzig", fusion=False)
        )
        r = solver.solve(lp)
        by_bytes = {
            name: rec.bytes for name, rec in solver.device.stats.by_kernel.items()
        }
        assert by_bytes["kernel.tableau_ger"] == max(by_bytes.values())
        # and it is at least a top-3 time consumer
        top3 = sorted(r.extra["by_kernel"], key=r.extra["by_kernel"].get)[-3:]
        assert "kernel.tableau_ger" in top3

    def test_memory_released(self, textbook_lp):
        solver = GpuTableauSimplex()
        solver.solve(textbook_lp)
        assert solver.device.stats.bytes_in_use == 0

    def test_per_iteration_cost_exceeds_revised_on_dense_square(self):
        """Θ(mn) tableau pivots cost more than revised's BLAS-2 iteration
        once pricing is the same size — on square dense instances the two
        are comparable, on wide ones the tableau pays."""
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex

        lp = random_dense_lp(32, 512, seed=6)
        rt = solve_gpu(lp)
        rr = GpuRevisedSimplex(SolverOptions(pricing="dantzig")).solve(lp)
        t_tab = rt.timing.modeled_seconds / max(1, rt.iterations.total_iterations)
        t_rev = rr.timing.modeled_seconds / max(1, rr.iterations.total_iterations)
        assert t_tab > 0 and t_rev > 0
