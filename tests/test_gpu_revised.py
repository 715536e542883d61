"""Tests for the paper's GPU revised simplex solver."""

import numpy as np
import pytest

from conftest import (
    BOUNDED_VARS_OPTIMUM,
    TEXTBOOK_OPTIMUM,
    TEXTBOOK_X,
    assert_matches_oracle,
    corrupt_multiplier_updates,
    multiplier_drift,
    optimal_multipliers,
    pricing_gemv_launches,
    scipy_oracle,
)
from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.errors import SolverError
from repro.gpu.device import Device
from repro.lp.generators import (
    degenerate_lp,
    klee_minty_lp,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.perfmodel.presets import GTX8800_PARAMS
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


def solve_gpu(lp, **kw):
    return GpuRevisedSimplex(SolverOptions(**kw)).solve(lp)


class TestBasicOutcomes:
    def test_textbook(self, textbook_lp):
        r = solve_gpu(textbook_lp)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)
        np.testing.assert_allclose(r.x, TEXTBOOK_X, atol=1e-6)
        assert r.solver == "gpu-revised"

    def test_infeasible(self, infeasible_lp):
        assert solve_gpu(infeasible_lp).status is SolveStatus.INFEASIBLE

    def test_unbounded(self, unbounded_lp):
        assert solve_gpu(unbounded_lp).status is SolveStatus.UNBOUNDED

    def test_equality_phase1(self, equality_lp):
        r = solve_gpu(equality_lp)
        assert r.iterations.phase1_iterations > 0
        assert_matches_oracle(equality_lp, r)

    def test_general_bounds(self, bounded_vars_lp):
        r = solve_gpu(bounded_vars_lp)
        assert r.objective == pytest.approx(BOUNDED_VARS_OPTIMUM, rel=1e-6)

    def test_iteration_limit(self, textbook_lp):
        r = solve_gpu(textbook_lp, max_iterations=1)
        assert r.status is SolveStatus.ITERATION_LIMIT


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dense_fp64(self, seed):
        lp = random_dense_lp(25, 35, seed=seed)
        assert_matches_oracle(lp, solve_gpu(lp, dtype=np.float64))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_dense_fp32(self, seed):
        lp = random_dense_lp(25, 35, seed=seed)
        r = solve_gpu(lp, dtype=np.float32)
        from conftest import scipy_oracle

        ref = scipy_oracle(lp)
        assert r.status is SolveStatus.OPTIMAL
        assert abs(r.objective - ref) <= 1e-3 * (1 + abs(ref))

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_path(self, seed):
        lp = random_sparse_lp(30, 50, density=0.15, seed=seed)
        r = solve_gpu(lp, dtype=np.float64)
        assert_matches_oracle(lp, r)
        # the sparse kernel path actually ran
        assert any("spmv_csc_t" in k for k in r.extra["by_kernel"])

    def test_transportation(self):
        lp = transportation_lp(5, 7, seed=0)
        assert_matches_oracle(lp, solve_gpu(lp, pricing="hybrid", dtype=np.float64))

    def test_degenerate_hybrid(self):
        lp = degenerate_lp(20, 24, seed=0)
        assert_matches_oracle(lp, solve_gpu(lp, pricing="hybrid", dtype=np.float64))

    def test_klee_minty(self):
        r = solve_gpu(klee_minty_lp(6), dtype=np.float64)
        assert r.objective == pytest.approx(5.0**6)


class TestAgreementWithCpu:
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_pivot_path_fp64(self, seed):
        """Same pricing + ratio rules + fp64 arithmetic: the GPU walks the
        CPU's exact pivot sequence."""
        from repro.simplex.revised_cpu import RevisedSimplexSolver

        lp = random_dense_lp(30, 40, seed=seed + 50)
        rg = solve_gpu(lp, dtype=np.float64)
        rc = RevisedSimplexSolver(SolverOptions(dtype=np.float64)).solve(lp)
        assert rg.iterations.total_iterations == rc.iterations.total_iterations
        assert rg.objective == pytest.approx(rc.objective, rel=1e-9)
        np.testing.assert_array_equal(rg.extra["basis"], rc.extra["basis"])


class TestOptions:
    def test_tableau_pricing_rejected(self):
        with pytest.raises(SolverError):
            GpuRevisedSimplex(SolverOptions(pricing="devex"))

    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing_rules(self, pricing, textbook_lp):
        r = solve_gpu(textbook_lp, pricing=pricing)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_refactor_period(self):
        lp = random_dense_lp(64, 64, seed=42)
        r = solve_gpu(lp, refactor_period=5, dtype=np.float64)
        assert r.iterations.refactorizations >= 1
        assert r.status is SolveStatus.OPTIMAL

    def test_scaling(self):
        lp = random_dense_lp(20, 25, seed=7)
        assert_matches_oracle(lp, solve_gpu(lp, scale=True, dtype=np.float64))

    def test_alternate_device_model(self, textbook_lp):
        solver = GpuRevisedSimplex(gpu_params=GTX8800_PARAMS)
        r = solver.solve(textbook_lp)
        assert r.extra["device"] == "GeForce 8800 GTX"
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_external_device_reused(self, textbook_lp, device):
        solver = GpuRevisedSimplex(device=device)
        solver.solve(textbook_lp)
        assert solver.device is device


class TestDeviceAccounting:
    def test_sections_cover_phases(self, textbook_lp):
        r = solve_gpu(textbook_lp)
        bd = r.timing.kernel_breakdown
        for section in ("pricing", "ftran", "ratio", "update", "transfer"):
            assert section in bd, section
            assert bd[section] >= 0

    def test_modeled_time_positive_and_decomposed(self):
        lp = random_dense_lp(32, 48, seed=3)
        r = solve_gpu(lp)
        assert r.timing.modeled_seconds > 0
        assert r.timing.transfer_seconds > 0
        # phase sections partition a subset of the clock; the 'transfer'
        # entry overlaps them (scalar reads happen inside pricing/ratio),
        # so exclude it from the partition check
        sections = {
            k: v for k, v in r.timing.kernel_breakdown.items() if k != "transfer"
        }
        assert sum(sections.values()) <= r.timing.modeled_seconds * 1.01 + 1e-9
        assert r.timing.transfer_seconds <= r.timing.modeled_seconds

    def test_device_memory_released(self, textbook_lp):
        solver = GpuRevisedSimplex()
        solver.solve(textbook_lp)
        assert solver.device.stats.bytes_in_use == 0

    def test_memory_released_on_infeasible(self, infeasible_lp):
        solver = GpuRevisedSimplex()
        solver.solve(infeasible_lp)
        assert solver.device.stats.bytes_in_use == 0

    def test_kernel_launches_counted(self, textbook_lp):
        r = solve_gpu(textbook_lp)
        assert r.extra["kernel_launches"] > 0
        assert sum(r.extra["by_kernel"].values()) > 0

    def test_peak_memory_reported(self):
        lp = random_dense_lp(64, 64, seed=1)
        r = solve_gpu(lp, dtype=np.float32)
        # at least A (m*n*4) + B^-1 (m*m*4) resident
        assert r.extra["peak_device_bytes"] >= 64 * 64 * 4 * 2

    def test_fp32_halves_main_matrix_traffic(self):
        lp = random_dense_lp(48, 48, seed=2)
        r32 = solve_gpu(lp, dtype=np.float32)
        r64 = solve_gpu(lp, dtype=np.float64)
        assert r32.timing.modeled_seconds < r64.timing.modeled_seconds


class TestPrecisionBehaviour:
    def test_fp32_objective_close_to_fp64(self):
        lp = random_dense_lp(40, 60, seed=8)
        r32 = solve_gpu(lp, dtype=np.float32)
        r64 = solve_gpu(lp, dtype=np.float64)
        assert r32.objective == pytest.approx(r64.objective, rel=1e-3)

    def test_tolerances_widened_for_fp32(self, textbook_lp):
        """fp32 solves must not spin on sub-epsilon reduced costs."""
        r = solve_gpu(textbook_lp, dtype=np.float32, tol_reduced_cost=1e-15)
        assert r.status is SolveStatus.OPTIMAL


class TestMultiplierUpdate:
    """π = B⁻ᵀc_B is multiplied once per phase and then updated from the
    pivot row; terminal verdicts are re-priced with a fresh multiply."""

    @pytest.mark.parametrize("seed", range(3))
    def test_updated_pi_matches_exact_multipliers(self, seed, monkeypatch):
        lp = random_dense_lp(24, 32, seed=seed)
        solver = GpuRevisedSimplex(SolverOptions(dtype=np.float64, trace=True))
        r, drift = multiplier_drift(solver, lp, monkeypatch)
        assert r.status is SolveStatus.OPTIMAL
        assert len(drift) == r.iterations.total_iterations - 1
        assert max(drift) <= 1e-9

    def test_updated_pi_matches_through_phase1(self, monkeypatch):
        lp = transportation_lp(4, 6, seed=0)
        solver = GpuRevisedSimplex(SolverOptions(dtype=np.float64, trace=True))
        r, drift = multiplier_drift(solver, lp, monkeypatch)
        assert r.iterations.phase1_iterations > 0
        assert_matches_oracle(lp, r)
        assert len(drift) >= 10
        assert max(drift) <= 1e-9

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_corrupted_update_is_re_multiplied(self, sparse, monkeypatch):
        """An update that prices every column out must not end the solve:
        each false verdict is redone with a fresh π, and the solve goes on
        to HiGHS's optimum."""
        lp = (random_sparse_lp(16, 24, density=0.3, seed=2) if sparse
              else random_dense_lp(16, 24, seed=5))
        clean = GpuRevisedSimplex(SolverOptions(dtype=np.float64))
        ref = clean.solve(lp)
        assert ref.iterations.phase1_iterations == 0
        multiplied = corrupt_multiplier_updates(
            monkeypatch, optimal_multipliers(clean.prep, ref.extra["basis"])
        )
        r = solve_gpu(lp, dtype=np.float64, fusion=False)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(scipy_oracle(lp), rel=1e-9)
        # the phase start, then one re-multiply after every pivot
        assert sum(multiplied) == r.iterations.total_iterations >= 5
        assert len(multiplied) == 2 * r.iterations.total_iterations - 1

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_pricing_issues_one_gemv_per_iteration(self, sparse, monkeypatch):
        lp = (random_sparse_lp(30, 40, density=0.2, seed=3) if sparse
              else random_dense_lp(30, 40, seed=3))
        r, per_pass = pricing_gemv_launches(
            monkeypatch, lambda: solve_gpu(lp, dtype=np.float64)
        )
        assert r.iterations.phase1_iterations == 0
        assert len(per_pass) >= r.iterations.total_iterations >= 10
        # π = B⁻ᵀc_B joins the first pass and the terminal verification
        assert per_pass[0] == 2
        assert per_pass[1:-1] == [1] * (len(per_pass) - 2)
        assert per_pass[-1] in (1, 2)
        assert len(per_pass) == r.iterations.total_iterations + (per_pass[-1] - 1)

    def test_refactor_marks_pi_stale(self, monkeypatch):
        lp = random_dense_lp(24, 32, seed=4)
        solver = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64, trace=True, refactor_period=2)
        )
        r, drift = multiplier_drift(solver, lp, monkeypatch)
        assert r.iterations.refactorizations >= 3
        assert max(drift) <= 1e-9
        _, per_pass = pricing_gemv_launches(
            monkeypatch,
            lambda: solve_gpu(lp, dtype=np.float64, refactor_period=2),
        )
        assert per_pass.count(2) >= 1 + r.iterations.refactorizations


class TestDeviceLayout:
    def test_a_column_major_binv_row_major(self):
        """A is placed column-major and B⁻¹ row-major, so pricing's GEMVᵀ
        runs a warp per column of A and only the stale-π multiply, across
        the rows of B⁻¹, runs 16-column tiles of 256 threads."""
        from repro.gpu.memory import COLUMN_MAJOR, ROW_MAJOR

        placed = []

        class Probe(GpuRevisedSimplex):
            def _place(self, prep, dtype):
                placed.append(super()._place(prep, dtype))
                return placed[-1]

        lp = random_dense_lp(40, 60, seed=3)
        dev = Device()
        dev.record_timeline()
        r = Probe(SolverOptions(fusion=False), device=dev).solve(lp)
        assert r.status is SolveStatus.OPTIMAL
        (st,) = placed
        assert (st.a_dense.layout, st.binv.layout) == (COLUMN_MAJOR, ROW_MAJOR)
        # each starts on a segment although the vectors before it do not end
        # on one (A follows 100 + 40 words of costs)
        segment = dev.params.transaction_bytes
        assert st.region["c_b"].offset % segment != 0
        assert st.a_dense.offset % segment == st.binv.offset % segment == 0
        m, n = st.prep.m, st.prep.n_total
        threads = {e.threads for e in dev.timeline if e.name == "blas.gemv_t"}
        assert threads == {32 * n, 256 * -(-m // 16)}
