"""Tests for the first-order (PDLP/PDHG) backends and method="auto".

The acceptance bar for the first-order family: both backends converge to
within 1e-4 relative objective of the revised simplex across the generator
suite (dense, sparse, degenerate, bounded), detect infeasibility and
unboundedness via Farkas rays, emit per-restart trace records through the
engine observer, and ``method="auto"`` dispatches between the simplex and
first-order families along the F10 crossover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp.generators import degenerate_lp, random_dense_lp, random_sparse_lp
from repro.lp.problem import Bounds, LPProblem
from repro.simplex.options import SolverOptions
from repro.solve import choose_method, solve
from repro.status import SolveStatus
from repro.trace import PIVOT_EVENTS

FIRSTORDER = ("pdlp", "gpu-pdlp")


def boxed_lp():
    rng = np.random.default_rng(42)
    m, n = 6, 9
    return LPProblem(
        c=rng.uniform(0.1, 1.1, size=n),
        a=rng.uniform(0.1, 1.1, size=(m, n)),
        senses=["<="] * m,
        b=rng.uniform(n / 2.0, float(n), size=m),
        bounds=Bounds(np.zeros(n), rng.uniform(0.5, 4.0, size=n)),
        maximize=True,
        name="fo-boxed",
    )


SUITE = [
    random_dense_lp(8, 12, seed=3, name="fo-dense"),
    random_sparse_lp(10, 16, density=0.3, seed=11, name="fo-sparse"),
    degenerate_lp(7, 9, seed=5),
    boxed_lp(),
]


class TestConvergence:
    @pytest.mark.parametrize("method", FIRSTORDER)
    @pytest.mark.parametrize("lp", SUITE, ids=lambda lp: lp.name)
    def test_matches_revised_within_1e4(self, method, lp):
        ref = solve(lp, method="revised")
        r = solve(lp, method=method)
        assert r.status is SolveStatus.OPTIMAL
        rel = abs(r.objective - ref.objective) / (1.0 + abs(ref.objective))
        assert rel < 1e-4, (method, lp.name, rel)
        # the solution itself is feasible, not just the objective close
        assert r.residuals["primal_infeasibility"] < 1e-6

    @pytest.mark.parametrize("method", FIRSTORDER)
    def test_infeasible_detected(self, method):
        lp = LPProblem(
            c=np.array([1.0, 1.0]),
            a=np.array([[1.0, 1.0], [1.0, 1.0]]),
            senses=["<=", ">="],
            b=np.array([1.0, 3.0]),
            bounds=Bounds.nonnegative(2),
            maximize=False,
        )
        assert solve(lp, method=method).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("method", FIRSTORDER)
    def test_unbounded_detected(self, method):
        lp = LPProblem(
            c=np.array([1.0, 1.0]),
            a=np.array([[1.0, -1.0]]),
            senses=["<="],
            b=np.array([1.0]),
            bounds=Bounds.nonnegative(2),
            maximize=True,
        )
        assert solve(lp, method=method).status is SolveStatus.UNBOUNDED

    def test_cpu_gpu_agree(self):
        lp = random_sparse_lp(12, 18, density=0.3, seed=2)
        cpu = solve(lp, method="pdlp", dtype=np.float64)
        gpu = solve(lp, method="gpu-pdlp", dtype=np.float64)
        assert cpu.objective == pytest.approx(gpu.objective, rel=1e-6)


class TestResultSurface:
    @pytest.fixture(scope="class")
    def result(self):
        return solve(SUITE[0], method="pdlp", trace=True)

    def test_firstorder_extras(self, result):
        for key in ("restarts", "spmv_count", "primal_weight",
                    "norm_estimate", "kkt_score", "kkt_primal",
                    "kkt_dual", "kkt_gap"):
            assert key in result.extra, key
        assert result.extra["spmv_count"] > 0
        assert result.extra["kkt_score"] <= SolverOptions().tol_kkt * 1.0001

    def test_no_basis(self, result):
        # first-order methods are basis-free by design
        assert "basis" not in result.extra

    def test_trace_has_restart_records(self, result):
        events = [rec.event for rec in result.trace]
        assert "restart" in events
        assert events[-1] == "optimal"
        restarts = [rec for rec in result.trace if rec.event == "restart"]
        # every restart record carries the candidate's KKT score in theta
        assert all(rec.theta >= 0.0 for rec in restarts)
        assert all(rec.pricing_rule == "pdhg" for rec in restarts)
        # restarts are the first-order methods' pivot analogue
        pivots = [rec for rec in result.trace if rec.event in PIVOT_EVENTS]
        assert pivots == restarts

    def test_duals_recovered(self, result):
        assert "duals" in result.extra
        assert "y_std" in result.extra

    def test_spmv_count_agrees_across_placements(self):
        # both placements count every SpMV they charge, the 48 of the
        # power-iteration norm estimate included
        lp = random_sparse_lp(40, 60, density=0.1, seed=3)
        cpu = solve(lp, method="pdlp")
        gpu = solve(lp, method="gpu-pdlp")
        assert cpu.iterations.total_iterations == gpu.iterations.total_iterations
        assert cpu.extra["restarts"] == gpu.extra["restarts"]
        assert cpu.extra["spmv_count"] == gpu.extra["spmv_count"]
        checks = cpu.iterations.total_iterations // 64
        # 2 per iteration, 2 per scored candidate (the start + 2 per check)
        # and 2 per power-iteration step
        assert cpu.extra["spmv_count"] == (
            2 * cpu.iterations.total_iterations + 2 * (1 + 2 * checks) + 48
        )

    def test_gpu_device_extras(self):
        r = solve(SUITE[0], method="gpu-pdlp")
        assert r.extra["kernel_launches"] > 0
        assert r.timing.transfer_seconds > 0.0
        # fused by default: the update kernels appear inside fused launches
        names = " ".join(r.extra["by_kernel"])
        assert "primal_update" in names and "dual_update" in names


class TestOptions:
    def test_tol_kkt_validated(self):
        with pytest.raises(SolverError):
            SolverOptions(tol_kkt=-1.0)

    def test_tol_kkt_respected(self):
        lp = SUITE[0]
        loose = solve(lp, method="pdlp", tol_kkt=1e-4)
        tight = solve(lp, method="pdlp", tol_kkt=1e-10)
        assert loose.extra["kkt_score"] <= 1e-4
        assert tight.extra["kkt_score"] <= 1e-9  # floored by 1e3*eps(f64)
        assert (
            loose.iterations.total_iterations
            <= tight.iterations.total_iterations
        )

    def test_iteration_limit_status(self):
        r = solve(SUITE[0], method="pdlp", max_iterations=10)
        assert r.status is SolveStatus.ITERATION_LIMIT

    def test_warm_start_rejected(self):
        for method in FIRSTORDER:
            with pytest.raises(SolverError, match="warm start"):
                solve(SUITE[0], method=method, initial_basis=np.arange(3))


class TestAutoDispatch:
    def test_dense_goes_to_gpu_revised(self):
        assert choose_method(random_dense_lp(8, 12, seed=3)) == "gpu-revised"

    def test_small_sparse_goes_to_sparse_simplex(self):
        # gpu-revised prices the CSC data itself and F10 measures it ahead
        # of gpu-revised-sparse on every sparse instance
        lp = random_sparse_lp(10, 16, density=0.3, seed=11)
        assert choose_method(lp) == "gpu-revised"

    def test_large_sparse_goes_to_pdlp(self):
        lp = random_sparse_lp(400, 600, density=0.02, seed=1)
        assert choose_method(lp) == "gpu-pdlp"

    def test_warm_start_forces_basis_method(self):
        lp = random_sparse_lp(400, 600, density=0.02, seed=1)
        assert choose_method(lp, initial_basis=np.arange(3)) == "gpu-revised"

    def test_auto_solves_end_to_end(self):
        lp = random_sparse_lp(10, 16, density=0.3, seed=11)
        auto = solve(lp, method="auto")
        concrete = solve(lp, method=choose_method(lp))
        assert auto.status is SolveStatus.OPTIMAL
        assert auto.objective == concrete.objective
        assert auto.solver == concrete.solver

    def test_auto_not_a_registry_row(self):
        # "auto" resolves before dispatch: pinned method sets, the golden
        # fixture and batch capability sets never see it
        from repro.solve import available_methods

        assert "auto" not in available_methods()


class TestNanScore:
    """A NaN KKT score ends the phase as NUMERICAL instead of silently
    losing every score comparison."""

    def test_score_propagates_nan(self):
        from repro.firstorder.pdhg import KktScore

        nan = float("nan")
        for parts in ((nan, 1.0, 2.0), (1.0, nan, 2.0), (1.0, 2.0, nan)):
            assert np.isnan(KktScore(*parts, 0.0, 0.0).score)
        assert KktScore(1.0, 3.0, 2.0, 0.0, 0.0).score == 3.0

    @pytest.mark.parametrize("which", ["cur", "avg"])
    @pytest.mark.parametrize("method", FIRSTORDER)
    def test_nan_residual_ends_phase_numerical(self, method, which, monkeypatch):
        from repro.firstorder import placement

        cls = {
            "pdlp": placement.HostPlacement,
            "gpu-pdlp": placement.DevicePlacement,
        }[method]
        real = cls.residuals
        calls = []

        def residuals(self, pair):
            rp, rd, pobj, dobj = real(self, pair)
            calls.append(pair)
            if len(calls) > 1 and pair == which:  # from the first check on
                rd = float("nan")
            return rp, rd, pobj, dobj

        monkeypatch.setattr(cls, "residuals", residuals)
        r = solve(SUITE[1], method=method)
        assert r.status is SolveStatus.NUMERICAL
        # the first check (after check_every iterations) ends the phase
        assert r.iterations.phase2_iterations == 64
        assert not np.isnan(r.extra["kkt_score"])  # the best accepted score
