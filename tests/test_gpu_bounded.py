"""Tests for boxed bounds on the GPU revised simplex: finite upper bounds
kept out of the rows, with bound flips decided on the device."""

import numpy as np
import pytest

from conftest import (
    BOUNDED_VARS_OPTIMUM,
    TEXTBOOK_OPTIMUM,
    assert_matches_oracle,
    corrupt_multiplier_updates,
    multiplier_drift,
    optimal_multipliers,
    pricing_gemv_launches,
    scipy_oracle,
)
from repro import solve
from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp, random_sparse_lp
from repro.lp.problem import Bounds, LPProblem
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


def boxed_random(m, n, seed, span=(0.5, 3.0)):
    rng = np.random.default_rng(seed ^ 0xCAFE)
    base = random_dense_lp(m, n, seed=seed)
    return LPProblem(
        c=base.c, a=base.a_dense(), senses=base.senses, b=base.b,
        bounds=Bounds(np.zeros(n), rng.uniform(*span, n)),
        maximize=True, name=f"gpu-boxed-{m}x{n}-s{seed}",
    )


class TestBasicOutcomes:
    def test_textbook(self, textbook_lp):
        r = solve(textbook_lp, method="gpu-revised")
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)
        assert r.solver == "gpu-revised"

    def test_general_bounds(self, bounded_vars_lp):
        r = solve(bounded_vars_lp, method="gpu-revised", dtype=np.float64)
        assert r.objective == pytest.approx(BOUNDED_VARS_OPTIMUM, rel=1e-6)

    def test_infeasible(self, infeasible_lp):
        assert solve(infeasible_lp, method="gpu-revised").status is SolveStatus.INFEASIBLE

    def test_unbounded(self, unbounded_lp):
        assert solve(unbounded_lp, method="gpu-revised").status is SolveStatus.UNBOUNDED

    def test_equality_phase1(self, equality_lp):
        r = solve(equality_lp, method="gpu-revised", dtype=np.float64)
        assert_matches_oracle(equality_lp, r)

    def test_iteration_limit(self, textbook_lp):
        r = solve(textbook_lp, method="gpu-revised", max_iterations=1)
        assert r.status is SolveStatus.ITERATION_LIMIT


class TestBoxedCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_boxed_fp64(self, seed):
        lp = boxed_random(15, 25, seed)
        assert_matches_oracle(lp, solve(lp, method="gpu-revised",
                                        dtype=np.float64))

    @pytest.mark.parametrize("seed", range(2))
    def test_boxed_fp32(self, seed):
        from conftest import scipy_oracle

        lp = boxed_random(15, 25, seed + 20)
        r = solve(lp, method="gpu-revised", dtype=np.float32)
        ref = scipy_oracle(lp)
        assert r.status is SolveStatus.OPTIMAL
        assert abs(r.objective - ref) <= 1e-3 * (1 + abs(ref))

    def test_sparse_path(self):
        base = random_sparse_lp(15, 30, density=0.2, seed=3)
        rng = np.random.default_rng(7)
        lp = LPProblem(c=base.c, a=base.a, senses=base.senses, b=base.b,
                       bounds=Bounds(np.zeros(30), rng.uniform(0.5, 2.0, 30)),
                       maximize=True)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        assert_matches_oracle(lp, r)
        assert any("spmv_csc_t" in k for k in r.extra["by_kernel"])

    def test_bound_flips_counted(self):
        lp = boxed_random(20, 30, seed=1)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        assert r.extra["bound_flips"] >= 1

    def test_flip_leaves_binv_alone(self, monkeypatch):
        """A bound flip must not update B⁻¹: the flip is decided on the
        device, so the GER launch it issues does nothing."""
        from repro.core import gpu_kernels as K

        pivot_ger, updates = K.pivot_ger, []

        def spy(dev, x, y, a, *args, **kw):
            before = a.data.copy()
            pivot_ger(dev, x, y, a, *args, **kw)
            updates.append(not np.array_equal(before, a.data))

        monkeypatch.setattr(K, "pivot_ger", spy)
        lp = boxed_random(24, 36, seed=2)
        solver = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64, fusion=False)
        )
        r = solver.solve(lp)
        assert r.extra["bound_flips"] >= 1
        pivots = (r.iterations.total_iterations
                  - r.extra["bound_flips"]
                  - 2)  # each phase's last iteration doesn't pivot
        # GER moves B⁻¹ once per true pivot (plus drive-out pivots), never
        # for a flip or a halted iteration
        assert len(updates) > sum(updates)
        assert sum(updates) <= pivots + 4


class TestAgreementWithCpuBounded:
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_pivot_paths_fp64(self, seed):
        lp = boxed_random(18, 24, seed + 40)
        rg = solve(lp, method="gpu-revised", dtype=np.float64)
        rc = solve(lp, method="revised", dtype=np.float64)
        assert rg.extra["basis"].size == lp.num_constraints
        assert rg.objective == pytest.approx(rc.objective, rel=1e-9)
        assert rg.iterations.total_iterations == rc.iterations.total_iterations
        assert rg.extra["bound_flips"] == rc.extra["bound_flips"]
        np.testing.assert_array_equal(rg.extra["basis"], rc.extra["basis"])
        np.testing.assert_array_equal(rg.extra["at_upper"], rc.extra["at_upper"])


class TestOptionsAndCleanup:
    def test_devex_rejected(self):
        with pytest.raises(SolverError):
            GpuRevisedSimplex(SolverOptions(pricing="devex"))

    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing(self, pricing, textbook_lp):
        r = solve(textbook_lp, method="gpu-revised", pricing=pricing)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_memory_released(self, textbook_lp):
        solver = GpuRevisedSimplex()
        solver.solve(textbook_lp)
        assert solver.device.stats.bytes_in_use == 0

    def test_sections_present(self):
        lp = boxed_random(12, 16, seed=6)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        for section in ("pricing", "ftran", "ratio", "update", "transfer"):
            assert section in r.timing.kernel_breakdown


class TestMultiplierUpdate:
    """π = B⁻ᵀc_B is updated from the pivot row, left alone by bound
    flips, and multiplied fresh to verify a terminal verdict."""

    @pytest.mark.parametrize("seed", range(3))
    def test_updated_pi_matches_exact_multipliers(self, seed, monkeypatch):
        lp = boxed_random(20, 30, seed=seed)
        solver = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64, trace=True)
        )
        r, drift = multiplier_drift(solver, lp, monkeypatch)
        assert r.status is SolveStatus.OPTIMAL
        assert r.extra["bound_flips"] >= 1
        # measured once per batch of 1, 2, 4, then 8 iterations
        assert len(drift) >= 4
        assert max(drift) <= 1e-9

    def test_corrupted_update_is_re_multiplied(self, monkeypatch):
        lp = random_dense_lp(16, 24, seed=5)
        clean = GpuRevisedSimplex(SolverOptions(dtype=np.float64))
        ref = clean.solve(lp)
        assert ref.iterations.phase1_iterations == 0
        multiplied = corrupt_multiplier_updates(
            monkeypatch, optimal_multipliers(clean.prep, ref.extra["basis"])
        )
        r = solve(lp, method="gpu-revised", dtype=np.float64,
                  fusion=False)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(scipy_oracle(lp), rel=1e-9)
        assert sum(multiplied) == r.iterations.total_iterations >= 5

    def test_pricing_issues_one_gemv_per_iteration(self, monkeypatch):
        lp = boxed_random(24, 36, seed=2)
        r, per_pass = pricing_gemv_launches(
            monkeypatch,
            lambda: solve(lp, method="gpu-revised", dtype=np.float64),
        )
        assert r.iterations.phase1_iterations == 0
        assert r.extra["bound_flips"] >= 1
        # π = B⁻ᵀc_B joins the first pass and the terminal verification;
        # every other pass, the ones a verdict halted too, is one launch
        assert per_pass[0] == 2
        assert set(per_pass[1:]) <= {1, 2} and per_pass[1:].count(2) <= 1


def test_rebuilds_like_the_host():
    """The boxed device method rebuilds B⁻¹ on the same update count as the
    host one, recomputing β from the effective rhs, and lands on the same
    optimum."""
    import dataclasses

    lp = random_dense_lp(40, 60, seed=2)
    boxed = dataclasses.replace(lp, bounds=Bounds(np.zeros(60), np.full(60, 3.0)))
    host, dev = (
        solve(boxed, method=m, dtype=np.float64, refactor_period=7)
        for m in ("revised", "gpu-revised")
    )
    assert host.status is dev.status is SolveStatus.OPTIMAL
    assert dev.extra["bound_flips"] == host.extra["bound_flips"] > 0
    assert dev.iterations.refactorizations == host.iterations.refactorizations > 0
    assert dev.objective == pytest.approx(host.objective, rel=1e-9)
