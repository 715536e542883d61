"""Tests for the CPU revised simplex solver (the paper's comparator)."""

import numpy as np
import pytest

from conftest import (
    BOUNDED_VARS_OPTIMUM,
    TEXTBOOK_OPTIMUM,
    TEXTBOOK_X,
    assert_matches_oracle,
    badly_scaled,
)
from repro.errors import SolverError
from repro.lp.generators import (
    blending_lp,
    degenerate_lp,
    klee_minty_lp,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.simplex.options import SolverOptions
from repro.simplex.revised_cpu import RevisedSimplexSolver
from repro.status import SolveStatus


def solve_with(lp, **kw):
    return RevisedSimplexSolver(SolverOptions(**kw)).solve(lp)


class TestBasicOutcomes:
    def test_textbook(self, textbook_lp):
        r = solve_with(textbook_lp)
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)
        np.testing.assert_allclose(r.x, TEXTBOOK_X, atol=1e-9)
        assert r.solver == "revised-cpu"

    def test_infeasible(self, infeasible_lp):
        r = solve_with(infeasible_lp)
        assert r.status is SolveStatus.INFEASIBLE
        assert r.x is None
        assert r.extra["phase1_objective"] > 0

    def test_unbounded(self, unbounded_lp):
        assert solve_with(unbounded_lp).status is SolveStatus.UNBOUNDED

    def test_equality_needs_phase1(self, equality_lp):
        r = solve_with(equality_lp)
        assert r.status is SolveStatus.OPTIMAL
        assert r.iterations.phase1_iterations > 0
        assert_matches_oracle(equality_lp, r)

    def test_general_bounds(self, bounded_vars_lp):
        r = solve_with(bounded_vars_lp)
        assert r.objective == pytest.approx(BOUNDED_VARS_OPTIMUM)

    def test_iteration_limit(self, textbook_lp):
        r = solve_with(textbook_lp, max_iterations=1)
        assert r.status is SolveStatus.ITERATION_LIMIT

    def test_all_le_skips_phase1(self, textbook_lp):
        r = solve_with(textbook_lp)
        assert r.iterations.phase1_iterations == 0


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_dense(self, seed):
        lp = random_dense_lp(25, 35, seed=seed)
        assert_matches_oracle(lp, solve_with(lp))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_sparse(self, seed):
        lp = random_sparse_lp(30, 50, density=0.15, seed=seed)
        assert_matches_oracle(lp, solve_with(lp))

    def test_transportation(self):
        lp = transportation_lp(6, 8, seed=0)
        assert_matches_oracle(lp, solve_with(lp, pricing="hybrid"))

    def test_blending(self):
        lp = blending_lp(10, 6, seed=0)
        assert_matches_oracle(lp, solve_with(lp))

    def test_degenerate_with_hybrid(self):
        lp = degenerate_lp(20, 25, seed=0)
        assert_matches_oracle(lp, solve_with(lp, pricing="hybrid"))

    def test_klee_minty(self):
        lp = klee_minty_lp(7)
        r = solve_with(lp)
        assert r.objective == pytest.approx(5.0**7)


class TestOptions:
    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing_rules_agree_on_optimum(self, pricing, textbook_lp):
        r = solve_with(textbook_lp, pricing=pricing)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_tableau_pricing_rejected(self):
        with pytest.raises(SolverError):
            RevisedSimplexSolver(SolverOptions(pricing="devex"))

    def test_stall_window_must_be_positive(self):
        with pytest.raises(SolverError, match="stall_window"):
            SolverOptions(stall_window=0)

    @pytest.mark.parametrize("update", ["explicit", "pfi"])
    def test_basis_updates_agree(self, update):
        lp = random_dense_lp(30, 30, seed=9)
        r = solve_with(lp, basis_update=update)
        assert_matches_oracle(lp, r)

    def test_refactor_period_triggers(self):
        lp = random_dense_lp(64, 64, seed=42)
        r = solve_with(lp, refactor_period=5)
        assert r.iterations.refactorizations >= 1
        assert_matches_oracle(lp, r)

    def test_badly_scaled_lp_is_scaled(self):
        lp = badly_scaled(random_dense_lp(20, 20, seed=5), seed=5)
        r = solve_with(lp)
        assert r.extra["scaled"]
        assert_matches_oracle(lp, r)

    def test_bland_terminates_on_degenerate(self):
        from repro.lp.generators import beale_cycling_lp

        r = solve_with(beale_cycling_lp(), pricing="bland")
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(-0.05)


class TestDiagnostics:
    def test_timing_populated(self, textbook_lp):
        r = solve_with(textbook_lp)
        assert r.timing.modeled_seconds > 0
        assert r.timing.wall_seconds > 0
        assert "pricing" in r.timing.kernel_breakdown
        assert "ftran" in r.timing.kernel_breakdown

    def test_residuals_small(self):
        lp = random_dense_lp(30, 40, seed=6)
        r = solve_with(lp)
        assert r.residuals["primal_infeasibility"] < 1e-7

    def test_basis_in_extra(self, textbook_lp):
        r = solve_with(textbook_lp)
        basis = r.extra["basis"]
        assert basis.shape == (3,)
        assert len(set(basis.tolist())) == 3

    def test_degenerate_steps_counted(self):
        # a degenerate step has θ <= tol_zero; Beale's LP takes such steps
        from repro.lp.generators import beale_cycling_lp

        r = solve_with(beale_cycling_lp(), pricing="hybrid")
        assert r.iterations.degenerate_steps >= 1

    def test_summary_string(self, textbook_lp):
        r = solve_with(textbook_lp)
        s = r.summary()
        assert "optimal" in s and "revised-cpu" in s

    def test_dtype_affects_modeled_time_only(self, textbook_lp):
        r32 = solve_with(textbook_lp, dtype=np.float32)
        r64 = solve_with(textbook_lp, dtype=np.float64)
        assert r32.objective == pytest.approx(r64.objective)
        assert r32.timing.modeled_seconds < r64.timing.modeled_seconds


class TestStandardFormInput:
    def test_accepts_prestandardised(self, textbook_lp):
        from repro.lp.standard_form import to_standard_form

        std = to_standard_form(textbook_lp)
        r = RevisedSimplexSolver().solve(std)
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)
