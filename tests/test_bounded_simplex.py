"""Tests for the bounded-variable revised simplex."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BOUNDED_VARS_OPTIMUM, TEXTBOOK_OPTIMUM, assert_matches_oracle, scipy_oracle
from repro import solve
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp, random_sparse_lp
from repro.lp.problem import Bounds, LPProblem
from repro.simplex.revised_cpu import BoundedRevisedSimplexSolver
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


def boxed_random(m, n, seed, span=(0.5, 3.0)):
    """A random dense LP where every variable has a finite upper bound."""
    rng = np.random.default_rng(seed ^ 0xBEEF)
    base = random_dense_lp(m, n, seed=seed)
    return LPProblem(
        c=base.c, a=base.a_dense(), senses=base.senses, b=base.b,
        bounds=Bounds(np.zeros(n), rng.uniform(*span, n)),
        maximize=True, name=f"boxed-{m}x{n}-s{seed}",
    )


class TestBasicOutcomes:
    def test_textbook(self, textbook_lp):
        r = solve(textbook_lp, method="revised-bounded")
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_general_bounds(self, bounded_vars_lp):
        r = solve(bounded_vars_lp, method="revised-bounded")
        assert r.objective == pytest.approx(BOUNDED_VARS_OPTIMUM)

    def test_infeasible(self, infeasible_lp):
        assert solve(infeasible_lp, method="revised-bounded").status is SolveStatus.INFEASIBLE

    def test_unbounded(self, unbounded_lp):
        assert solve(unbounded_lp, method="revised-bounded").status is SolveStatus.UNBOUNDED

    def test_equality_phase1(self, equality_lp):
        r = solve(equality_lp, method="revised-bounded")
        assert_matches_oracle(equality_lp, r)

    def test_iteration_limit(self, textbook_lp):
        r = solve(textbook_lp, method="revised-bounded", max_iterations=1)
        assert r.status is SolveStatus.ITERATION_LIMIT


class TestBoundsHandling:
    @pytest.mark.parametrize("seed", range(5))
    def test_boxed_instances_match_oracle(self, seed):
        lp = boxed_random(15, 25, seed)
        assert_matches_oracle(lp, solve(lp, method="revised-bounded"))

    def test_no_extra_rows_for_bounds(self):
        """The headline structural win: m stays at the constraint count."""
        lp = boxed_random(10, 40, seed=3)
        r_bounded = solve(lp, method="revised-bounded")
        r_rows = solve(lp, method="revised")
        assert r_bounded.objective == pytest.approx(r_rows.objective, rel=1e-8)
        # bounds-as-rows solver works a 50-row basis; bounded keeps 10
        assert r_bounded.extra["basis"].size == 10
        assert r_rows.extra["basis"].size == 50

    def test_bound_flips_happen(self):
        lp = boxed_random(20, 30, seed=1)
        r = solve(lp, method="revised-bounded")
        assert r.extra["bound_flips"] >= 1

    def test_solution_respects_bounds(self):
        lp = boxed_random(15, 20, seed=7)
        r = solve(lp, method="revised-bounded")
        assert np.all(r.x >= -1e-9)
        assert np.all(r.x <= lp.bounds.upper + 1e-9)

    def test_at_upper_reported(self):
        # tight box forces some variables to their upper bounds at optimum
        lp = boxed_random(8, 12, seed=9, span=(0.1, 0.5))
        r = solve(lp, method="revised-bounded")
        assert r.extra["at_upper"].dtype == bool

    def test_tiny_boxes_all_upper(self):
        """With a generous budget every variable maxes out: the optimum is
        the box corner and (almost) every variable sits at its bound."""
        n = 6
        a = np.ones((1, n))
        lp = LPProblem(
            c=np.ones(n), a=a, senses=["<="], b=np.array([100.0]),
            bounds=Bounds(np.zeros(n), np.full(n, 2.0)), maximize=True,
        )
        r = solve(lp, method="revised-bounded")
        assert r.objective == pytest.approx(12.0)
        np.testing.assert_allclose(r.x, 2.0)

    def test_sparse_input(self):
        base = random_sparse_lp(15, 30, density=0.2, seed=2)
        rng = np.random.default_rng(5)
        lp = LPProblem(c=base.c, a=base.a, senses=base.senses, b=base.b,
                       bounds=Bounds(np.zeros(30), rng.uniform(0.5, 2.0, 30)),
                       maximize=True)
        assert_matches_oracle(lp, solve(lp, method="revised-bounded"))


class TestAgreementAndDiagnostics:
    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing_rules(self, pricing):
        lp = boxed_random(10, 15, seed=4)
        assert_matches_oracle(lp, solve(lp, method="revised-bounded", pricing=pricing))

    @pytest.mark.parametrize("update", ["explicit", "pfi"])
    def test_basis_updates(self, update):
        lp = boxed_random(12, 18, seed=5)
        assert_matches_oracle(lp, solve(lp, method="revised-bounded",
                                        basis_update=update))

    def test_refactor_period(self):
        lp = boxed_random(20, 25, seed=6)
        r = solve(lp, method="revised-bounded", refactor_period=5)
        assert r.status is SolveStatus.OPTIMAL
        assert r.iterations.refactorizations >= 1

    def test_duals_available(self):
        lp = boxed_random(10, 14, seed=8)
        r = solve(lp, method="revised-bounded")
        assert "duals" in r.extra
        assert r.extra["duals"].shape == (10,)

    def test_devex_rejected(self):
        with pytest.raises(SolverError):
            BoundedRevisedSimplexSolver(SolverOptions(pricing="devex"))

    def test_scale_rejected(self):
        with pytest.raises(SolverError):
            BoundedRevisedSimplexSolver(SolverOptions(scale=True))

    def test_warm_start_rejected(self, textbook_lp):
        with pytest.raises(SolverError):
            solve(textbook_lp, method="revised-bounded",
                  initial_basis=np.arange(3))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(3, 10), n=st.integers(3, 12), seed=st.integers(0, 2**31))
def test_bounded_matches_oracle_property(m, n, seed):
    lp = boxed_random(m, n, seed)
    ref = scipy_oracle(lp)
    assert ref is not None
    r = solve(lp, method="revised-bounded")
    assert r.status is SolveStatus.OPTIMAL
    assert abs(r.objective - ref) <= 1e-6 * (1 + abs(ref))
    assert lp.constraint_violation(r.x) <= 1e-6
