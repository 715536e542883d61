"""Tests for boxed bounds on the host revised methods: finite upper bounds
kept out of the rows, with bound flips."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    BOUNDED_VARS_OPTIMUM,
    TEXTBOOK_OPTIMUM,
    assert_matches_oracle,
    badly_scaled,
    scipy_oracle,
)
from repro import solve
from repro.bench.experiments import bounds_as_rows
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp, random_sparse_lp
from repro.lp.problem import Bounds, LPProblem
from repro.simplex.revised_cpu import RevisedSimplexSolver
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
        r = solve(textbook_lp, method="revised")
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(TEXTBOOK_OPTIMUM)

    def test_general_bounds(self, bounded_vars_lp):
        r = solve(bounded_vars_lp, method="revised")
        assert r.objective == pytest.approx(BOUNDED_VARS_OPTIMUM)

    def test_infeasible(self, infeasible_lp):
        assert solve(infeasible_lp, method="revised").status is SolveStatus.INFEASIBLE

    def test_unbounded(self, unbounded_lp):
        assert solve(unbounded_lp, method="revised").status is SolveStatus.UNBOUNDED

    def test_equality_phase1(self, equality_lp):
        r = solve(equality_lp, method="revised")
        assert_matches_oracle(equality_lp, r)

    def test_iteration_limit(self, textbook_lp):
        r = solve(textbook_lp, method="revised", max_iterations=1)
        assert r.status is SolveStatus.ITERATION_LIMIT


class TestBoundsHandling:
    @pytest.mark.parametrize("seed", range(5))
    def test_boxed_instances_match_oracle(self, seed):
        lp = boxed_random(15, 25, seed)
        assert_matches_oracle(lp, solve(lp, method="revised"))

    def test_no_extra_rows_for_bounds(self):
        """The headline structural win: m stays at the constraint count."""
        lp = boxed_random(10, 40, seed=3)
        r_bounded = solve(lp, method="revised")
        r_rows = solve(bounds_as_rows(lp), method="revised")
        assert r_bounded.objective == pytest.approx(r_rows.objective, rel=1e-8)
        # the bounds-as-rows encoding works a 50-row basis; native bounds 10
        assert r_bounded.extra["basis"].size == 10
        assert r_rows.extra["basis"].size == 50

    def test_bound_flips_happen(self):
        lp = boxed_random(20, 30, seed=1)
        r = solve(lp, method="revised")
        assert r.extra["bound_flips"] >= 1

    def test_solution_respects_bounds(self):
        lp = boxed_random(15, 20, seed=7)
        r = solve(lp, method="revised")
        assert np.all(r.x >= -1e-9)
        assert np.all(r.x <= lp.bounds.upper + 1e-9)

    def test_at_upper_reported(self):
        # tight box forces some variables to their upper bounds at optimum
        lp = boxed_random(8, 12, seed=9, span=(0.1, 0.5))
        r = solve(lp, method="revised")
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
        r = solve(lp, method="revised")
        assert r.objective == pytest.approx(12.0)
        np.testing.assert_allclose(r.x, 2.0)

    def test_sparse_input(self):
        base = random_sparse_lp(15, 30, density=0.2, seed=2)
        rng = np.random.default_rng(5)
        lp = LPProblem(c=base.c, a=base.a, senses=base.senses, b=base.b,
                       bounds=Bounds(np.zeros(30), rng.uniform(0.5, 2.0, 30)),
                       maximize=True)
        assert_matches_oracle(lp, solve(lp, method="revised"))


class TestAgreementAndDiagnostics:
    @pytest.mark.parametrize("pricing", ["dantzig", "bland", "hybrid"])
    def test_pricing_rules(self, pricing):
        lp = boxed_random(10, 15, seed=4)
        assert_matches_oracle(lp, solve(lp, method="revised", pricing=pricing))

    @pytest.mark.parametrize("update", ["explicit", "pfi"])
    def test_basis_updates(self, update):
        lp = boxed_random(12, 18, seed=5)
        assert_matches_oracle(lp, solve(lp, method="revised",
                                        basis_update=update))

    def test_refactor_period(self):
        lp = boxed_random(20, 25, seed=6)
        r = solve(lp, method="revised", refactor_period=5)
        assert r.status is SolveStatus.OPTIMAL
        assert r.iterations.refactorizations >= 1

    def test_duals_available(self):
        lp = boxed_random(10, 14, seed=8)
        r = solve(lp, method="revised")
        assert "duals" in r.extra
        assert r.extra["duals"].shape == (10,)

    def test_devex_rejected(self):
        with pytest.raises(SolverError):
            RevisedSimplexSolver(SolverOptions(pricing="devex"))


#: The warm-start revised methods, which keep finite upper bounds out of the
#: rows.
BOXED_METHODS = ("revised", "revised-sparse", "dual", "gpu-revised")


def solve64(lp, method, **kw):
    return solve(lp, method=method, dtype=np.float64, **kw)


def assert_boxed(lp, r):
    """Optimal, with the bounds kept out of the rows: the basis has one
    entry per constraint."""
    assert r.status is SolveStatus.OPTIMAL
    assert r.extra["basis"].size == lp.num_constraints
    assert "bound_flips" in r.extra


class TestWhatTheBoundedMethodsRefused:
    """Warm starts, scaling, mixed precision and the optimality certificate
    on boxed LPs, which the separate bounded methods refused."""

    @pytest.mark.parametrize("method", BOXED_METHODS)
    def test_feasible_warm_hint_accepted(self, method):
        # loose boxes: the optimal basis rests every nonbasic at 0
        lp = boxed_random(12, 18, seed=11, span=(50.0, 100.0))
        basis = solve64(lp, "revised").extra["basis"]
        r = solve64(lp, method, initial_basis=basis)
        assert_boxed(lp, r)
        assert r.iterations.total_iterations <= 1  # the optimality check
        np.testing.assert_array_equal(r.extra["basis"], basis)

    @pytest.mark.parametrize("method", BOXED_METHODS)
    def test_hint_above_its_bounds(self, method):
        """A hint whose β exceeds u_B: the primal methods start cold, the
        dual runs from it (a dual start need not be primal feasible)."""
        loose = boxed_random(12, 18, seed=11, span=(50.0, 100.0))
        first = solve64(loose, "revised")
        basis, x_std = first.extra["basis"], first.extra["x_std"]
        upper = loose.bounds.upper.copy()
        basic = basis[basis < upper.size]
        upper[basic] = np.where(x_std[basic] > 0, 0.5 * x_std[basic], upper[basic])
        lp = dataclasses.replace(
            loose, bounds=Bounds(np.zeros(upper.size), upper), name="tight"
        )
        cold = solve64(lp, method)
        r = solve64(lp, method, initial_basis=basis)
        assert_boxed(lp, r)
        assert_matches_oracle(lp, r)
        if method == "dual":
            assert r.solver == "dual-cpu"
            return
        assert r.objective == cold.objective
        assert r.iterations.total_iterations == cold.iterations.total_iterations
        assert r.iterations.refactorizations == cold.iterations.refactorizations

    @pytest.mark.parametrize("method", BOXED_METHODS)
    def test_scaling_matches_unscaled(self, method):
        lp = boxed_random(15, 20, seed=7)
        hostile = badly_scaled(lp, seed=7)
        plain, scaled = solve64(lp, method), solve64(hostile, method)
        assert not plain.extra["scaled"] and scaled.extra["scaled"]
        assert_boxed(hostile, scaled)
        assert scaled.extra["at_upper"].any()
        assert scaled.objective == pytest.approx(plain.objective, rel=1e-9)
        upper = hostile.bounds.upper
        assert np.all(scaled.x <= upper + 1e-9 * np.maximum(1.0, upper))

    def test_mixed_precision_recovers_fp64(self):
        lp = boxed_random(15, 20, seed=7)
        r64 = solve64(lp, "gpu-revised")
        mixed = solve(lp, method="gpu-revised", precision="mixed")
        assert_boxed(lp, mixed)
        assert mixed.extra["refinement_steps"] >= 1
        assert mixed.objective == pytest.approx(r64.objective, rel=1e-9)

    @pytest.mark.parametrize("method", BOXED_METHODS)
    def test_certificate(self, method):
        lp = boxed_random(8, 12, seed=9, span=(0.1, 0.5))
        r = solve64(lp, method)
        assert_boxed(lp, r)
        assert r.extra["at_upper"].any()
        cert = r.extra["certificate"]
        assert cert.is_optimal_certificate()
        assert abs(cert.duality_gap) <= 1e-9 * (1 + abs(r.objective))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(3, 10), n=st.integers(3, 12), seed=st.integers(0, 2**31))
def test_bounded_matches_oracle_property(m, n, seed):
    lp = boxed_random(m, n, seed)
    ref = scipy_oracle(lp)
    assert ref is not None
    r = solve(lp, method="revised")
    assert r.status is SolveStatus.OPTIMAL
    assert abs(r.objective - ref) <= 1e-6 * (1 + abs(ref))
    assert lp.constraint_violation(r.x) <= 1e-6
