"""Tests for the dual simplex and the warm re-optimisation workflow."""

import numpy as np
import pytest

from conftest import assert_matches_oracle, scipy_oracle
from repro import metrics, solve
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp, random_sparse_lp
from repro.lp.problem import LPProblem
from repro.obs import observing
from repro.simplex.revised_cpu import DualSimplexSolver
from repro.simplex.options import SolverOptions
from repro.status import SolveStatus


def perturb_rhs(lp, factors):
    return LPProblem(c=lp.c, a=lp.a_dense(), senses=lp.senses,
                     b=lp.b * factors, bounds=lp.bounds, maximize=lp.maximize,
                     name=lp.name + "+rhs")


class TestWarmReoptimisation:
    @pytest.mark.parametrize("seed", range(4))
    def test_rhs_perturbation_reaches_oracle(self, seed):
        lp = random_dense_lp(20, 30, seed=seed)
        first = solve(lp, method="revised")
        rng = np.random.default_rng(seed)
        lp2 = perturb_rhs(lp, rng.uniform(0.7, 1.2, 20))
        r = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        assert_matches_oracle(lp2, r)

    def test_fewer_iterations_than_cold(self):
        lp = random_dense_lp(40, 60, seed=11)
        first = solve(lp, method="revised")
        lp2 = perturb_rhs(lp, np.linspace(0.85, 1.1, 40))
        cold = solve(lp2, method="revised")
        warm = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        assert warm.solver == "dual-cpu"  # no fallback occurred
        assert warm.iterations.total_iterations < cold.iterations.total_iterations

    def test_unperturbed_restart_is_instant(self):
        lp = random_dense_lp(15, 20, seed=3)
        first = solve(lp, method="revised")
        again = solve(lp, method="dual", initial_basis=first.extra["basis"])
        assert again.iterations.total_iterations <= 1
        assert again.objective == pytest.approx(first.objective)

    def test_sparse_instance(self):
        lp = random_sparse_lp(25, 40, density=0.2, seed=5)
        first = solve(lp, method="revised")
        lp2 = perturb_rhs(lp, np.linspace(0.8, 1.05, 25))
        r = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        assert_matches_oracle(lp2, r)

    def test_rhs_shrunk_to_infeasible(self):
        """Forcing a >= -style conflict via negative rhs on an eq row."""
        lp = LPProblem.minimize(
            c=[1.0, 1.0],
            a_ub=[[1.0, 1.0]], b_ub=[1.0],
            a_eq=[[1.0, 1.0]], b_eq=[1.0],
        )
        first = solve(lp, method="revised")
        assert first.is_optimal
        # now demand sum = 3 while keeping sum <= 1: infeasible
        lp2 = LPProblem.minimize(
            c=[1.0, 1.0],
            a_ub=[[1.0, 1.0]], b_ub=[1.0],
            a_eq=[[1.0, 1.0]], b_eq=[3.0],
        )
        r = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        assert r.status is SolveStatus.INFEASIBLE


class TestStartHandling:
    def test_cold_start_falls_back_when_dual_infeasible(self):
        """Random max-LPs have dual-infeasible slack bases: fallback runs."""
        lp = random_dense_lp(12, 16, seed=1)
        r = solve(lp, method="dual")
        assert r.is_optimal
        assert "primal-fallback" in r.solver
        assert "dual_fallback_reason" in r.extra

    def test_cold_start_succeeds_when_slack_basis_dual_feasible(self):
        """min with c >= 0 over <= rows: the slack basis is dual feasible
        and primal feasible, so the dual solver accepts and stops at once."""
        lp = LPProblem.minimize(
            c=[2.0, 3.0], a_ub=[[1.0, 1.0], [1.0, 2.0]], b_ub=[4.0, 6.0],
        )
        r = solve(lp, method="dual")
        assert r.is_optimal
        assert r.solver == "dual-cpu"
        assert r.objective == pytest.approx(0.0)  # x = 0 is optimal

    def test_genuine_dual_cold_start(self):
        """c >= 0 minimisation with >= rows: slack basis dual feasible but
        primal infeasible — the dual simplex's textbook use case, no warm
        hint needed."""
        lp = LPProblem.minimize(
            c=[3.0, 2.0],
            a_ub=[[-1.0, -1.0], [-2.0, -1.0]],  # x+y >= 4, 2x+y >= 5
            b_ub=[-4.0, -5.0],
        )
        ref = scipy_oracle(lp)
        # standard form flips these rows; the crash basis is artificial-free?
        r = solve(lp, method="dual")
        assert r.is_optimal
        assert r.objective == pytest.approx(ref, rel=1e-8)

    def test_certificate_attached(self):
        lp = random_dense_lp(10, 14, seed=2)
        first = solve(lp, method="revised")
        lp2 = perturb_rhs(lp, np.linspace(0.9, 1.05, 10))
        r = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        if r.solver == "dual-cpu" and r.is_optimal:
            assert r.extra["certificate"].is_optimal_certificate(1e-6)

    def test_bad_pricing_rejected(self):
        with pytest.raises(SolverError):
            DualSimplexSolver(SolverOptions(pricing="devex"))

    @pytest.mark.parametrize("rule", ["dantzig", "bland"])
    def test_row_choice_rules(self, rule):
        lp = random_dense_lp(15, 20, seed=6)
        first = solve(lp, method="revised")
        lp2 = perturb_rhs(lp, np.linspace(0.8, 1.1, 15))
        r = solve(lp2, method="dual", pricing=rule,
                  initial_basis=first.extra["basis"])
        assert_matches_oracle(lp2, r)


class TestOneBackend:
    """The fallback and the stall switch run on the dual's own backend."""

    def test_fallback_is_one_dual_solve(self):
        lp = random_dense_lp(12, 16, seed=1)
        with metrics.collecting() as reg, observing() as rec:
            r = solve(lp, method="dual")
            snap = reg.snapshot()
        assert r.solver == "dual-cpu(primal-fallback)"
        series = snap["metrics"]["repro_solves_total"]["series"]
        assert [(e["labels"]["solver"], e["value"]) for e in series] == [
            (r.solver, 1.0)
        ]
        recording = rec.collect()
        roots = [recording.tree(t).span for t in recording.trace_ids()]
        assert [(sp.name, sp.attrs["solver"]) for sp in roots] == [
            ("engine.solve", "dual-cpu")
        ]
        # the same primal pivots as revised, plus the charged start check
        revised = solve(lp, method="revised")
        assert r.iterations == revised.iterations
        assert r.objective == revised.objective
        assert r.timing.modeled_seconds > revised.timing.modeled_seconds

    def test_hybrid_switches_the_row_choice(self):
        """min 0 s.t. x1+x2 >= 3, x1+x3 >= 1, x2+x3 >= 2: every dual pivot
        is degenerate in the objective, so a one-pivot stall window
        switches to Bland, as it does for revised on the same LP."""
        lp = LPProblem.minimize(
            c=[0.0, 0.0, 0.0],
            a_ub=[[-1.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]],
            b_ub=[-3.0, -1.0, -2.0],
        )
        for method in ("revised", "dual"):
            r = solve(lp, method=method, stall_window=1, trace=True)
            assert r.is_optimal
            assert r.iterations.bland_activations == 1, method
        assert r.solver == "dual-cpu"
        rules = {rec.pricing_rule for rec in r.trace}
        assert "hybrid:bland" in rules
        assert all(rule.startswith("hybrid:") for rule in rules)
