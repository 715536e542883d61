"""Tests for the entering-variable pricing rules."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.simplex.pricing import (
    BlandRule,
    DantzigRule,
    DevexRule,
    StallSwitch,
    SteepestEdgeRule,
)
from repro.simplex.options import SolverOptions

ALL = np.ones(5, dtype=bool)


class TestDantzig:
    def test_most_negative(self):
        d = np.array([1.0, -3.0, -5.0, 2.0, -1.0])
        assert DantzigRule().select(d, ALL, 1e-9) == 2

    def test_optimal_returns_none(self):
        d = np.array([0.0, 1.0, 2.0, 0.5, 0.0])
        assert DantzigRule().select(d, ALL, 1e-9) is None

    def test_tolerance_filters_noise(self):
        d = np.array([-1e-12, 1.0, 1.0, 1.0, 1.0])
        assert DantzigRule().select(d, ALL, 1e-9) is None

    def test_eligibility_mask(self):
        d = np.array([-5.0, -3.0, 0.0, 0.0, 0.0])
        eligible = np.array([False, True, True, True, True])
        assert DantzigRule().select(d, eligible, 1e-9) == 1

    def test_tie_breaks_low_index(self):
        d = np.array([0.0, -2.0, -2.0, 0.0, 0.0])
        assert DantzigRule().select(d, ALL, 1e-9) == 1


class TestBland:
    def test_lowest_index(self):
        d = np.array([1.0, -0.001, -100.0, 0.0, 0.0])
        assert BlandRule().select(d, ALL, 1e-9) == 1

    def test_none_when_nonnegative(self):
        assert BlandRule().select(np.zeros(5), ALL, 1e-9) is None

    def test_respects_mask(self):
        d = np.array([-1.0, -1.0, 0.0, 0.0, 0.0])
        eligible = np.array([False, True, True, True, True])
        assert BlandRule().select(d, eligible, 1e-9) == 1


class TestHybrid:
    """The stall switch in hybrid mode: its ``active`` rule selects."""

    def test_starts_as_dantzig(self):
        rule = StallSwitch("hybrid", stall_window=3)
        d = np.array([-0.1, -5.0, 0.0, 0.0, 0.0])
        assert rule.active.select(d, ALL, 1e-9) == 1  # most negative, not lowest index

    def test_switches_to_bland_after_stall(self):
        rule = StallSwitch("hybrid", stall_window=3)
        d = np.array([-0.1, -5.0, 0.0, 0.0, 0.0])
        for _ in range(3):
            rule.notify(improved=False)
        assert rule.activations == 1
        assert rule.active.select(d, ALL, 1e-9) == 0  # now Bland: lowest index

    def test_switches_back_after_recovery(self):
        rule = StallSwitch("hybrid", stall_window=2, recovery=2)
        for _ in range(2):
            rule.notify(improved=False)
        assert rule.using_bland
        for _ in range(2):
            rule.notify(improved=True)
        assert not rule.using_bland

    def test_improvement_resets_stall_counter(self):
        rule = StallSwitch("hybrid", stall_window=3)
        rule.notify(improved=False)
        rule.notify(improved=False)
        rule.notify(improved=True)
        rule.notify(improved=False)
        rule.notify(improved=False)
        assert rule.activations == 0

    def test_bad_window(self):
        with pytest.raises(SolverError):
            SolverOptions(stall_window=0)


class TestDevex:
    def test_initial_weights_behave_like_dantzig_squared(self):
        rule = DevexRule()
        rule.reset(5)
        d = np.array([0.0, -2.0, -3.0, 0.0, 0.0])
        assert rule.select(d, ALL, 1e-9) == 2

    def test_weight_update_changes_choice(self):
        rule = DevexRule()
        rule.reset(3)
        ones = np.ones(3, dtype=bool)
        # pivot on column 2 with a huge pivot row entry for column 1:
        # column 1's weight grows, demoting it
        rule.pivot(2, np.array([0.0, 100.0, 1.0]))
        d = np.array([0.0, -3.0, -2.9])
        # plain Dantzig would take column 1; Devex demotes it
        assert rule.select(d, ones, 1e-9) == 2

    def test_optimal_none(self):
        rule = DevexRule()
        rule.reset(5)
        assert rule.select(np.ones(5), ALL, 1e-9) is None

    def test_needs_tableau_flag(self):
        assert DevexRule.needs_tableau
        assert SteepestEdgeRule.needs_tableau
        assert not DantzigRule.needs_tableau


class TestSteepestEdge:
    def test_requires_tableau(self):
        rule = SteepestEdgeRule()
        rule.reset(3)
        with pytest.raises(SolverError):
            rule.select(np.array([-1.0, 0.0, 0.0]), np.ones(3, dtype=bool), 1e-9)

    def test_edge_norms_demote_long_columns(self):
        rule = SteepestEdgeRule()
        rule.reset(2)
        tableau = np.array([[1.0, 10.0], [0.0, 10.0]])
        rule.set_tableau(tableau)
        d = np.array([-1.0, -1.5])
        # col 1 has much larger norm: -1²/2 > -1.5²/201
        assert rule.select(d, np.ones(2, dtype=bool), 1e-9) == 0

    def test_optimal_none(self):
        rule = SteepestEdgeRule()
        rule.set_tableau(np.eye(2))
        assert rule.select(np.zeros(2), np.ones(2, dtype=bool), 1e-9) is None


class TestHybridReset:
    def test_reset_clears_activation_counter(self):
        # Regression: reset() used to preserve self.activations, so a rule
        # reused across phases would re-report phase 1's switches after the
        # caller had already flushed them into its stats.
        rule = StallSwitch("hybrid", stall_window=1)
        rule.notify(improved=False)
        assert rule.activations == 1
        rule.reset(5)
        assert rule.activations == 0
        assert not rule.using_bland
        assert rule._stalled == 0


class TestDevexSizeMismatch:
    def test_mismatch_raises_instead_of_silent_reinit(self):
        # Regression: a size mismatch used to silently re-initialise the
        # weights to ones, discarding the learned reference framework.
        rule = DevexRule()
        rule.reset(5)
        with pytest.raises(SolverError, match="reset"):
            rule.select(np.array([-1.0, 0.0]), np.ones(2, dtype=bool), 1e-9)

    def test_first_use_lazy_init_still_allowed(self):
        rule = DevexRule()
        d = np.array([0.0, -2.0, -1.0])
        assert rule.select(d, np.ones(3, dtype=bool), 1e-9) == 1


class TestBlandActivationAccounting:
    """The bland_activations statistic must be exact across solver phases.

    Regression: the revised and tableau solvers flushed each phase rule's
    ``activations`` into the stats only on the ITERATION_LIMIT exit path, so
    solves that activated Bland and then finished (optimal, unbounded, ...)
    reported ``bland_activations == 0``.
    """

    @pytest.fixture()
    def two_phase_degenerate_lp(self):
        """A degenerate instance with an equality row: phase 1 must run,
        and the heavy ratio-test ties stall Dantzig in both phases."""
        from repro.lp.generators import degenerate_lp
        from repro.lp.problem import ConstraintSense, LPProblem
        from repro.solve import solve

        base = degenerate_lp(8, 12, seed=3)
        x_star = solve(base, method="revised").x
        a = np.vstack([base.a_dense(), np.ones((1, base.num_vars))])
        senses = list(base.senses) + [ConstraintSense.EQ]
        b = np.append(base.b, float(np.sum(x_star)))
        return LPProblem(
            c=base.c, a=a, senses=senses, b=b,
            bounds=base.bounds, maximize=True,
        )

    @pytest.mark.parametrize("method,module_name", [
        ("revised", "repro.simplex.revised_cpu"),
        ("tableau", "repro.simplex.tableau"),
    ])
    def test_counted_on_optimal_exit(
        self, two_phase_degenerate_lp, method, module_name, monkeypatch
    ):
        import importlib

        from repro.solve import solve

        module = importlib.import_module(module_name)
        # both host placements build a StallSwitch per phase
        make = module.StallSwitch
        created = []

        def spy(name, stall_window=40):
            rule = make(name, stall_window)
            created.append(rule)
            return rule

        monkeypatch.setattr(module, "StallSwitch", spy)
        r = solve(
            two_phase_degenerate_lp, method=method,
            pricing="hybrid", stall_window=1,
        )
        # a completed solve, NOT an iteration-limit bailout
        assert r.status.value == "optimal"
        assert r.iterations.phase1_iterations > 0
        assert r.iterations.phase2_iterations > 0
        hybrids = [
            x for x in created if isinstance(x, StallSwitch) and x.mode == "hybrid"
        ]
        assert len(hybrids) == 2  # one fresh rule per phase
        expected = sum(x.activations for x in hybrids)
        assert expected > 0  # the stall actually tripped the fallback
        assert r.iterations.bland_activations == expected


class TestFactory:
    """The tableau builds its rule by option name: a stall switch, or one of
    the rules that read T."""

    @staticmethod
    def _tableau_rule(name: str):
        from repro.lp.generators import random_dense_lp
        from repro.simplex.common import initial_basis, prepare
        from repro.simplex.tableau import TableauSimplexSolver

        solver = TableauSimplexSolver(SolverOptions(pricing=name))
        prep = prepare(random_dense_lp(3, 4, seed=0), solver.options)
        st = solver._place(prep, np.dtype(np.float64))
        st.start(initial_basis(prep)[0])
        return st.pricing_rule()

    @pytest.mark.parametrize("name,cls", [
        ("dantzig", StallSwitch), ("bland", StallSwitch), ("hybrid", StallSwitch),
        ("devex", DevexRule), ("steepest-edge", SteepestEdgeRule),
    ])
    def test_make(self, name, cls):
        rule = self._tableau_rule(name)
        assert isinstance(rule, cls)
        assert rule.label.split(":")[0] == name

    def test_unknown(self):
        with pytest.raises(SolverError):
            SolverOptions(pricing="oracle")
