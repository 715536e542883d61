"""Tests for the workload generators: determinism and guarantees."""

import numpy as np
import pytest

from repro.lp.generators import (
    beale_cycling_lp,
    blending_lp,
    degenerate_lp,
    klee_minty_lp,
    netlib_synth_suite,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.lp.problem import ConstraintSense
from repro.solve import available_methods


class TestRandomDense:
    def test_shape_and_kind(self):
        lp = random_dense_lp(10, 20, seed=0)
        assert lp.num_constraints == 10
        assert lp.num_vars == 20
        assert not lp.is_sparse
        assert lp.maximize

    def test_deterministic(self):
        a = random_dense_lp(8, 9, seed=7)
        b = random_dense_lp(8, 9, seed=7)
        np.testing.assert_array_equal(a.a_dense(), b.a_dense())
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.b, b.b)

    def test_seed_changes_instance(self):
        a = random_dense_lp(8, 9, seed=1)
        b = random_dense_lp(8, 9, seed=2)
        assert not np.array_equal(a.a_dense(), b.a_dense())

    def test_origin_feasible(self):
        lp = random_dense_lp(15, 10, seed=3)
        assert lp.is_feasible(np.zeros(10))

    def test_strictly_positive_coefficients_guarantee_bounded(self):
        lp = random_dense_lp(5, 6, seed=4)
        assert np.all(lp.a_dense() > 0)
        assert np.all(lp.b > 0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            random_dense_lp(0, 5)


class TestRandomSparse:
    def test_density_respected(self):
        lp = random_sparse_lp(50, 100, density=0.05, seed=0)
        assert lp.is_sparse
        # per-row entries = max(2, 5); allow the column-coverage extras
        assert lp.a.nnz <= 50 * 5 + 100
        assert lp.a.nnz >= 50 * 5

    def test_every_column_covered(self):
        lp = random_sparse_lp(5, 200, density=0.01, seed=1)
        dense = lp.a_dense()
        assert np.all(np.count_nonzero(dense, axis=0) >= 1)

    def test_origin_feasible(self):
        lp = random_sparse_lp(20, 40, density=0.1, seed=2)
        assert lp.is_feasible(np.zeros(40))

    def test_deterministic(self):
        a = random_sparse_lp(10, 20, 0.2, seed=5)
        b = random_sparse_lp(10, 20, 0.2, seed=5)
        np.testing.assert_array_equal(a.a_dense(), b.a_dense())

    def test_bad_density(self):
        with pytest.raises(ValueError):
            random_sparse_lp(5, 5, density=0.0)
        with pytest.raises(ValueError):
            random_sparse_lp(5, 5, density=1.5)


class TestKleeMinty:
    def test_known_optimum(self):
        """The Klee–Minty cube's optimum is 5^d at (0, ..., 0, 5^d)."""
        for d in (2, 3, 5):
            lp = klee_minty_lp(d)
            x = np.zeros(d)
            x[-1] = 5.0**d
            assert lp.is_feasible(x, tol=1e-6)
            assert lp.objective_value(x) == pytest.approx(5.0**d)

    def test_solvers_find_it(self):
        from repro import solve

        lp = klee_minty_lp(5)
        r = solve(lp, method="revised")
        assert r.objective == pytest.approx(5.0**5)

    def test_dantzig_visits_many_vertices(self):
        """Dantzig pricing needs far more pivots than the dimension."""
        from repro import solve

        d = 8
        r = solve(klee_minty_lp(d), method="revised", pricing="dantzig")
        assert r.iterations.total_iterations > d

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            klee_minty_lp(0)


class TestBeale:
    def test_structure(self):
        lp = beale_cycling_lp()
        assert lp.num_vars == 4
        assert lp.num_constraints == 3

    def test_known_optimum(self):
        from repro import solve

        r = solve(beale_cycling_lp(), method="revised", pricing="bland")
        assert r.status.value == "optimal"
        assert r.objective == pytest.approx(-0.05)

    @pytest.mark.parametrize(
        "method", [m for m in available_methods() if not m.endswith("pdlp")]
    )
    def test_default_pricing_does_not_cycle(self, method):
        """Every simplex method solves Beale's cycling LP at its defaults."""
        from repro import solve

        r = solve(beale_cycling_lp(), method=method)
        assert r.status.value == "optimal"
        assert r.objective == pytest.approx(-0.05)

    @pytest.mark.parametrize(
        "method", [m for m in available_methods() if not m.endswith("pdlp")]
    )
    def test_hybrid_switch_is_the_same_everywhere(self, method):
        """With ``stall_window=2`` the hybrid rule stalls into Bland after
        two pivots and stays there: a single improving pivot does not
        switch it back on any method."""
        from repro import solve

        r = solve(beale_cycling_lp(), method=method, stall_window=2, trace=True)
        rules = [t.pricing_rule for t in r.trace if t.event == "pivot"]
        assert rules == ["hybrid:dantzig"] * 2 + ["hybrid:bland"] * 4

    def test_degenerate_steps_agree(self):
        """A degenerate step is one of length θ <= tol_zero in every simplex
        method, so all of them count the same number on Beale's LP."""
        from repro import solve

        counts = {
            method: solve(beale_cycling_lp(), method=method)
            .iterations.degenerate_steps
            for method in available_methods()
            if not method.endswith("pdlp")
        }
        assert len(counts) == 7
        assert len(set(counts.values())) == 1, counts
        assert counts["revised"] > 0


class TestTransportation:
    def test_balanced(self):
        lp = transportation_lp(4, 6, seed=0)
        assert all(s is ConstraintSense.EQ for s in lp.senses)
        supply = lp.b[:4]
        demand = lp.b[4:]
        assert supply.sum() == pytest.approx(demand.sum())

    def test_solvable(self):
        from repro import solve

        r = solve(transportation_lp(3, 4, seed=1), method="revised")
        assert r.status.value == "optimal"

    def test_incidence_structure(self):
        lp = transportation_lp(3, 4, seed=2)
        # every column (route) touches exactly one supply and one demand row
        a = lp.a_dense()
        assert np.all(np.count_nonzero(a, axis=0) == 2)


class TestBlending:
    def test_mix_sums_to_one(self):
        from repro import solve

        lp = blending_lp(8, 5, seed=0)
        r = solve(lp, method="revised")
        assert r.status.value == "optimal"
        assert r.x.sum() == pytest.approx(1.0, abs=1e-6)


class TestDegenerate:
    def test_tied_first_ratios(self):
        lp = degenerate_lp(10, 12, seed=0)
        a, b = lp.a_dense(), lp.b
        ratios = b / a[:, 0]
        assert np.allclose(ratios, ratios[0])

    def test_still_solvable(self):
        from repro import solve

        r = solve(degenerate_lp(10, 12, seed=0), method="revised", pricing="hybrid")
        assert r.status.value == "optimal"


class TestSuite:
    def test_suite_composition(self):
        suite = netlib_synth_suite()
        assert len(suite) >= 8
        names = [lp.name for lp in suite]
        assert len(set(names)) == len(names)  # all distinct
        kinds = {lp.is_sparse for lp in suite}
        assert kinds == {True, False}  # both representations present

    def test_suite_deterministic(self):
        a = netlib_synth_suite(seed=3)
        b = netlib_synth_suite(seed=3)
        for lp1, lp2 in zip(a, b):
            np.testing.assert_array_equal(lp1.c, lp2.c)
