"""Tests for geometric-mean problem scaling."""

import math

import numpy as np
import pytest

from repro.lp import scaling
from repro.lp.scaling import geometric_mean_scaling, needs_scaling, scaling_spread
from repro.solve import available_methods
from repro.sparse import CooMatrix, CscMatrix


def badly_scaled_matrix():
    return np.array([[1e6, 2e-4, 0.0], [3e-5, 0.0, 4e5], [0.0, 5e3, 6e-2]])


class TestSpread:
    def test_identity_spread(self):
        assert scaling_spread(np.eye(3)) == 1.0

    def test_empty(self):
        assert scaling_spread(np.zeros((2, 2))) == 1.0

    def test_known(self):
        a = np.array([[1.0, 100.0]])
        assert scaling_spread(a) == pytest.approx(100.0)


class TestScaling:
    def test_reduces_spread(self):
        a = badly_scaled_matrix()
        result = geometric_mean_scaling(a, np.ones(3), np.ones(3))
        assert scaling_spread(result.a) < scaling_spread(a) / 100

    def test_pow2_factors(self):
        a = badly_scaled_matrix()
        result = geometric_mean_scaling(a, np.ones(3), np.ones(3), pow2=True)
        for s in np.concatenate([result.row_scale, result.col_scale]):
            assert s > 0
            assert np.log2(s) == pytest.approx(round(np.log2(s)))

    def test_scaled_system_consistent(self):
        """A' x' = b'  <=>  A (Cx') = b with x = C x'."""
        rng = np.random.default_rng(0)
        a = badly_scaled_matrix()
        result = geometric_mean_scaling(a, rng.normal(size=3), rng.normal(size=3))
        x_scaled = rng.normal(size=3)
        x = result.unscale_x(x_scaled)
        lhs_scaled = np.asarray(result.a) @ x_scaled
        lhs_orig = a @ x
        np.testing.assert_allclose(lhs_scaled / result.row_scale, lhs_orig, rtol=1e-12)

    def test_objective_invariant(self):
        """c'ᵀ x' = cᵀ x under x = C x'."""
        rng = np.random.default_rng(1)
        a = badly_scaled_matrix()
        c = rng.normal(size=3)
        result = geometric_mean_scaling(a, np.ones(3), c)
        x_scaled = rng.normal(size=3)
        assert float(result.c @ x_scaled) == pytest.approx(
            float(c @ result.unscale_x(x_scaled)), rel=1e-12
        )

    def test_sparse_input_stays_sparse(self):
        a = CscMatrix.from_dense(badly_scaled_matrix())
        result = geometric_mean_scaling(a, np.ones(3), np.ones(3))
        assert isinstance(result.a, CscMatrix)
        assert scaling_spread(result.a) < scaling_spread(a)

    def test_well_scaled_untouched_quickly(self):
        a = np.array([[1.0, 2.0], [0.5, 1.0]])
        result = geometric_mean_scaling(a, np.ones(2), np.ones(2))
        assert scaling_spread(result.a) <= scaling_spread(a) + 1e-12

    def test_unscale_duals(self):
        a = badly_scaled_matrix()
        result = geometric_mean_scaling(a, np.ones(3), np.ones(3))
        y = np.ones(3)
        np.testing.assert_allclose(result.unscale_duals(y), result.row_scale)

    def test_zero_rows_survive(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        result = geometric_mean_scaling(a, np.ones(2), np.ones(2))
        np.testing.assert_array_equal(np.asarray(result.a)[0], [0.0, 0.0])

    def test_extreme_magnitudes_stay_finite(self):
        # Regression: gmin * gmax underflowed to 0.0 for rows around
        # 1e-200 (and overflowed to inf around 1e200), turning the factor
        # into inf/0 and the scaled matrix into NaNs.  The log-space
        # geometric mean cannot leave the float range.
        for scale in (1e-200, 1e-160, 1e160, 1e200):
            a = np.array([[scale, 2.0 * scale], [1.0, 3.0]])
            result = geometric_mean_scaling(a, np.ones(2), np.ones(2))
            assert np.all(np.isfinite(result.row_scale)), scale
            assert np.all(result.row_scale > 0), scale
            assert np.all(np.isfinite(result.col_scale)), scale
            assert np.all(np.isfinite(np.asarray(result.a))), scale
            # and the scaling still does its job on the extreme row
            assert scaling_spread(result.a) < scaling_spread(a)

    def test_extreme_magnitudes_property(self):
        # Property over random exponent patterns (incl. zero rows/cols):
        # all factors finite and positive, scaled data finite, and the
        # scaled system stays consistent with the original through C/R.
        rng = np.random.default_rng(7)
        for trial in range(25):
            m, n = rng.integers(1, 6, size=2)
            exponents = rng.uniform(-220, 220, size=(m, n))
            a = rng.choice([-1.0, 1.0], size=(m, n)) * 10.0**exponents
            a[rng.random(size=(m, n)) < 0.3] = 0.0  # sprinkle zeros
            result = geometric_mean_scaling(a, np.ones(m), np.ones(n))
            assert np.all(np.isfinite(result.row_scale)), trial
            assert np.all(result.row_scale > 0), trial
            assert np.all(np.isfinite(result.col_scale)), trial
            assert np.all(result.col_scale > 0), trial
            scaled = np.asarray(result.a)
            assert np.all(np.isfinite(scaled)), trial
            # zero entries stay exactly zero
            np.testing.assert_array_equal(scaled == 0.0, a == 0.0)


def test_scaling_improves_solver_accuracy(monkeypatch):
    """A badly scaled LP is scaled at the defaults and solves to the same
    optimum as the unscaled run."""
    from repro import LPProblem, solve

    a = np.array([[1e5, 2e-3], [3.0, 4e4]])
    b = np.array([1e5, 8e4])
    c = np.array([1.0, 1.0])
    lp = LPProblem.maximize_problem(c=c, a_ub=a, b_ub=b)
    scaled = solve(lp, method="revised")
    monkeypatch.setattr(scaling, "_SPREAD_LIMIT", math.inf)
    plain = solve(lp, method="revised")
    assert scaled.extra["scaled"] and not plain.extra["scaled"]
    assert plain.status.value == "optimal"
    assert scaled.status.value == "optimal"
    assert scaled.objective == pytest.approx(plain.objective, rel=1e-6)


class TestNeedsScaling:
    def test_limit(self):
        assert not needs_scaling(np.array([[1.0, 1e4]]))
        assert needs_scaling(np.array([[1.0, 1.01e4]]))

    def test_sparse_read_without_densifying(self, monkeypatch):
        a = badly_scaled_matrix()
        for sparse in (CscMatrix.from_dense(a), CooMatrix.from_dense(a)):
            monkeypatch.setattr(type(sparse), "to_dense", None)
            assert scaling_spread(sparse) == scaling_spread(a)
            assert needs_scaling(sparse)

    @pytest.mark.parametrize("method", available_methods())
    def test_bound_rows_do_not_count(self, method):
        """Coefficients within [1e2, 1e5] spread 1e3; the rows of 1s that
        some methods write for upper bounds would spread them 1e5."""
        from repro import LPProblem, solve

        rng = np.random.default_rng(3)
        a = 10 ** rng.uniform(2, 5, size=(4, 5))
        lp = LPProblem.maximize_problem(
            c=np.ones(5), a_ub=a, b_ub=np.full(4, 1e5),
            bounds=[(0.0, 50.0)] * 5,
        )
        assert not needs_scaling(lp.a)
        assert not solve(lp, method=method).extra["scaled"]
