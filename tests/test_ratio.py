"""Tests for the leaving-variable ratio tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.registry import METHODS
from repro.errors import SolverError
from repro.lp.generators import random_dense_lp
from repro.simplex.options import SolverOptions
from repro.simplex.ratio import (
    RatioResult,
    harris_ratio_test,
    run_ratio_test,
    standard_ratio_test,
)
from repro.solve import available_methods, solve

SIMPLEX = [m for m in available_methods() if not m.endswith("pdlp")]
#: The methods whose one-way ratio test can run Harris.
HARRIS = ("tableau", "revised", "revised-sparse")


def basis(n):
    return np.arange(n, dtype=np.int64)


class TestStandard:
    def test_min_ratio_selected(self):
        beta = np.array([6.0, 4.0, 10.0])
        alpha = np.array([2.0, 4.0, 1.0])
        rr = standard_ratio_test(beta, alpha, basis(3), 1e-9)
        assert rr.row == 1  # 4/4 = 1 is smallest
        assert rr.theta == pytest.approx(1.0)
        assert rr.pivot == pytest.approx(4.0)

    def test_nonpositive_alpha_excluded(self):
        beta = np.array([1.0, 5.0])
        alpha = np.array([-1.0, 1.0])
        rr = standard_ratio_test(beta, alpha, basis(2), 1e-9)
        assert rr.row == 1

    def test_unbounded(self):
        rr = standard_ratio_test(np.ones(3), -np.ones(3), basis(3), 1e-9)
        assert rr.unbounded
        assert rr.theta == np.inf

    def test_tiny_alpha_below_tolerance_excluded(self):
        beta = np.array([1.0, 5.0])
        alpha = np.array([1e-12, 1.0])
        rr = standard_ratio_test(beta, alpha, basis(2), 1e-9)
        assert rr.row == 1

    def test_tie_break_lowest_basic_index(self):
        beta = np.array([2.0, 2.0])
        alpha = np.array([1.0, 1.0])
        b = np.array([7, 3], dtype=np.int64)  # row 1 holds the lower variable
        rr = standard_ratio_test(beta, alpha, b, 1e-9)
        assert rr.row == 1
        assert rr.ties == 2

    def test_zero_ratio_degenerate(self):
        beta = np.array([0.0, 5.0])
        alpha = np.array([1.0, 1.0])
        rr = standard_ratio_test(beta, alpha, basis(2), 1e-9)
        assert rr.row == 0
        assert rr.theta == 0.0

    def test_negative_roundoff_clamped(self):
        beta = np.array([-1e-15, 5.0])
        alpha = np.array([1.0, 1.0])
        rr = standard_ratio_test(beta, alpha, basis(2), 1e-9)
        assert rr.theta == 0.0


class TestHarris:
    def test_prefers_larger_pivot_among_near_ties(self):
        # two rows with nearly identical ratios but very different pivots
        beta = np.array([1.0, 1.0 + 1e-9])
        alpha = np.array([1e-6, 1.0])
        rr = harris_ratio_test(beta, alpha, basis(2), 1e-12, feas_tol=1e-6)
        assert rr.row == 1  # the stable pivot

    def test_matches_standard_when_unambiguous(self):
        beta = np.array([6.0, 4.0, 10.0])
        alpha = np.array([2.0, 4.0, 1.0])
        s = standard_ratio_test(beta, alpha, basis(3), 1e-9)
        h = harris_ratio_test(beta, alpha, basis(3), 1e-9)
        assert s.row == h.row

    def test_unbounded(self):
        rr = harris_ratio_test(np.ones(2), np.zeros(2), basis(2), 1e-9)
        assert rr.unbounded

    def test_theta_never_negative(self):
        beta = np.array([0.0, 1.0])
        alpha = np.array([1.0, 1.0])
        rr = harris_ratio_test(beta, alpha, basis(2), 1e-9)
        assert rr.theta >= 0.0

    def test_degenerate_lp_picks_largest_absolute_pivot(self):
        # Regression: pass 2 compared raw alpha instead of |alpha| (the
        # docstring's rule).  On a fully degenerate step every admissible row
        # ties at ratio 0 and the stable choice is the largest magnitude.
        beta = np.zeros(4)
        alpha = np.array([0.3, 8.0, 2.0, 0.9])
        rr = harris_ratio_test(beta, alpha, basis(4), 1e-12, feas_tol=1e-6)
        assert rr.row == 1
        assert rr.pivot == 8.0
        assert rr.theta == 0.0
        assert rr.ties == 4

    def test_degenerate_rows_beat_looser_small_pivots(self):
        # A degenerate row with a big pivot must win over a slightly looser
        # row whose pivot is tiny, even within the feas_tol relaxation.
        beta = np.array([0.0, 1e-8])
        alpha = np.array([5.0, 1e-3])
        rr = harris_ratio_test(beta, alpha, basis(2), 1e-12, feas_tol=1e-6)
        assert rr.row == 0
        assert abs(rr.pivot) == 5.0


class TestDispatch:
    def test_standard(self):
        rr = run_ratio_test("standard", np.ones(1), np.ones(1), basis(1), 1e-9)
        assert isinstance(rr, RatioResult)

    def test_harris(self):
        rr = run_ratio_test("harris", np.ones(1), np.ones(1), basis(1), 1e-9)
        assert rr.row == 0


class TestHarrisAcceptance:
    """A method that cannot run the Harris test rejects it instead of
    silently running the standard one."""

    @pytest.mark.parametrize("method", SIMPLEX)
    def test_constructor(self, method):
        options = SolverOptions(ratio_test="harris")
        if method in HARRIS:
            assert METHODS[method].factory(options, None).options is options
        else:
            with pytest.raises(SolverError, match="run the Harris ratio test"):
                METHODS[method].factory(options, None)

    @pytest.mark.parametrize("method", SIMPLEX)
    def test_solve(self, method):
        lp = random_dense_lp(8, 10, seed=1)
        if method in HARRIS:
            assert solve(lp, method=method, ratio_test="harris").is_optimal
        else:
            with pytest.raises(SolverError, match="'tableau', 'revised' and"):
                solve(lp, method=method, ratio_test="harris")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31),
)
def test_standard_matches_bruteforce(n, seed):
    rng = np.random.default_rng(seed)
    beta = np.abs(rng.normal(size=n))
    alpha = rng.normal(size=n)
    tol = 1e-9
    rr = standard_ratio_test(beta, alpha, basis(n), tol)
    positive = alpha > tol
    if not positive.any():
        assert rr.unbounded
    else:
        ratios = np.where(positive, beta / np.where(positive, alpha, 1.0), np.inf)
        assert rr.theta == pytest.approx(float(ratios.min()))
        assert positive[rr.row]
        assert beta[rr.row] / alpha[rr.row] == pytest.approx(rr.theta)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**31))
def test_harris_step_never_exceeds_relaxed_bound(n, seed):
    rng = np.random.default_rng(seed)
    beta = np.abs(rng.normal(size=n))
    alpha = rng.normal(size=n)
    feas_tol = 1e-7
    rr = harris_ratio_test(beta, alpha, basis(n), 1e-9, feas_tol=feas_tol)
    if rr.unbounded:
        return
    # taking the step leaves every basic variable >= -feas_tol
    new_beta = beta - rr.theta * alpha
    assert np.all(new_beta >= -feas_tol * (1 + 1e-6))
