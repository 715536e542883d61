"""Tests for the leaving-variable ratio test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simplex.ratio import standard_ratio_test


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
