"""Tests for the general-form → standard-form conversion and recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.problem import Bounds, ConstraintSense, LPProblem
from repro.lp.standard_form import column_entries, to_standard_form
from repro.sparse import CooMatrix, CscMatrix


def feasible_point_roundtrip(lp, x_orig):
    """Map x through the standard form and back; consistency checks."""
    std = to_standard_form(lp)
    # invariants of the standard form itself
    assert np.all(std.b >= 0)
    assert std.num_cols == std.c.size
    return std


class TestBasics:
    def test_all_le_keeps_shape(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        m = textbook_lp.num_constraints
        assert std.num_rows == m
        assert std.num_cols == textbook_lp.num_vars + m  # one slack per row
        assert std.has_full_slack_basis

    def test_maximize_negates_costs(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        assert np.array_equal(std.c[:2], [-3.0, -5.0])
        # objective recovery flips back
        assert std.original_objective(-36.0) == pytest.approx(36.0)

    def test_equality_rows_have_no_slack(self, equality_lp):
        std = to_standard_form(equality_lp)
        assert not std.has_full_slack_basis
        assert std.slack_of_row[1] == -1  # the EQ row

    def test_ge_rows_get_surplus_not_slack_basis(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=[">="], b=[2.0],
                       bounds=Bounds.nonnegative(1))
        std = to_standard_form(lp)
        assert std.slack_of_row[0] == -1
        # surplus column has coefficient -1
        assert std.a_dense()[0, 1] == -1.0

    def test_negative_rhs_flips_row(self):
        lp = LPProblem(c=[1.0], a=[[-2.0]], senses=["<="], b=[-4.0],
                       bounds=Bounds.nonnegative(1))
        std = to_standard_form(lp)
        assert std.b[0] == 4.0
        assert std.a_dense()[0, 0] == 2.0
        # flipped <= becomes >=, so no +1 slack
        assert std.slack_of_row[0] == -1

    def test_standard_b_nonnegative_always(self, bounded_vars_lp):
        std = to_standard_form(bounded_vars_lp)
        assert np.all(std.b >= 0)


class TestBoundTransforms:
    def test_shift_lower_bound(self):
        # min x s.t. x <= 10, x >= 3  -> shifted variable x' = x - 3
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([3.0]), np.array([np.inf])))
        std = to_standard_form(lp)
        assert std.constant == pytest.approx(3.0)
        assert std.b[0] == pytest.approx(7.0)  # 10 - 3
        # x' = 0 recovers x = 3
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(3.0)

    def test_reflect_upper_only(self):
        # x <= 5 with no lower bound: x = 5 - x'
        lp = LPProblem(c=[2.0], a=[[1.0]], senses=["<="], b=[3.0],
                       bounds=Bounds(np.array([-np.inf]), np.array([5.0])))
        std = to_standard_form(lp)
        assert std.constant == pytest.approx(10.0)  # c * hi
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(5.0)
        # column sign flipped
        assert std.a_dense()[0, 0] == pytest.approx(1.0)  # -1 * -1 (row flip: b = 3 - 5 = -2 < 0)

    def test_range_bounds_add_row(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([1.0]), np.array([4.0])))
        std = to_standard_form(lp)
        assert std.num_rows == 2  # original row + bound row x' <= 3
        assert std.b[1] == pytest.approx(3.0)

    def test_free_split(self):
        lp = LPProblem(c=[1.0], a=[[1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([-np.inf]), np.array([np.inf])))
        std = to_standard_form(lp)
        assert std.n_structural == 2  # x+ and x-
        a = std.a_dense()
        assert a[0, 0] == 1.0 and a[0, 1] == -1.0
        assert std.c[0] == 1.0 and std.c[1] == -1.0
        x = std.recover_x(np.array([2.0, 5.0, 0.0]))
        assert x[0] == pytest.approx(-3.0)

    def test_fixed_variable(self):
        lp = LPProblem(c=[1.0, 1.0], a=[[1.0, 1.0]], senses=["<="], b=[10.0],
                       bounds=Bounds(np.array([2.0, 0.0]), np.array([2.0, np.inf])))
        std = to_standard_form(lp)
        # fixed var becomes shift + bound row x' <= 0
        x = std.recover_x(np.zeros(std.num_cols))
        assert x[0] == pytest.approx(2.0)


class TestSparsePreservation:
    def test_sparse_in_sparse_out(self):
        a = CscMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        lp = LPProblem(c=[1.0, 1.0], a=a, senses=["<=", "<="], b=[1.0, 2.0],
                       bounds=Bounds.nonnegative(2))
        std = to_standard_form(lp)
        assert std.is_sparse
        assert isinstance(std.a, CscMatrix)

    def test_dense_in_dense_out(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        assert not std.is_sparse
        assert isinstance(std.a, np.ndarray)

    def test_column_access(self, textbook_lp):
        std = to_standard_form(textbook_lp)
        dense = std.a_dense()
        for j in range(std.num_cols):
            np.testing.assert_array_equal(std.column(j), dense[:, j])

    def test_column_out_of_range(self, textbook_lp):
        from repro.errors import LPDimensionError

        std = to_standard_form(textbook_lp)
        with pytest.raises(LPDimensionError):
            std.column(std.num_cols)


class TestRecovery:
    def test_recover_wrong_length(self, textbook_lp):
        from repro.errors import LPDimensionError

        std = to_standard_form(textbook_lp)
        with pytest.raises(LPDimensionError):
            std.recover_x(np.zeros(std.num_cols + 1))

    def test_known_solution_roundtrip(self, textbook_lp):
        """Push the known optimum through the standard form and back."""
        std = to_standard_form(textbook_lp)
        # x = (2, 6); slacks = b - Ax = (2, 0, 0)
        x_std = np.array([2.0, 6.0, 2.0, 0.0, 0.0])
        a = std.a_dense()
        np.testing.assert_allclose(a @ x_std, std.b)
        x = std.recover_x(x_std)
        np.testing.assert_allclose(x, [2.0, 6.0])
        z_std = float(std.c @ x_std)
        assert std.original_objective(z_std) == pytest.approx(36.0)


@st.composite
def general_lps(draw):
    """Random general-form LPs with mixed senses and bound types."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    lower = np.where(rng.random(n) < 0.3, -np.inf, rng.normal(size=n) - 2)
    upper = np.where(rng.random(n) < 0.3, np.inf, lower + np.abs(rng.normal(size=n)) + 0.5)
    upper = np.where(np.isneginf(lower), np.where(rng.random(n) < 0.5, np.inf, rng.normal(size=n)), upper)
    maximize = draw(st.booleans())
    return LPProblem(c=c, a=a, senses=senses, b=b,
                     bounds=Bounds(lower, upper), maximize=maximize)


@settings(max_examples=50, deadline=None)
@given(lp=general_lps())
def test_standard_form_invariants(lp):
    std = to_standard_form(lp)
    # 1. b >= 0
    assert np.all(std.b >= 0)
    # 2. every slack hint points at a +1 identity column
    a = std.a_dense()
    for i, col in enumerate(std.slack_of_row):
        if col >= 0:
            e = np.zeros(std.num_rows)
            e[i] = 1.0
            np.testing.assert_array_equal(a[:, col], e)
    # 3. transforms cover every original variable exactly once
    assert len(std.transforms) == lp.num_vars
    # 4. any standard-form point recovers to a point whose objective matches
    rng = np.random.default_rng(0)
    x_std = np.abs(rng.normal(size=std.num_cols))
    x = std.recover_x(x_std)
    c_min = -lp.c if lp.maximize else lp.c
    direct = float(c_min @ x)
    via_std = float(std.c @ x_std) + std.constant
    assert direct == pytest.approx(via_std, rel=1e-9, abs=1e-9)


class TestColumnEntries:
    """The per-column triplet index lists the bound transforms walk."""

    @staticmethod
    def _lp():
        # Row-major COO (the canonical order), so each column's entries are
        # scattered through the triplets.  Columns: 0 shifted (lo=2),
        # 1 reflected (hi=3), 2 free, 3 reflected with no entries, 4 plain.
        rng = np.random.default_rng(7)
        m, n = 6, 5
        dense = rng.uniform(-4.0, 4.0, size=(m, n))
        dense[rng.random((m, n)) < 0.3] = 0.0
        dense[:, 3] = 0.0
        rows, cols = np.nonzero(dense)
        a = CooMatrix((m, n), rows, cols, dense[rows, cols])
        bounds = Bounds(
            np.array([2.0, -np.inf, -np.inf, -np.inf, 0.0]),
            np.array([np.inf, 3.0, np.inf, 1.5, np.inf]),
        )
        b = 100.0 + rng.uniform(0.0, 1.0, size=m)  # no row flips
        lp = LPProblem(c=rng.standard_normal(n), a=a, senses=["<="] * m,
                       b=b, bounds=bounds)
        return lp, a

    def test_matches_the_per_nonzero_loop(self):
        lp, a = self._lp()
        n = lp.num_vars
        loop: list[list[int]] = [[] for _ in range(n)]
        for k in range(a.col.size):
            loop[int(a.col[k])].append(k)
        got = column_entries(a.col, n)
        assert [[int(k) for k in ks] for ks in got[:n]] == loop
        assert loop[3] == [] and all(loop[j] for j in (0, 1, 2))

    def test_shift_and_reflect_keep_b_bit_identical(self):
        lp, a = self._lp()
        b = lp.b.astype(np.float64).copy()
        for j, offset in ((0, 2.0), (1, 3.0), (3, 1.5)):
            for k in range(a.col.size):
                if a.col[k] == j:
                    b[int(a.row[k])] -= a.val[k] * offset
        std = to_standard_form(lp)
        assert np.array_equal(std.b[: lp.num_constraints], b)
