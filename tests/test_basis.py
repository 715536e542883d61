"""Tests for the basis-inverse representations (explicit and PFI)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SingularBasisError
from repro.simplex.basis import (
    ExplicitInverseBasis,
    ProductFormBasis,
    apply_eta,
    apply_eta_transposed,
    eta_from_alpha,
    make_basis,
)


class TestEta:
    def test_eta_vector(self):
        alpha = np.array([2.0, 4.0, 6.0])
        eta = eta_from_alpha(alpha, 1, 1e-9)
        np.testing.assert_allclose(eta, [-0.5, 0.25, -1.5])

    def test_zero_pivot_rejected(self):
        with pytest.raises(SingularBasisError):
            eta_from_alpha(np.array([1.0, 1e-15]), 1, 1e-9)

    def test_apply_eta_is_elimination(self):
        """E y where E = I with column p := η performs the pivot step."""
        alpha = np.array([2.0, 4.0, 6.0])
        p = 1
        eta = eta_from_alpha(alpha, p, 1e-9)
        e_matrix = np.eye(3)
        e_matrix[:, p] = eta
        y = np.array([3.0, 5.0, 7.0])
        expected = e_matrix @ y
        got = y.copy()
        apply_eta(got, eta, p)
        np.testing.assert_allclose(got, expected)

    def test_apply_eta_transposed(self):
        alpha = np.array([2.0, 4.0, 6.0])
        p = 2
        eta = eta_from_alpha(alpha, p, 1e-9)
        e_matrix = np.eye(3)
        e_matrix[:, p] = eta
        r = np.array([1.0, -2.0, 3.0])
        expected = r @ e_matrix
        got = r.copy()
        apply_eta_transposed(got, eta, p)
        np.testing.assert_allclose(got, expected)

    def test_eta_applied_to_alpha_gives_unit(self):
        """E α = e_p: the defining property of the pivot transformation."""
        alpha = np.array([3.0, -1.0, 2.0])
        p = 0
        eta = eta_from_alpha(alpha, p, 1e-9)
        y = alpha.copy()
        apply_eta(y, eta, p)
        np.testing.assert_allclose(y, [1.0, 0.0, 0.0], atol=1e-12)


def random_pivot_sequence(rep, m, steps, seed):
    """Drive a representation through random pivots; return the effective B.

    Maintains the actual basis matrix alongside: start from I, replace
    column p by a random column each step.
    """
    rng = np.random.default_rng(seed)
    b_matrix = np.eye(m)
    for _ in range(steps):
        while True:
            col = rng.normal(size=m)
            alpha = rep.ftran(col)
            p = int(np.argmax(np.abs(alpha)))
            if abs(alpha[p]) > 1e-6:
                break
        rep.update(alpha, p, 1e-9)
        b_matrix[:, p] = col
    return b_matrix


@pytest.mark.parametrize("kind", ["explicit", "pfi"])
class TestRepresentations:
    def test_identity_start(self, kind):
        rep = make_basis(kind, 4)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(rep.ftran(x), x)
        np.testing.assert_allclose(rep.btran(x), x)

    def test_ftran_solves_system(self, kind, rng):
        m = 8
        rep = make_basis(kind, m)
        b_matrix = random_pivot_sequence(rep, m, steps=12, seed=3)
        rhs = rng.normal(size=m)
        alpha = rep.ftran(rhs)
        np.testing.assert_allclose(b_matrix @ alpha, rhs, atol=1e-8)

    def test_btran_solves_transposed_system(self, kind, rng):
        m = 8
        rep = make_basis(kind, m)
        b_matrix = random_pivot_sequence(rep, m, steps=12, seed=4)
        c = rng.normal(size=m)
        pi = rep.btran(c)
        np.testing.assert_allclose(b_matrix.T @ pi, c, atol=1e-8)

    def test_refactorize_resets_error(self, kind, rng):
        m = 6
        rep = make_basis(kind, m)
        b_matrix = random_pivot_sequence(rep, m, steps=20, seed=5)
        rep.refactorize(b_matrix)
        assert rep.updates_since_refactor == 0
        rhs = rng.normal(size=m)
        np.testing.assert_allclose(b_matrix @ rep.ftran(rhs), rhs, atol=1e-10)

    def test_refactorize_singular_raises(self, kind):
        rep = make_basis(kind, 3)
        singular = np.ones((3, 3))
        with pytest.raises(SingularBasisError):
            rep.refactorize(singular)

    def test_reset_identity(self, kind):
        rep = make_basis(kind, 3)
        random_pivot_sequence(rep, 3, steps=4, seed=6)
        rep.reset_identity()
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(rep.ftran(x), x)

    def test_update_counts(self, kind):
        rep = make_basis(kind, 4)
        random_pivot_sequence(rep, 4, steps=5, seed=7)
        assert rep.updates_since_refactor == 5

    def test_recorder_charged(self, kind):
        from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder
        from repro.perfmodel.presets import CORE2_CPU_PARAMS

        rec = CpuCostRecorder(CpuCostModel(CORE2_CPU_PARAMS))
        rep = make_basis(kind, 4, rec)
        rep.ftran(np.ones(4))
        rep.btran(np.ones(4))
        assert rec.total_seconds > 0
        assert "ftran" in rec.by_op and "btran" in rec.by_op


def test_fp32_solve_charges_four_byte_words():
    """Host basis operations charge at the solve's word size: an fp32
    explicit-inverse FTRAN reads B⁻¹ and the column at 4 bytes a word."""
    from repro.perfmodel.cpu_model import CpuCostModel, CpuCostRecorder
    from repro.perfmodel.presets import CORE2_CPU_PARAMS
    from repro.simplex.basis import ExplicitInverseBasis

    m = 6
    rec = CpuCostRecorder(CpuCostModel(CORE2_CPU_PARAMS), dtype=np.float32)
    charged = []
    rec.charge = lambda name, cost: charged.append((name, cost))
    ExplicitInverseBasis(m, rec).ftran(np.ones(m))
    assert [name for name, _ in charged] == ["ftran"]
    assert charged[0][1].bytes_read == (m * m + m) * 4


class TestEquivalence:
    def test_explicit_and_pfi_agree(self, rng):
        """Both representations track the same basis exactly."""
        m = 7
        exp = ExplicitInverseBasis(m)
        pfi = ProductFormBasis(m)
        rng2 = np.random.default_rng(9)
        for _ in range(10):
            col = rng2.normal(size=m)
            a1 = exp.ftran(col)
            a2 = pfi.ftran(col)
            np.testing.assert_allclose(a1, a2, atol=1e-9)
            p = int(np.argmax(np.abs(a1)))
            exp.update(a1, p, 1e-9)
            pfi.update(a2, p, 1e-9)
        probe = rng.normal(size=m)
        np.testing.assert_allclose(exp.ftran(probe), pfi.ftran(probe), atol=1e-8)
        np.testing.assert_allclose(exp.btran(probe), pfi.btran(probe), atol=1e-8)

    def test_pfi_eta_count(self):
        pfi = ProductFormBasis(5)
        random_pivot_sequence(pfi, 5, steps=6, seed=11)
        assert pfi.eta_count == 6
        pfi.refactorize(random_pivot_sequence(ProductFormBasis(5), 5, 0, 0))
        assert pfi.eta_count == 0

    def test_make_basis_unknown(self):
        with pytest.raises(ValueError):
            make_basis("lu-fancy", 3)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 10), steps=st.integers(1, 15), seed=st.integers(0, 2**31))
def test_ftran_btran_adjoint_property(m, steps, seed):
    """<B⁻¹x, y> == <x, B⁻ᵀy> for any x, y."""
    rep = ExplicitInverseBasis(m)
    random_pivot_sequence(rep, m, steps, seed)
    rng = np.random.default_rng(seed ^ 0xFFFF)
    x, y = rng.normal(size=m), rng.normal(size=m)
    lhs = float(rep.ftran(x) @ y)
    rhs = float(x @ rep.btran(y))
    assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)
