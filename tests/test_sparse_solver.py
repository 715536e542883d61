"""Sparse revised simplex: LU basis, partial pricing, and both backends.

Covers the sparse solver core end-to-end:

- :class:`~repro.simplex.sparse_basis.SparseLUBasis` — factorization,
  FTRAN/BTRAN, sparse eta updates, refactorization policy, singularity.
- :class:`~repro.simplex.sparse_pricing.SparsePartialPricing` — the
  sectioned partial pricing rules agree with full Dantzig/Bland choices
  on what matters (entering column sign conventions, Bland anti-cycling).
- ``revised-sparse`` agrees with ``revised``, and ``gpu-revised`` on CSC
  input with ``gpu-revised`` on dense input, to 1e-6 on the structured
  generator families.
"""

import dataclasses

import numpy as np
import pytest

from repro import SolveStatus, solve
from repro.errors import SingularBasisError
from repro.lp.generators import band_lp, netlib_synth_suite, random_sparse_lp
from repro.simplex.sparse_basis import SparseLUBasis
from repro.sparse import CscMatrix


def random_basis(m: int, seed: int, density: float = 0.3) -> np.ndarray:
    """A well-conditioned sparse m×m basis (diagonally dominated)."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(m, m))
    b[rng.random(size=(m, m)) > density] = 0.0
    b += np.diag(np.sign(np.diag(b)) + rng.uniform(1.0, 2.0, size=m))
    return b


class TestSparseLUBasis:
    def test_starts_as_identity(self):
        lu = SparseLUBasis(5)
        e = np.zeros(5)
        e[2] = 1.0
        np.testing.assert_array_equal(lu.ftran(e.copy()), e)
        np.testing.assert_array_equal(lu.btran(e.copy()), e)
        assert lu.eta_count == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ftran_solves_bx_eq_rhs(self, seed, rng):
        m = 12
        b = random_basis(m, seed)
        lu = SparseLUBasis(m)
        lu.refactorize(b)
        rhs = rng.normal(size=m)
        x = lu.ftran(rhs.copy())
        np.testing.assert_allclose(b @ x, rhs, atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_btran_solves_btpi_eq_rhs(self, seed, rng):
        m = 12
        b = random_basis(m, seed)
        lu = SparseLUBasis(m)
        lu.refactorize(b)
        rhs = rng.normal(size=m)
        pi = lu.btran(rhs.copy())
        np.testing.assert_allclose(b.T @ pi, rhs, atol=1e-9)

    def test_accepts_csc_columns(self, rng):
        m = 10
        b = random_basis(m, 7)
        lu = SparseLUBasis(m)
        lu.refactorize(CscMatrix.from_dense(b))
        rhs = rng.normal(size=m)
        np.testing.assert_allclose(b @ lu.ftran(rhs.copy()), rhs, atol=1e-9)

    def test_eta_update_tracks_column_replacement(self, rng):
        m = 10
        b = random_basis(m, 11)
        lu = SparseLUBasis(m)
        lu.refactorize(b)
        for p in (3, 7, 0):
            a_q = rng.normal(size=m)
            alpha = lu.ftran(a_q.copy())
            lu.update(alpha, p, tol_pivot=1e-9)
            b[:, p] = a_q
            rhs = rng.normal(size=m)
            np.testing.assert_allclose(b @ lu.ftran(rhs.copy()), rhs, atol=1e-7)
            np.testing.assert_allclose(b.T @ lu.btran(rhs.copy()), rhs, atol=1e-7)
        assert lu.eta_count == 3

    def test_update_rejects_tiny_pivot(self):
        lu = SparseLUBasis(4)
        lu.refactorize(np.eye(4))
        alpha = np.array([1.0, 0.0, 1e-14, 0.0])
        with pytest.raises(SingularBasisError):
            lu.update(alpha, 2, tol_pivot=1e-9)

    def test_singular_matrix_raises(self):
        lu = SparseLUBasis(3)
        with pytest.raises(SingularBasisError):
            lu.refactorize(np.zeros((3, 3)))

    def test_refactorize_clears_eta_file(self, rng):
        m = 8
        b = random_basis(m, 5)
        lu = SparseLUBasis(m)
        lu.refactorize(b)
        alpha = lu.ftran(rng.normal(size=m))
        lu.update(alpha, 1, tol_pivot=1e-9)
        assert lu.eta_count == 1
        lu.refactorize(b)
        assert lu.eta_count == 0

    def test_needs_refresh_triggers_on_fill(self, rng):
        m = 8
        lu = SparseLUBasis(m, fill_limit=1.5)
        b = random_basis(m, 3, density=0.9)
        lu.refactorize(b)
        assert not lu.needs_refresh()  # no updates yet
        # pile on dense etas until the fill ratio trips the limit
        for p in range(m):
            alpha = lu.ftran(rng.normal(size=m))
            lu.update(alpha, p, tol_pivot=1e-12)
            if lu.needs_refresh():
                break
        assert lu.needs_refresh()
        assert lu.fill_ratio > 1.5


class TestSparsePartialPricing:
    @staticmethod
    def make(n_cols, mode="dantzig"):
        from repro.simplex.sparse_pricing import SparsePartialPricing

        rng = np.random.default_rng(0)
        dense = rng.normal(size=(6, n_cols))
        a = CscMatrix.from_dense(dense)
        return dense, SparsePartialPricing(a, mode=mode, stall_window=30)

    def test_dantzig_matches_reduced_cost_sign(self):
        dense, rule = self.make(40)
        pi = np.zeros(6)
        c = np.linspace(-1.0, 1.0, 40)
        in_basis = np.zeros(40, dtype=bool)
        picked = rule.select(pi, c, in_basis, tol=1e-9)
        assert picked is not None
        q, d_q = picked
        assert d_q < 0
        assert d_q == pytest.approx(c[q])  # pi = 0 ⇒ d = c

    def test_bland_picks_lowest_index(self):
        dense, rule = self.make(50, mode="bland")
        pi = np.zeros(6)
        c = np.zeros(50)
        c[[7, 31, 44]] = -1.0
        in_basis = np.zeros(50, dtype=bool)
        q, _ = rule.select(pi, c, in_basis, tol=1e-9)
        assert q == 7

    def test_optimal_returns_none(self):
        dense, rule = self.make(30)
        picked = rule.select(
            np.zeros(6), np.ones(30), np.zeros(30, dtype=bool), tol=1e-9
        )
        assert picked is None

    def test_skips_basic_columns(self):
        dense, rule = self.make(30)
        c = -np.ones(30)
        in_basis = np.ones(30, dtype=bool)
        in_basis[17] = False
        q, _ = rule.select(np.zeros(6), c, in_basis, tol=1e-9)
        assert q == 17


SPARSE_SUITE = [p for p in netlib_synth_suite(seed=0)] + [
    random_sparse_lp(60, 90, density=0.08, seed=3),
    random_sparse_lp(120, 200, density=0.05, seed=7),
]


def as_csc(lp):
    """``lp`` with its A in CSC, which the device places as CSC."""
    if lp.is_sparse:
        return lp
    return dataclasses.replace(lp, a=CscMatrix.from_dense(lp.a))


def as_dense(lp):
    """``lp`` with a dense A."""
    return dataclasses.replace(lp, a=lp.a_dense())


class TestBackendAgreement:
    @pytest.mark.parametrize("lp", SPARSE_SUITE, ids=lambda p: p.name)
    def test_revised_sparse_matches_revised(self, lp):
        ref = solve(lp, method="revised")
        r = solve(lp, method="revised-sparse")
        assert r.status is ref.status
        if ref.status is SolveStatus.OPTIMAL:
            assert r.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize("lp", SPARSE_SUITE, ids=lambda p: p.name)
    def test_gpu_revised_sparse_matches_gpu_revised(self, lp):
        """gpu-revised on CSC input (SpMVᵀ pricing, CSC column loads)
        against gpu-revised on the dense matrix."""
        ref = solve(as_dense(lp), method="gpu-revised")
        r = solve(as_csc(lp), method="gpu-revised")
        assert any("spmv_csc_t" in k for k in r.extra["by_kernel"])
        assert r.status is ref.status
        if ref.status is SolveStatus.OPTIMAL:
            assert r.objective == pytest.approx(ref.objective, abs=1e-6, rel=1e-6)

    def test_sparse_extras_reported(self):
        lp = random_sparse_lp(40, 60, density=0.1, seed=1)
        r = solve(lp, method="revised-sparse")
        for key in ("a_nnz", "lu_nnz", "eta_nnz", "fill_ratio"):
            assert key in r.extra, key
        assert r.extra["a_nnz"] == r.extra["a_nnz"]  # present and numeric
        # the device keeps no LU factors: its sparse extra is A's nnz
        g = solve(lp, method="gpu-revised")
        for key in ("a_nnz", "peak_device_bytes"):
            assert key in g.extra, key
        assert g.extra["a_nnz"] == r.extra["a_nnz"]

    def test_sparse_device_memory_below_dense(self):
        lp = random_sparse_lp(120, 180, density=0.05, seed=5)
        dense = solve(as_dense(lp), method="gpu-revised")
        sparse = solve(lp, method="gpu-revised")
        assert sparse.extra["peak_device_bytes"] < dense.extra["peak_device_bytes"]

    @pytest.mark.parametrize("method", ["revised-sparse", "gpu-revised"])
    def test_warm_start_reduces_iterations(self, method):
        lp = random_sparse_lp(50, 80, density=0.1, seed=9)
        cold = solve(lp, method=method)
        assert cold.status is SolveStatus.OPTIMAL
        warm = solve(lp, method=method, initial_basis=cold.extra["basis"])
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert (
            warm.iterations.total_iterations <= cold.iterations.total_iterations
        )
        assert warm.iterations.phase1_iterations == 0  # hint was feasible

    @pytest.mark.parametrize("method", ["revised-sparse", "gpu-revised"])
    def test_pricing_rules_reach_optimum(self, method):
        lp = random_sparse_lp(30, 45, density=0.15, seed=2)
        ref = solve(lp, method="revised")
        for pricing in ("dantzig", "bland", "hybrid"):
            r = solve(lp, method=method, pricing=pricing)
            assert r.status is SolveStatus.OPTIMAL, pricing
            assert r.objective == pytest.approx(ref.objective, abs=1e-6)

    @pytest.mark.parametrize("method", ["revised-sparse", "gpu-revised"])
    def test_unsupported_pricing_rejected(self, method):
        from repro.errors import SolverError

        lp = random_sparse_lp(10, 15, density=0.3, seed=0)
        with pytest.raises(SolverError):
            solve(lp, method=method, pricing="devex")


#: One instance of each shape the e2e benchmark's sparse-lu workload runs.
SPARSE_LU_SHAPES = [
    random_sparse_lp(60, 90, density=0.08, seed=1),
    random_sparse_lp(80, 120, density=0.06, seed=2),
    band_lp(128, bandwidth=5, seed=3),
]


@pytest.mark.parametrize("lp", SPARSE_LU_SHAPES, ids=lambda p: p.name)
def test_gpu_revised_sparse_is_gpu_revised(lp):
    """``gpu-revised-sparse`` is a second name for ``gpu-revised``: the
    same solve, bit for bit, on the clock too."""
    ref = solve(lp, method="gpu-revised")
    alias = solve(lp, method="gpu-revised-sparse")
    assert alias.status is ref.status is SolveStatus.OPTIMAL
    assert float(alias.objective).hex() == float(ref.objective).hex()
    assert alias.timing.modeled_seconds == ref.timing.modeled_seconds
    assert alias.extra["kernel_launches"] == ref.extra["kernel_launches"]
