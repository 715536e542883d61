"""Tests for duals, reduced costs and optimality certificates."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import badly_scaled
from repro import solve
from repro.lp.generators import random_dense_lp, random_sparse_lp, transportation_lp
from repro.lp.postsolve import Certificate, certificate_from_basis
from repro.simplex.common import prepare

METHODS = ("tableau", "revised", "gpu-revised", "gpu-tableau")


class TestCertificateObject:
    def test_optimal_certificate_check(self):
        cert = Certificate(
            y=np.zeros(2), reduced_costs=np.zeros(3), duality_gap=0.0,
            complementary_slackness=0.0, min_nonbasic_reduced_cost=0.0,
        )
        assert cert.is_optimal_certificate()

    def test_negative_reduced_cost_fails_certificate(self):
        cert = Certificate(
            y=np.zeros(2), reduced_costs=np.zeros(3), duality_gap=0.0,
            complementary_slackness=0.0, min_nonbasic_reduced_cost=-1.0,
        )
        assert not cert.is_optimal_certificate()

    def test_gap_fails_certificate(self):
        cert = Certificate(
            y=np.zeros(2), reduced_costs=np.zeros(3), duality_gap=0.5,
            complementary_slackness=0.0, min_nonbasic_reduced_cost=0.0,
        )
        assert not cert.is_optimal_certificate()

    def test_primal_residual_fails_certificate(self, textbook_lp):
        """A basic slack raised by 1e-3 has a zero cost and a zero reduced
        cost, so gap and slackness stay put: only the row residual sees
        that x left its rows."""
        r = solve(textbook_lp, method="revised")
        prep = prepare(textbook_lp)
        basis, x_std = r.extra["basis"], r.extra["x_std"].copy()
        slack = int(prep.std.slack_of_row[0])
        assert slack in basis
        x_std[slack] += 1e-3
        cert = certificate_from_basis(prep, basis, x_std)
        assert not cert.is_optimal_certificate()
        before = r.extra["certificate"]
        assert cert.duality_gap == before.duality_gap
        assert cert.complementary_slackness == before.complementary_slackness
        assert cert.primal_residual == pytest.approx(1e-3 / 18.0)


class TestSolverCertificates:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_solver_produces_valid_certificate(self, method, textbook_lp):
        r = solve(textbook_lp, method=method, dtype=np.float64)
        cert = r.extra["certificate"]
        assert cert.is_optimal_certificate(tol=1e-6)

    def test_strong_duality_on_random_instances(self):
        for seed in range(4):
            lp = random_dense_lp(20, 28, seed=seed)
            r = solve(lp, method="revised")
            cert = r.extra["certificate"]
            assert abs(cert.duality_gap) < 1e-7 * (1 + abs(r.objective))

    def test_complementary_slackness(self):
        lp = random_dense_lp(25, 30, seed=9)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        assert r.extra["certificate"].complementary_slackness < 1e-6

    def test_sparse_instances(self):
        lp = random_sparse_lp(25, 40, density=0.2, seed=2)
        r = solve(lp, method="gpu-revised", dtype=np.float64)
        assert r.extra["certificate"].is_optimal_certificate(1e-6)

    def test_certificate_with_scaling(self):
        lp = badly_scaled(random_dense_lp(15, 20, seed=3), seed=3)
        r = solve(lp, method="revised")
        assert r.extra["scaled"]
        assert r.extra["certificate"].is_optimal_certificate(1e-6)

    def test_no_certificate_on_infeasible(self, infeasible_lp):
        r = solve(infeasible_lp, method="revised")
        assert "certificate" not in r.extra


class TestOriginalSpaceDuals:
    def test_textbook_shadow_prices(self, textbook_lp):
        """Known duals of the textbook LP: y = (0, 3/2, 1) for max form."""
        r = solve(textbook_lp, method="revised")
        duals = r.extra["duals"]
        np.testing.assert_allclose(duals, [0.0, 1.5, 1.0], atol=1e-9)

    def test_duals_match_scipy(self):
        from scipy.optimize import linprog

        lp = random_dense_lp(12, 18, seed=5)
        r = solve(lp, method="revised")
        ref = linprog(
            -lp.c, A_ub=lp.a_dense(), b_ub=lp.b,
            bounds=[(0, None)] * lp.num_vars, method="highs",
        )
        # scipy's ineqlin marginals are ≤-form duals of the minimisation;
        # ours are in the user's max orientation: negate scipy's
        np.testing.assert_allclose(
            r.extra["duals"], -np.asarray(ref.ineqlin.marginals), atol=1e-6
        )

    def test_duals_price_the_objective(self):
        """Strong duality in user space: obj = Σ y_i b_i (all-<= max LP with
        binding structure; bound rows contribute nothing here)."""
        lp = random_dense_lp(10, 14, seed=6)
        r = solve(lp, method="revised")
        duals = r.extra["duals"]
        assert float(duals @ lp.b) == pytest.approx(r.objective, rel=1e-8)

    def test_equality_duals(self):
        """Transportation duals satisfy u_i + v_j = c_ij on basic arcs."""
        lp = transportation_lp(4, 5, seed=1)
        r = solve(lp, method="revised", pricing="hybrid")
        duals = r.extra["duals"]
        x = r.x
        c = lp.c
        a = lp.a_dense()
        for j in range(lp.num_vars):
            if x[j] > 1e-7:  # basic arc: reduced cost zero
                assert float(a[:, j] @ duals) == pytest.approx(c[j], abs=1e-6)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=st.integers(4, 12), n=st.integers(4, 12), seed=st.integers(0, 2**31))
def test_certificate_property(m, n, seed):
    lp = random_dense_lp(m, n, seed=seed)
    r = solve(lp, method="revised")
    cert = r.extra["certificate"]
    assert cert.is_optimal_certificate(1e-6)
    # recompute independently from the basis
    prep = prepare(lp)
    cert2 = certificate_from_basis(prep, r.extra["basis"], r.extra["x_std"])
    np.testing.assert_allclose(cert.y, cert2.y, atol=1e-9)
