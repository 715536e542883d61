"""Property-based cross-solver agreement: the library's strongest invariant.

Every solver in the library must agree with scipy's HiGHS (an entirely
independent implementation) on status, and on the optimal objective when one
exists — across randomly generated general-form LPs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import scipy_oracle
from repro import solve
from repro.lp.generators import (
    degenerate_lp,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.lp.problem import Bounds, LPProblem
from repro.solve import available_methods

METHODS = ("tableau", "revised", "gpu-revised", "gpu-tableau")

#: Methods whose optimal/infeasible/unbounded verdicts are checked on
#: arbitrary LPs; a quarter of their variables have a finite upper bound,
#: which these methods keep out of the rows.
STATUS_METHODS = ("revised", "revised-sparse", "gpu-revised", "dual")

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SLOW
@given(m=st.integers(3, 14), n=st.integers(3, 14), seed=st.integers(0, 2**31))
def test_feasible_bounded_family_all_solvers_agree(m, n, seed):
    lp = random_dense_lp(m, n, seed=seed)
    ref = scipy_oracle(lp)
    assert ref is not None
    for method in METHODS:
        r = solve(lp, method=method, dtype=np.float64)
        assert r.status.value == "optimal", (method, r.status)
        assert abs(r.objective - ref) <= 1e-6 * (1 + abs(ref)), method
        assert lp.constraint_violation(r.x) <= 1e-6


@SLOW
@given(seed=st.integers(0, 2**31))
def test_sparse_family_agrees(seed):
    lp = random_sparse_lp(12, 20, density=0.25, seed=seed)
    ref = scipy_oracle(lp)
    assert ref is not None
    for method in ("revised", "gpu-revised"):
        r = solve(lp, method=method, dtype=np.float64)
        assert abs(r.objective - ref) <= 1e-6 * (1 + abs(ref)), method


#: Every simplex method (the first-order pair is left out: on badly scaled
#: LPs it stops at an honest iteration limit).
SIMPLEX_METHODS = tuple(m for m in available_methods() if not m.endswith("pdlp"))

BADLY_SCALED_FAMILIES = {
    "dense": lambda s: random_dense_lp(30, 40, seed=s),
    "degenerate": lambda s: degenerate_lp(20, 30, seed=s),
    "transportation": lambda s: transportation_lp(5, 7, seed=s),
}


def badly_scaled(lp, seed):
    """``lp`` with rows and columns scaled by factors spread over six
    decades: A' = diag(r)·A·diag(k), b' = r∘b, c' = c∘k."""
    rng = np.random.default_rng(seed)
    m, n = lp.a.shape
    r = 10 ** rng.uniform(-3, 3, m)
    k = 10 ** rng.uniform(-3, 3, n)
    return dataclasses.replace(
        lp, a=r[:, None] * lp.a * k[None, :], b=r * lp.b, c=lp.c * k
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", sorted(BADLY_SCALED_FAMILIES))
def test_badly_scaled_family_all_simplex_methods_agree(family, seed):
    """Hostile scaling: every simplex method, at its defaults, reaches the
    oracle's optimum at a feasible point."""
    lp = badly_scaled(BADLY_SCALED_FAMILIES[family](seed), seed)
    ref = scipy_oracle(lp)
    assert ref is not None
    b_norm = max(1.0, float(np.max(np.abs(lp.b))))
    for method in SIMPLEX_METHODS:
        r = solve(lp, method=method)
        assert r.status.value == "optimal", (method, r.status)
        assert abs(r.objective - ref) <= 1e-6 * (1 + abs(ref)), method
        assert lp.constraint_violation(r.x) / b_norm <= 1e-6, method


#: Reduced-precision cells whose final basis fp64 cannot factorise.
SINGULAR_FINAL_BASIS = {
    ("transportation", 3, "gpu-tableau", "mixed"),
    ("transportation", 3, "gpu-tableau", "fp32"),
    ("transportation", 4, "gpu-revised", "mixed"),
    ("transportation", 4, "gpu-revised", "fp32"),
}

REDUCED_PRECISION = {
    "mixed": {"precision": "mixed"},
    "fp32": {"dtype": np.float32},
}


@pytest.mark.parametrize("precision", sorted(REDUCED_PRECISION))
@pytest.mark.parametrize("method", ("gpu-revised", "gpu-tableau"))
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("family", sorted(BADLY_SCALED_FAMILIES))
def test_badly_scaled_reduced_precision_returns_a_status(
    family, seed, method, precision
):
    """Hostile scaling in fp32 or mixed precision: the solve returns a
    status instead of raising, and a singular final basis reads NUMERICAL
    rather than OPTIMAL."""
    lp = badly_scaled(BADLY_SCALED_FAMILIES[family](seed), seed)
    r = solve(lp, method=method, **REDUCED_PRECISION[precision])
    if (family, seed, method, precision) in SINGULAR_FINAL_BASIS:
        assert r.status.value == "numerical", r.status
        assert "singular" in r.extra["numerical_reason"]


@st.composite
def arbitrary_lps(draw):
    """LPs with mixed senses/bounds: any of the three outcomes possible."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=(m, n)) * 2, 1)
    b = np.round(rng.normal(size=m) * 3, 1)
    c = np.round(rng.normal(size=n) * 2, 1)
    senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(m)]
    lower = np.where(rng.random(n) < 0.25, -np.inf, 0.0)
    upper = np.where(rng.random(n) < 0.25, rng.uniform(1, 5, n), np.inf)
    return LPProblem(c=c, a=a, senses=senses, b=b, bounds=Bounds(lower, upper),
                     maximize=draw(st.booleans()))


def highs(lp):
    """scipy's HiGHS result for ``lp``."""
    from scipy.optimize import linprog

    from repro.lp.problem import ConstraintSense

    c = -lp.c if lp.maximize else lp.c
    a = lp.a_dense()
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.senses):
        if s is ConstraintSense.LE:
            a_ub.append(a[i]); b_ub.append(lp.b[i])
        elif s is ConstraintSense.GE:
            a_ub.append(-a[i]); b_ub.append(-lp.b[i])
        else:
            a_eq.append(a[i]); b_eq.append(lp.b[i])
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lp.bounds.lower, lp.bounds.upper)]
    data = dict(A_ub=np.asarray(a_ub) if a_ub else None,
                b_ub=np.asarray(b_ub) if b_ub else None,
                A_eq=np.asarray(a_eq) if a_eq else None,
                b_eq=np.asarray(b_eq) if b_eq else None,
                bounds=bounds, method="highs")
    ref = linprog(c, **data)
    if ref.status == 2:
        # HiGHS's presolve can report an unbounded LP as infeasible; its
        # simplex without presolve tells the two apart
        ref = linprog(c, **data, options={"presolve": False})
    return ref


def assert_status_matches(lp, ref, r, method):
    """``r`` agrees with HiGHS's ``ref`` on status, and on the objective at
    an optimum."""
    if ref.status == 0:
        assert r.status.value == "optimal", method
        expected = float(-ref.fun if lp.maximize else ref.fun)
        assert abs(r.objective - expected) <= 1e-6 * (1 + abs(expected)), method
    elif ref.status == 2:
        assert r.status.value == "infeasible", method
    elif ref.status == 3:
        assert r.status.value in ("unbounded", "optimal"), method
        # HiGHS sometimes reports unbounded where a bounded optimum
        # exists only at infinity in a direction our orientation rules
        # out; accept 'unbounded' strictly when our solver also sees it.
        if r.status.value == "optimal":
            # must then be genuinely feasible
            assert lp.constraint_violation(r.x) <= 1e-6, method


#: Small LPs of the shapes row and column reductions target: fixed
#: variables (alone and cascading), empty rows and columns, singleton rows
#: and duplicate rows, each feasible, infeasible or unbounded.  Every
#: method solves them as given.
REDUCIBLE_LPS = {
    "fixed-variable": LPProblem.minimize(
        c=[1.0, 2.0, 3.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[10.0],
        bounds=[(0, None), (0, None), (3.0, 3.0)],
    ),
    "fix-cascade": LPProblem.minimize(
        c=[1.0, 2.0], a_ub=[[1.0, 1.0]], b_ub=[10.0],
        bounds=[(0, None), (3.0, 3.0)],
    ),
    "all-fixed": LPProblem.minimize(
        c=[2.0], a_ub=[[1.0]], b_ub=[10.0], bounds=[(3.0, 3.0)],
    ),
    "empty-row": LPProblem.minimize(
        c=[1.0, 1.0], a_ub=[[0.0, 0.0], [1.0, 1.0]], b_ub=[5.0, 2.0],
    ),
    "empty-le-row-infeasible": LPProblem.minimize(
        c=[1.0], a_ub=[[0.0]], b_ub=[-5.0],
    ),
    "empty-eq-row-infeasible": LPProblem.minimize(
        c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[0.0]], b_eq=[2.0],
    ),
    "singleton-row": LPProblem.minimize(
        c=[1.0, 1.0], a_ub=[[2.0, 0.0], [1.0, 1.0]], b_ub=[6.0, 10.0],
    ),
    "singleton-row-negative": LPProblem.minimize(
        c=[1.0, 1.0], a_ub=[[-1.0, 0.0], [1.0, 1.0]], b_ub=[-2.0, 10.0],
    ),
    "singleton-rows-contradict": LPProblem.minimize(
        c=[1.0, 1.0],
        a_ub=[[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0]],
        b_ub=[1.0, -3.0, 10.0],
    ),
    "empty-column": LPProblem.minimize(
        c=[1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[4.0],
    ),
    "empty-column-unbounded": LPProblem.maximize_problem(
        c=[1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[4.0],
    ),
    "duplicate-rows": LPProblem.minimize(
        c=[1.0, 1.0], a_ub=[[1.0, 1.0], [1.0, 1.0]], b_ub=[5.0, 3.0],
    ),
    "duplicate-eq-rows-conflict": LPProblem.minimize(
        c=[1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[4.0, 5.0],
    ),
    "mixed": LPProblem.minimize(
        c=[1.0, 2.0, 0.5],
        a_ub=[[1.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        b_ub=[10.0, 8.0, 1.0],
        a_eq=[[0.0, 1.0, 1.0]], b_eq=[4.0],
        bounds=[(0, None), (0, None), (1.0, 1.0)],
    ),
    "fixed-column-maximize": LPProblem.maximize_problem(
        c=[3.0, 5.0, 1.0],
        a_ub=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 2.0, 0.0]],
        b_ub=[4.0, 12.0, 18.0],
        bounds=[(0, None), (0, None), (2.0, 2.0)],
    ),
}


@pytest.mark.parametrize("method", available_methods())
@pytest.mark.parametrize("shape", sorted(REDUCIBLE_LPS))
def test_reducible_shapes_match_oracle(shape, method):
    """Every method, at its defaults, agrees with HiGHS on each shape and
    returns a feasible point at an optimum."""
    lp = REDUCIBLE_LPS[shape]
    r = solve(lp, method=method)
    assert_status_matches(lp, highs(lp), r, method)
    if r.is_optimal:
        assert lp.constraint_violation(r.x) <= 1e-6, method


@SLOW
@given(lp=arbitrary_lps())
def test_status_trichotomy_matches_oracle(lp):
    """Status agreement on arbitrary LPs (optimal / infeasible / unbounded)."""
    ref = highs(lp)
    for method in STATUS_METHODS:
        r = solve(lp, method=method, dtype=np.float64)
        assert_status_matches(lp, ref, r, method)


@SLOW
@given(lp=arbitrary_lps(), shift=st.integers(0, 2**31))
def test_warm_dual_after_rhs_shift_matches_oracle(lp, shift):
    """The re-optimisation ``dual`` exists for: solve, shift b, restart
    from the optimal basis.  The shifted LP is optimal or infeasible."""
    first = solve(lp, method="revised", dtype=np.float64)
    if not first.is_optimal:
        return
    factors = np.random.default_rng(shift).uniform(0.5, 1.5, lp.b.size)
    shifted = dataclasses.replace(lp, b=lp.b * factors)
    r = solve(shifted, method="dual", initial_basis=first.extra["basis"],
              dtype=np.float64)
    assert_status_matches(shifted, highs(shifted), r, "dual")
