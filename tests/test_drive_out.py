"""The artificial drive-out between phase 1 and phase 2.

Two equality LPs leave an artificial variable basic at zero after
phase 1.  In the first the row is redundant (row 5 = row 0 + row 1), so no
real column can replace the artificial and it stays basic.  In the second
row 1 is the zero row over the support of the feasible point, and a real
column pivots the artificial out before phase 2.  Every simplex method
must reach HiGHS's optimum on both; the host and device backends are
watched through the drive-out itself.  A third LP's transformed row has
only a tiny real entry, which must still pivot its artificial out.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_matches_oracle
from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.core.gpu_tableau_simplex import GpuTableauSimplex
from repro.lp.problem import Bounds, LPProblem
from repro.simplex.revised_cpu import RevisedSimplexSolver
from repro.simplex.tableau import TableauSimplexSolver
from repro.solve import available_methods, solve
from repro.status import SolveStatus

SIMPLEX = [m for m in available_methods() if not m.endswith("pdlp")]
PRIMAL = [m for m in SIMPLEX if m != "dual"]
HOST = ["revised", "revised-bounded", "revised-sparse", "tableau"]
DEVICE = ["gpu-revised", "gpu-revised-bounded", "gpu-revised-sparse", "gpu-tableau"]


def redundant_row_lp() -> LPProblem:
    """A 5×9 random equality LP plus row 5 = row 0 + row 1."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, size=(5, 9))
    x = rng.uniform(0.2, 1.0, size=9)
    a = np.vstack([a, a[0] + a[1]])
    return LPProblem(
        c=rng.uniform(0.1, 1.0, size=9), a=a, senses=["="] * 6, b=a @ x,
        bounds=Bounds.nonnegative(9), name="redundant-row",
    )


def zero_artificial_lp() -> LPProblem:
    """Row 1 vanishes on the support of a feasible point, so phase 1 ends
    with row 1's artificial basic at zero."""
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, size=(4, 7))
    x = np.zeros(7)
    x[:3] = rng.uniform(0.2, 1.0, size=3)
    b = a @ x
    b[1] = 0.0
    a[1, :3] = 0.0
    return LPProblem(
        c=rng.uniform(0.1, 1.0, size=7), a=a, senses=["="] * 4, b=b,
        bounds=Bounds.nonnegative(7), name="zero-artificial",
    )


@pytest.fixture
def drive_outs(monkeypatch):
    """Basis before and after each host or device drive-out (the bounded
    and sparse host methods inherit the revised one)."""
    seen: list[tuple[np.ndarray, np.ndarray, int]] = []
    for cls, basis_of in (
        (RevisedSimplexSolver, lambda backend: backend._st.basis),
        (TableauSimplexSolver, lambda backend: backend._st.basis),
        (GpuRevisedSimplex, lambda backend: backend._st.basis),
        (GpuTableauSimplex, lambda backend: backend._st.basis),
    ):
        original = cls.drive_out_artificials

        def spy(self, original=original, basis_of=basis_of):
            before = basis_of(self).copy()
            original(self)
            seen.append((before, basis_of(self).copy(), self.prep.n_total))

        monkeypatch.setattr(cls, "drive_out_artificials", spy)
    return seen


@pytest.mark.parametrize("method", SIMPLEX)
@pytest.mark.parametrize("make", [redundant_row_lp, zero_artificial_lp])
def test_matches_highs(method, make):
    lp = make()
    assert_matches_oracle(lp, solve(lp, method=method))


@pytest.mark.parametrize("method", HOST + DEVICE)
def test_redundant_row_keeps_its_artificial(method, drive_outs):
    solve(redundant_row_lp(), method=method)
    (before, after, n), = drive_outs
    assert np.any(before >= n)
    assert np.array_equal(after, before)


@pytest.mark.parametrize("method", HOST + DEVICE)
def test_zero_artificial_is_pivoted_out(method, drive_outs):
    r = solve(zero_artificial_lp(), method=method)
    (before, after, n), = drive_outs
    assert np.count_nonzero(before >= n) == 1
    assert np.all(after < n)
    assert np.all(r.extra["basis"] < n)


@pytest.mark.parametrize("method", HOST)
def test_host_drive_out_is_charged(method):
    """The drive-out's transformed row costs modeled time on every host
    method."""
    r = solve(zero_artificial_lp(), method=method)
    assert r.timing.kernel_breakdown["driveout"] > 0


def test_tableau_drive_out_swap_is_charged(monkeypatch):
    """The tableau's drive-out swap eliminates all of T, charged as a
    loop pivot's elimination."""
    charged = []
    original = TableauSimplexSolver.drive_out_artificials

    def spy(self):
        before = self.recorder.by_op.get("pivot.eliminate", 0.0)
        original(self)
        charged.append(self.recorder.by_op.get("pivot.eliminate", 0.0) - before)

    monkeypatch.setattr(TableauSimplexSolver, "drive_out_artificials", spy)
    solve(zero_artificial_lp(), method="tableau")
    assert charged and charged[0] > 0


@pytest.mark.parametrize("method", PRIMAL)
def test_tiny_entry_still_drives_out(method):
    """Phase 1 ends with x₁ + x₂ = 1 and an artificial basic in row 2,
    whose only real nonbasic entry is x₃'s −10⁻⁶.  That entry clears the
    pivot tolerance, so the artificial must leave; left basic, phase 2
    grows it with x₃ and reports the bounded LP UNBOUNDED."""
    lp = LPProblem.minimize(
        c=[1.0, 2.0, -3.0], a_eq=[[1.0, 1.0, 0.0], [1.0, 1.0, -1e-6]],
        b_eq=[1.0, 1.0],
    )
    r = solve(lp, method=method)
    assert r.status is SolveStatus.OPTIMAL
    assert r.objective == pytest.approx(1.0, abs=1e-9)
