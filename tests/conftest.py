"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.gpu.device import Device
from repro.lp.problem import Bounds, ConstraintSense, LPProblem
from repro.perfmodel.presets import GTX280_PARAMS


@pytest.fixture
def device() -> Device:
    """A fresh GTX 280-modeled device per test."""
    return Device(GTX280_PARAMS)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def textbook_lp() -> LPProblem:
    """max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 — optimum 36 at (2, 6)."""
    return LPProblem.maximize_problem(
        c=[3.0, 5.0],
        a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
        b_ub=[4.0, 12.0, 18.0],
    )


TEXTBOOK_OPTIMUM = 36.0
TEXTBOOK_X = (2.0, 6.0)


@pytest.fixture
def infeasible_lp() -> LPProblem:
    """x <= 1 and x >= 3 simultaneously."""
    return LPProblem.minimize(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])


@pytest.fixture
def unbounded_lp() -> LPProblem:
    """min -x with x - y <= 1, both nonnegative: x can grow with y."""
    return LPProblem.minimize(c=[-1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])


@pytest.fixture
def equality_lp() -> LPProblem:
    """min x + 2y s.t. x + y = 4, x - y <= 2 — optimum 5 at (3, 1)?"""
    return LPProblem.minimize(
        c=[1.0, 2.0],
        a_ub=[[1.0, -1.0]],
        b_ub=[2.0],
        a_eq=[[1.0, 1.0]],
        b_eq=[4.0],
    )


@pytest.fixture
def bounded_vars_lp() -> LPProblem:
    """A bounded LP exercising free, negative and range bounds."""
    return LPProblem.minimize(
        c=[1.0, 2.0, -1.0],
        a_ub=[[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0]],
        b_ub=[10.0, 8.0],
        a_eq=[[1.0, -1.0, 2.0]],
        b_eq=[3.0],
        bounds=[(-4.0, 4.0), (None, None), (-2.0, 5.0)],
    )


BOUNDED_VARS_OPTIMUM = -24.0


def badly_scaled(lp: LPProblem, seed: int) -> LPProblem:
    """``lp`` with rows and columns scaled by factors spread over six
    decades: A' = diag(r)·A·diag(k), b' = r∘b, c' = c∘k and bounds ÷ k, so
    x' = x ÷ k solves it with the same objective."""
    rng = np.random.default_rng(seed)
    m, n = lp.a.shape
    r = 10 ** rng.uniform(-3, 3, m)
    k = 10 ** rng.uniform(-3, 3, n)
    return dataclasses.replace(
        lp, a=r[:, None] * lp.a * k[None, :], b=r * lp.b, c=lp.c * k,
        bounds=Bounds(lp.bounds.lower / k, lp.bounds.upper / k),
    )


def scipy_oracle(lp: LPProblem) -> float | None:
    """Optimal objective via scipy HiGHS in the problem's orientation."""
    from repro.bench.harness import scipy_reference

    return scipy_reference(lp)


def assert_matches_oracle(lp: LPProblem, result, tol: float = 1e-5) -> None:
    """Assert an optimal result agrees with scipy and is primal feasible."""
    ref = scipy_oracle(lp)
    assert ref is not None, "oracle could not solve the instance"
    assert result.status.value == "optimal", result.status
    assert abs(result.objective - ref) <= tol * (1.0 + abs(ref)), (
        result.objective,
        ref,
    )
    assert result.x is not None
    assert lp.constraint_violation(result.x) <= 1e-5


# -- simplex multipliers of the explicit-inverse device backends ----------


def multiplier_drift(solver, lp: LPProblem, monkeypatch):
    """Solve ``lp`` with ``solver`` (``gpu-revised``, built with
    ``trace=True``, on a boxed LP or not) and measure, after
    every batch of pivots and bound flips, the device π against B⁻ᵀc_B
    solved exactly on the host.  The records of a batch are written after
    its readback, all at the same device clock, and only at the batch's
    last one has the host's basis caught up with the device.  Returns the
    result and the relative max-norm distances.  The device buffer is read
    from its backing store (uncharged)."""
    from repro.engine.hooks import SolveHooks
    from repro.simplex.common import phase1_costs, phase2_costs

    batch_ends: dict[float, tuple] = {}
    record = SolveHooks.record

    def check(hooks, **fields):
        if fields["event"] in ("pivot", "flip"):
            st = solver._st
            batch_ends[st.dev.clock] = (
                fields["phase"], st.basis.copy(), st.pi.data.copy()
            )
        record(hooks, **fields)

    monkeypatch.setattr(SolveHooks, "record", check)
    result = solver.solve(lp)
    prep = solver.prep
    drift: list[float] = []
    for phase, basis, pi in batch_ends.values():
        costs = phase1_costs if phase == 1 else phase2_costs
        want = np.linalg.solve(prep.basis_matrix(basis).T, costs(prep)[basis])
        scale = max(1.0, float(np.max(np.abs(want))))
        drift.append(float(np.max(np.abs(pi - want))) / scale)
    return result, drift


def optimal_multipliers(prep, basis: np.ndarray) -> np.ndarray:
    """The phase-2 π of an optimal ``basis``: dual feasible, so every
    column prices out against it."""
    from repro.simplex.common import phase2_costs

    return np.linalg.solve(prep.basis_matrix(basis).T, phase2_costs(prep)[basis])


def corrupt_multiplier_updates(monkeypatch, pi_bad: np.ndarray) -> list[bool]:
    """Failure injection: every π update leaves ``pi_bad`` in the device π
    (run the solve with ``fusion=False``, so the update's AXPY has executed
    when it is overwritten).  Returns a log with one entry per pricing
    pass, True where π was multiplied fresh."""
    from repro.simplex.basis import Multipliers

    update, refresh = Multipliers.update, Multipliers.refresh
    multiplied: list[bool] = []

    def corrupt(self):
        update(self)
        self.pi.data[:] = pi_bad

    def logged(self):
        multiplied.append(self.stale)
        return refresh(self)

    monkeypatch.setattr(Multipliers, "update", corrupt)
    monkeypatch.setattr(Multipliers, "refresh", logged)
    return multiplied


def pricing_gemv_launches(monkeypatch, run):
    """Call ``run()`` (a device solve) and count the GEMV-class launches
    (GEMV, GEMVᵀ, SpMV, fused or alone) each pricing section issues.
    Returns ``run()``'s result and the per-pass counts."""
    counts: list[int] = []
    sections: list[str] = []
    launch, timed_section = Device.launch, Device.timed_section

    def counting_launch(self, name, *args, **kw):
        heavy = "gemv" in name or "spmv" in name
        if sections[-1:] == ["pricing"] and self._capture is None and heavy:
            counts[-1] += 1
        return launch(self, name, *args, **kw)

    @contextlib.contextmanager
    def tracking_section(self, name):
        if name == "pricing":
            counts.append(0)
        sections.append(name)
        try:
            with timed_section(self, name):
                yield
        finally:
            sections.pop()

    monkeypatch.setattr(Device, "launch", counting_launch)
    monkeypatch.setattr(Device, "timed_section", tracking_section)
    return run(), counts
