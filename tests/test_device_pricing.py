"""Device-resident pricing choice and the fused-by-default lowering.

The GPU simplex backends leave pricing's (q, d_q) on the device —
``NO_INDEX`` when no column prices in — and launch the column load, FTRAN
and the ratio test on it before the host reads the iteration's one struct
back.  These tests drive that path end to end: optimality detection
(checked before unboundedness, since an optimal iteration's null column
has θ = ∞), unboundedness, Bland and hybrid pricing through the
first-below reduction, and the column-load kernel's artificial e_i and
CSC cases.  They also check fused lowering is what ``solve`` does by
default, and that ``fusion=False`` returns bit-identical fp64 results.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.core import gpu_kernels as K
from repro.engine.registry import device_methods
from repro.gpu.device import Device
from repro.gpu.reduce import NO_INDEX
from repro.gpu.sparse_kernels import DeviceCscMatrix
from repro.lp.generators import beale_cycling_lp, random_sparse_lp
from repro.lp.problem import LPProblem
from repro.perfmodel.presets import GTX280_PARAMS
from repro.solve import solve
from repro.sparse.csc import CscMatrix
from repro.status import SolveStatus

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from fuse_smoke import SIMPLEX_METHODS, pivot_windows, traced_solve  # noqa: E402


def _events(result):
    return [(rec.event, rec.entering) for rec in result.trace]


# ---------------------------------------------------------------------------
# fused lowering is the default
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", sorted(device_methods()))
def test_default_solve_is_fused(method):
    lp = random_sparse_lp(20, 30, density=0.2, seed=4)
    default = solve(lp, method=method)
    fused = solve(lp, method=method, fusion=True)
    assert default.status == fused.status
    assert default.objective == fused.objective
    assert np.array_equal(default.x, fused.x)
    assert default.timing.modeled_seconds == fused.timing.modeled_seconds
    assert default.extra["kernel_launches"] == fused.extra["kernel_launches"]
    assert default.extra["fused_launches"] > 0


@pytest.mark.parametrize("method", sorted(device_methods()))
def test_unfused_is_bit_identical_fp64(method):
    lp = random_sparse_lp(20, 30, density=0.2, seed=4)
    fused = solve(lp, method=method, dtype=np.float64)
    plain = solve(lp, method=method, dtype=np.float64, fusion=False)
    assert plain.status == fused.status
    assert plain.objective == fused.objective
    assert np.array_equal(plain.x, fused.x)
    assert (
        plain.iterations.total_iterations == fused.iterations.total_iterations
    )
    assert "fused_launches" not in plain.extra
    assert plain.extra["kernel_launches"] > fused.extra["kernel_launches"]
    assert plain.timing.modeled_seconds > fused.timing.modeled_seconds


# ---------------------------------------------------------------------------
# NO_INDEX: optimality and unboundedness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", SIMPLEX_METHODS)
def test_optimal_start_detected_on_the_device(method, fusion):
    # c >= 0 on a feasible slack basis: no column prices in at iteration 1.
    # The null column of that iteration has θ = ∞, so a host that tested
    # unboundedness first would report UNBOUNDED.
    lp = LPProblem.minimize(
        c=[1.0, 2.0, 0.5], a_ub=[[1.0, 1.0, 1.0], [1.0, -1.0, 2.0]],
        b_ub=[4.0, 3.0],
    )
    result, dev, _ = traced_solve(lp, method, fusion=fusion)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 0.0
    assert [rec.event for rec in result.trace] == ["optimal"]
    # the column load, FTRAN and ratio test of that iteration stay charged
    assert any("load_col" in name for name in dev.stats.by_kernel)


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", SIMPLEX_METHODS)
def test_unbounded_detected_after_the_choice(method, fusion, unbounded_lp):
    # once x is basic, y prices in and no row blocks it: θ = ∞ with a real q
    result, _, _ = traced_solve(unbounded_lp, method, fusion=fusion)
    assert result.status is SolveStatus.UNBOUNDED
    assert _events(result)[-1] == ("unbounded", 1)


# ---------------------------------------------------------------------------
# Bland and hybrid pricing through the first-below reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", SIMPLEX_METHODS)
def test_bland_on_a_cycling_lp(method, fusion):
    lp = beale_cycling_lp()
    ref = solve(lp, method="revised", pricing="bland")
    result, dev, marks = traced_solve(
        lp, method, pricing="bland", fusion=fusion
    )
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(ref.objective, abs=1e-12)
    # Bland's reduction ran on the device and sent nothing back itself
    assert any("first_below" in name for name in dev.stats.by_kernel)
    windows = pivot_windows(dev, marks)
    assert windows and all(w == ["dtoh"] for w in windows)


@pytest.mark.parametrize("method", SIMPLEX_METHODS)
def test_hybrid_switches_between_device_reductions(method):
    lp = beale_cycling_lp()  # degenerate steps stall Dantzig at once
    ref = solve(lp, method="revised", pricing="bland")
    result, dev, marks = traced_solve(
        lp, method, pricing="hybrid", stall_window=1, fusion=False
    )
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(ref.objective, rel=1e-9)
    assert result.iterations.bland_activations >= 1
    names = set(dev.stats.by_kernel)
    assert {"reduce.first_below", "reduce.argmin"} <= names
    assert all(w == ["dtoh"] for w in pivot_windows(dev, marks))


# ---------------------------------------------------------------------------
# the column-load kernel
# ---------------------------------------------------------------------------


@pytest.fixture
def device():
    return Device(GTX280_PARAMS)


def _load(device, q, *, csc=False):
    a = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
    choice = device.to_device(np.array([float(q), -1.0]))
    out = device.to_device(np.full(3, 9.0))
    if csc:
        host = CscMatrix.from_dense(a)
        region = device.place(DeviceCscMatrix.arrays(host, np.float64))
        source = {"csc": DeviceCscMatrix(host, region)}
    else:
        source = {"dense": device.to_device(a)}
    K.load_entering_column(device, choice, out, n_real=3, **source)
    return a, out.copy_to_host()


@pytest.mark.parametrize("csc", [False, True])
def test_column_load_real_column(device, csc):
    a, col = _load(device, 2, csc=csc)
    assert np.array_equal(col, a[:, 2])


@pytest.mark.parametrize("csc", [False, True])
def test_column_load_artificial_entering_column(device, csc):
    # q >= n_real names the artificial of row q - n_real: e_i
    _, col = _load(device, 3 + 1, csc=csc)
    assert np.array_equal(col, [0.0, 1.0, 0.0])


@pytest.mark.parametrize("csc", [False, True])
def test_column_load_no_index_writes_zeros(device, csc):
    _, col = _load(device, NO_INDEX, csc=csc)
    assert np.array_equal(col, np.zeros(3))


def test_column_load_cost_sized_for_widest_column(device):
    a = np.zeros((6, 3))
    a[:, 1] = 1.0  # the widest column: 6 nonzeros
    a[0, 0] = a[0, 2] = 1.0
    host = CscMatrix.from_dense(a)
    csc = DeviceCscMatrix(host, device.place(DeviceCscMatrix.arrays(host, np.float64)))
    assert csc.max_col_nnz == 6
    out = device.zeros(6, np.float64)
    choice = device.to_device(np.array([0.0, -1.0]))
    K.load_entering_column(device, choice, out, n_real=3, csc=csc)
    first = device.stats.by_kernel["kernel.load_col"].bytes
    choice2 = device.to_device(np.array([1.0, -1.0]))
    K.load_entering_column(device, choice2, out, n_real=3, csc=csc)
    # the host does not know q at launch: every load costs the same
    assert device.stats.by_kernel["kernel.load_col"].bytes == 2 * first
