"""Cross-machine parity of the one primal simplex loop.

The host and device placements run the same iteration schedule (the
tableau pair too, each on its own T = B⁻¹A), so at fp64 a host method
and its device twin must take the same pivots: the same ``(event,
entering, leaving_row)`` sequence, the same status and the same
objective to 1e-9 relative.  The sparse pair, ``revised-sparse`` and
``gpu-revised`` on each problem's CSC form, prices differently by design
(partial pricing on the host, one full SpMVᵀ on the device), so it agrees
on status and objective only.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.lp.generators import (
    beale_cycling_lp,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.solve import solve

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from gen_golden import suite  # noqa: E402
from test_sparse_solver import as_csc  # noqa: E402

PROBLEMS = {
    **{p.name: p for p in suite()},
    "beale": beale_cycling_lp(),
    "transportation-4x5": transportation_lp(4, 5, seed=1),
    "dense-64x96": random_dense_lp(64, 96, seed=0),
    "sparse-120x180": random_sparse_lp(120, 180, 0.03, seed=1),
}

PAIRS = [
    ("revised", "gpu-revised"),
    ("revised-bounded", "gpu-revised-bounded"),
    ("tableau", "gpu-tableau"),
]


def _run(problem, method):
    r = solve(problem, method=method, dtype=np.float64, trace=True)
    pivots = [(rec.phase, rec.event, rec.entering, rec.leaving_row) for rec in r.trace]
    return r, pivots


def _same_objective(host, device):
    assert device.status is host.status
    if host.status.value == "optimal":
        assert device.objective == pytest.approx(host.objective, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p[0])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_host_and_device_take_the_same_pivots(name, pair):
    host, host_pivots = _run(PROBLEMS[name], pair[0])
    device, device_pivots = _run(PROBLEMS[name], pair[1])
    assert device_pivots == host_pivots
    _same_objective(host, device)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_sparse_pair_agrees_on_the_outcome(name):
    problem = as_csc(PROBLEMS[name])
    host = solve(problem, method="revised-sparse", dtype=np.float64)
    device = solve(problem, method="gpu-revised", dtype=np.float64)
    assert any("spmv_csc_t" in k for k in device.extra["by_kernel"])
    _same_objective(host, device)
