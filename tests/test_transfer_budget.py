"""PCIe transfer budget of the GPU simplex pivot loop.

The three GPU simplex backends keep their pivot bookkeeping on the device:
pricing leaves (q, d_q) in a device buffer that the column load reads,
the ratio map's arg-min stays in another, the ratio test leaves the
iteration's decision in a slot of a device-resident ring, and the update
launches read it there and form the basis swap's stores themselves.  So
the host issues a batch of iterations without waiting, and reads the
batch's slots back with one transfer: every batch of pivots (and bound
flips) issues no host→device transfer and exactly one device→host one.
This suite checks that budget batch by batch over the golden problems,
pins the solves' kernel-launch counts, and holds the results
bit-identical to the golden fixture, with fusion off and on, in fp64 and
fp32.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import numpy as np
import pytest

from repro.solve import solve

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from fuse_smoke import SIMPLEX_METHODS as METHODS  # noqa: E402
from fuse_smoke import begin_htod, pivot_batches, traced_solve  # noqa: E402
from gen_golden import FIXTURE, suite  # noqa: E402

DTYPES = ("float64", "float32")

#: Kernel launches over the whole golden suite, per (method, fusion), the
#: same in fp64 and fp32.  Its six well-scaled problems (41 iterations, 7
#: of them ending a phase optimal) are derived below; golden-hostile, the
#: problem ``solve()`` scales, adds its 25 iterations' launches on top.
#: Against the loop that read every iteration back they move
#: because the host now issues iterations in batches (1, 2, 4, then 8 per
#: readback in each phase) and learns of a verdict only at the batch's
#: readback:
#:
#: - the launches that do work are the same launches as before, one for
#:   one: 200 fused and 660 op by op on gpu-revised (654 plus the
#:   tie-break pass of each of golden-boxed's 3 bound flips; 672 when
#:   golden-boxed's bounds were written as rows), 172 and 513 on
#:   gpu-tableau;
#: - a verdict halts its batch, and every launch after it is still issued
#:   and charged as an empty launch: the verdict's own update launch (1
#:   fused; 5 op by op, 6 on the tableau) and each iteration the batch
#:   issued after it (4 fused; 13 op by op, 12 on the tableau).  Over the
#:   suite the 29 batches issue 68 iterations on gpu-revised and the 22
#:   batches 61 on the tableau, against 48 iterations run (41 plus 7
#:   redone with a fresh π): +94 fused and +370 op by op on gpu-revised,
#:   +87 and +302 on the tableau;
#: - a bound flip is decided on the device, so it issues a pivot's
#:   launches, and those past the β update (η, pivot row, π AXPY and GER)
#:   do nothing: golden-boxed's 3 flips add 12 op-by-op launches (fused,
#:   the update was one launch either way).
#:
#: So gpu-revised 660 → 1042 and 200 → 294, gpu-tableau 513 → 815 and
#: 172 → 259.  With golden-boxed's bounds as rows gpu-revised issued 672
#: working launches and no flips, the same 1042 in all.  golden-hostile
#: adds 489 op by op and 137 fused on gpu-revised, 398 and 126 on
#: gpu-tableau.
#:
#: ``gpu-revised-sparse`` is a second name for ``gpu-revised``, so it
#: launches what ``gpu-revised`` launches: ``RUNS_AS`` maps it there.
LAUNCHES = {
    ("gpu-revised", False): 1042 + 489,
    ("gpu-revised", True): 294 + 137,
    ("gpu-tableau", False): 815 + 398,
    ("gpu-tableau", True): 259 + 126,
}
RUNS_AS = {"gpu-revised-sparse": "gpu-revised"}

with open(FIXTURE) as fh:
    _GOLDEN = json.load(fh)["problems"]


@functools.lru_cache(maxsize=None)
def _solve(problem_index: int, method: str, fusion: bool, dtype: str):
    lp = suite()[problem_index]
    result, dev, marks = traced_solve(
        lp, method, dtype=np.dtype(dtype), fusion=fusion
    )
    return lp, result, dev, marks


def _all(method, fusion, dtype):
    return [_solve(i, method, fusion, dtype) for i in range(len(suite()))]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_pivot_issues_no_htod_and_two_dtoh(method, fusion, dtype):
    """Named for the two-readback budget it first pinned; the budget it
    checks is now no HtoD and one DtoH per batch of pivots."""
    batches = [
        batch
        for _, _, dev, marks in _all(method, fusion, dtype)
        for batch in pivot_batches(dev, marks)
    ]
    assert sum(len(records) for _, records in batches) >= 10
    windows = [[ev.kind for ev in events if ev.kind != "kernel"]
               for events, _ in batches]
    assert all(w == ["dtoh"] for w in windows), windows


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_begin_issues_one_htod(method, fusion):
    for _, _, dev, marks in _all(method, fusion, "float64"):
        assert begin_htod(dev, marks) == 1


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_launches_pinned(method, fusion, dtype):
    runs = _all(method, fusion, dtype)
    launches = sum(dev.stats.kernel_launches for _, _, dev, _ in runs)
    assert launches == LAUNCHES[RUNS_AS.get(method, method), fusion]


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_fp64_results_match_golden_fixture(method, fusion):
    for lp, result, _, _ in _all(method, fusion, "float64"):
        cell = _GOLDEN[lp.name][method]
        assert result.status.value == cell["status"]
        assert float(result.objective).hex() == cell["objective"]
        pivots = [
            [rec.phase, rec.iteration, rec.event, rec.entering, rec.leaving_row]
            for rec in result.trace
        ]
        assert pivots == cell["pivots"]


@pytest.mark.parametrize("method", METHODS)
def test_fp32_fused_matches_unfused(method):
    for plain, fused in zip(_all(method, False, "float32"),
                            _all(method, True, "float32")):
        assert plain[1].status == fused[1].status
        assert plain[1].objective == fused[1].objective
        assert np.array_equal(plain[1].x, fused[1].x)


# -- host→device copies outside the pivot loop ---------------------------

#: Every device method.
DEVICE_METHODS = (*METHODS, "gpu-pdlp")


def _htod(dev) -> int:
    return sum(1 for ev in dev.timeline if ev.kind == "htod")


@pytest.fixture
def upload_calls(monkeypatch):
    """HtoD copies issued by each device solve's begin, and by each call
    of a phase cost load or a rebuild's install."""
    from repro.core.gpu_revised_simplex import DevicePlacement, GpuRevisedSimplex
    from repro.core.gpu_tableau_simplex import DeviceTableau, GpuTableauSimplex
    from repro.firstorder.pdlp import GpuPdlpSolver

    calls = {"begin": [], "load_costs": [], "install": []}
    spied = [
        (GpuRevisedSimplex, "begin"), (GpuTableauSimplex, "begin"),
        (GpuPdlpSolver, "begin"), (DevicePlacement, "load_costs"),
        (DevicePlacement, "install"), (DeviceTableau, "load_costs"),
    ]
    for cls, name in spied:
        original = getattr(cls, name)

        def spy(self, *args, _original=original, _name=name, **kw):
            before = _htod(self.dev) if _name != "begin" else 0
            out = _original(self, *args, **kw)
            calls[_name].append(_htod(self.dev) - before)
            return out

        monkeypatch.setattr(cls, name, spy)
    return calls


def _budget(calls, lp, method, **kw):
    """Solve; returns the result and its HtoD copies: at begin, per cost
    load, per rebuild, and in all."""
    from repro.gpu.device import Device

    for seen in calls.values():
        seen.clear()
    dev = Device()
    dev.record_timeline()
    result = solve(lp, method=method, device=dev, **kw)
    (begin,) = calls["begin"]
    return result, begin, list(calls["load_costs"]), list(calls["install"]), _htod(dev)


def _check(result, begin, loads, installs, total):
    assert begin == 1
    assert all(n == 1 for n in loads + installs), (loads, installs)
    steps = result.extra.get("refinement_steps", 0)
    assert total == begin + len(loads) + len(installs) + steps


@pytest.mark.parametrize("method", DEVICE_METHODS)
def test_one_htod_at_begin_and_per_cost_load(upload_calls, method):
    """Cold solves of the golden suite: the begin is one copy, and so is
    each phase's cost load (PDLP has none) and each rebuild."""
    for lp in suite():
        result, *budget = _budget(upload_calls, lp, method)
        _check(result, *budget)
        assert budget[1] or method == "gpu-pdlp"


@pytest.mark.parametrize("method", ["gpu-revised", "gpu-revised-sparse"])
def test_one_htod_at_begin_warm(upload_calls, method):
    """A warm start's basis, its B⁻¹ and β travel in the begin's one copy
    with the data, dense or CSC."""
    from test_sparse_solver import as_csc

    from repro.lp.generators import random_dense_lp

    dense = random_dense_lp(20, 30, seed=5)
    for lp in (dense, as_csc(dense)):
        cold, *_ = _budget(upload_calls, lp, method)
        result, *budget = _budget(
            upload_calls, lp, method, initial_basis=cold.extra["basis"]
        )
        assert result.iterations.refactorizations >= 1  # the hint was adopted
        assert result.iterations.total_iterations <= 1
        _check(result, *budget)


@pytest.mark.parametrize("method", ["gpu-revised", "gpu-revised-sparse"])
def test_one_htod_per_rebuild(upload_calls, method):
    """Each rebuild uploads B⁻¹, plus b_eff when boxed, as one copy, with
    A dense or CSC."""
    from gen_golden import boxed_lp
    from test_sparse_solver import as_csc

    from repro.lp.generators import random_dense_lp

    dense = random_dense_lp(20, 30, seed=5)
    for lp in (dense, as_csc(dense), boxed_lp()):
        result, *budget = _budget(upload_calls, lp, method, refactor_period=3)
        assert result.is_optimal
        assert budget[2], "no rebuild to check"
        _check(result, *budget)


def test_one_htod_per_refinement_step(upload_calls):
    from repro.lp.generators import random_dense_lp

    result, *budget = _budget(
        upload_calls, random_dense_lp(32, 48, seed=5), "gpu-revised",
        precision="mixed",
    )
    assert result.extra["refinement_steps"] >= 1
    _check(result, *budget)
