"""PCIe transfer budget of the GPU simplex pivot loop.

The three GPU simplex backends keep their pivot bookkeeping on the device:
the basis swap's stores ride on the update launch, pricing leaves (q, d_q)
in a device buffer that the column load reads, the ratio map's arg-min
stays in another, and everything the host needs of an iteration comes back
as one struct.  So every pivot (and every bound flip) issues no
host→device transfer and exactly one device→host one.  This suite checks
that budget iteration by iteration over the golden problems, pins the
solves' kernel-launch counts, and holds the results bit-identical to the
golden fixture, with fusion off and on, in fp64 and fp32.
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
from fuse_smoke import begin_htod, pivot_windows, traced_solve  # noqa: E402
from gen_golden import FIXTURE, suite  # noqa: E402

DTYPES = ("float64", "float32")

#: Kernel launches over the whole golden suite (41 iterations, 7 of them
#: ending a phase optimal), per (method, fusion), the same in fp64 and
#: fp32, not counting the bounded backend's tie-break pass per bound flip
#: (its kernel and one tree pass op by op; fused, it joins the ratio test's
#: launch).  Against the
#: two-readback loop (the host read the pricing result before launching
#: FTRAN) they move because:
#:
#: - the last iteration of each phase now runs its column load, FTRAN and
#:   ratio test before the host learns q is NO_INDEX: +6 launches per phase
#:   end op-by-op (+5 on the tableau, which has no FTRAN GEMV), +3 fused;
#: - d = c − Aᵀπ on sparse A is a copy and one SpMVᵀ(β=1): the axpy is
#:   gone (−1 per pricing op-by-op), and the copy fuses into the SpMV
#:   (−1 per pricing fused) — golden-sparse on the dense backends, every
#:   problem on gpu-revised-sparse;
#: - a CSC column load is one kernel instead of a fill and a scatter
#:   (−1 per pivot op-by-op; fused they already were one launch).
#:
#: So gpu-revised 630 → 655 and 295 → 307, gpu-revised-sparse 620 → 587
#: and 327 → 307, gpu-tableau 526 → 561 and 240 → 261, gpu-revised-bounded
#: 621 → 646 and 298 → 310.
#:
#: The explicit-inverse backends then stopped multiplying π = B⁻ᵀc_B every
#: iteration and update it from the pivot row instead:
#:
#: - each of the 34 pricing passes that follow a pivot or bound flip drops
#:   the standalone π GEMVᵀ (−1), and each of the 31 (gpu-revised-bounded)
#:   or 34 (gpu-revised) pivots gains the π AXPY (+1 op-by-op; fused it
#:   joins the update launch);
#: - each of the 7 phase ends is verified with a fresh π, one redone
#:   iteration: +11 launches op-by-op, +5 fused.
#:
#: So gpu-revised 655 → 732 and 307 → 308, gpu-revised-bounded 646 → 720
#: and 310 → 311.
#:
#: Fused, a ratio test over m ≤ 2·DEFAULT_BLOCK rows is then one launch
#: instead of two: the map's arg-min fits one thread block, so the
#: tie-break kernel and its arg-min follow it behind a block barrier.
#: That is one launch fewer per ratio test: 41, plus the 7 redone
#: iterations on the explicit-inverse backends.  A bound flip's tie-break
#: pass is part of its ratio test's one launch, so it no longer adds a
#: fused launch.  So gpu-revised 308 → 260, gpu-revised-sparse 307 → 266,
#: gpu-tableau 261 → 220 and gpu-revised-bounded 311 + 3 flips → 266.
#: Op-by-op counts do not change.
#:
#: The start-up then stopped zero-filling buffers that are written before
#: they are read.  Each zero-fill was a memset, which the device charges
#: and counts as a kernel launch, so every solve drops 10 launches on
#: gpu-revised (π, d, the two scratch vectors, the basis keys, a_q, α, the
#: ratios, η and the pivot-row buffer), 11 on gpu-revised-bounded (also
#: to_upper), and 8 on gpu-revised-sparse (no η or row buffer) and on
#: gpu-tableau (d, the work vector, α, the ratios, the tie and basis keys
#: and the two row buffers).  Over the 6 golden solves that is −60, −66,
#: −48 and −48, fused or not.  So gpu-revised 732 → 672 and 260 → 200,
#: gpu-revised-sparse 587 → 539 and 266 → 218, gpu-tableau 561 → 513 and
#: 220 → 172, gpu-revised-bounded 720 → 654 and 266 → 200.  The drive-out
#: of gpu-revised-sparse now writes e_p with a unit_vector launch instead
#: of uploading it, but no golden solve leaves a basic artificial for the
#: drive-out to remove, so that adds nothing here.
#:
#: ``gpu-revised-sparse`` is a second name for ``gpu-revised``, so it
#: launches what ``gpu-revised`` launches: ``RUNS_AS`` maps it there.
LAUNCHES = {
    ("gpu-revised", False): 672,
    ("gpu-revised", True): 200,
    ("gpu-tableau", False): 513,
    ("gpu-tableau", True): 172,
    ("gpu-revised-bounded", False): 654,
    ("gpu-revised-bounded", True): 200,
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
    checks is now one DtoH per pivot and no HtoD."""
    windows = [
        w
        for _, _, dev, marks in _all(method, fusion, dtype)
        for w in pivot_windows(dev, marks)
    ]
    assert len(windows) >= 10
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
    flips = sum(r.extra.get("bound_flips", 0) for _, r, _, _ in runs)
    tie_pass = 0 if fusion else 2
    pinned = LAUNCHES[RUNS_AS.get(method, method), fusion]
    assert launches == pinned + flips * tie_pass


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


@pytest.mark.parametrize("method", ["gpu-revised", "gpu-revised-bounded",
                                    "gpu-revised-sparse"])
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
