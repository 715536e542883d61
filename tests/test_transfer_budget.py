"""PCIe transfer budget of the GPU simplex pivot loop.

The four GPU simplex backends keep their pivot bookkeeping on the device:
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

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from fuse_smoke import SIMPLEX_METHODS as METHODS  # noqa: E402
from fuse_smoke import pivot_windows, traced_solve  # noqa: E402
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
LAUNCHES = {
    ("gpu-revised", False): 732,
    ("gpu-revised", True): 260,
    ("gpu-revised-sparse", False): 587,
    ("gpu-revised-sparse", True): 266,
    ("gpu-tableau", False): 561,
    ("gpu-tableau", True): 220,
    ("gpu-revised-bounded", False): 720,
    ("gpu-revised-bounded", True): 266,
}

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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_launches_pinned(method, fusion, dtype):
    runs = _all(method, fusion, dtype)
    launches = sum(dev.stats.kernel_launches for _, _, dev, _ in runs)
    flips = sum(r.extra.get("bound_flips", 0) for _, r, _, _ in runs)
    tie_pass = 0 if fusion else 2
    assert launches == LAUNCHES[method, fusion] + flips * tie_pass


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
