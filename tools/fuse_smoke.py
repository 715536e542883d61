#!/usr/bin/env python
"""Smoke check for the launch-plan layer (``make fuse-smoke``).

Solves the same LPs with ``fusion`` explicitly off (the op-by-op ablation
baseline) and on (the default) across the GPU backends and asserts the
contracts the plan layer promises:

- **bit-identity**: in fp64 the fused solve returns exactly the same
  status, objective and solution vector (fused launches replay the captured
  kernel bodies in capture order, so this is byte-for-byte, not approximate);
- **fewer launches**: lowering actually fused something — the fused run's
  kernel-launch count is strictly below the unfused run's;
- **transfer budget**: every GPU backend places its data with exactly one
  host→device transfer at begin, and every pivot (or bound flip) of the
  GPU simplex methods issues no host→device transfer and exactly one
  device→host one (the iteration's pricing choice and ratio-test result as
  one struct), fused or not;
- **one launch per ratio test**: fused, every ratio test of the GPU
  simplex methods at m ≤ 2·DEFAULT_BLOCK = 512 rows is a single kernel
  launch (its reductions fit one thread block), checked on the cases below
  and on 512-row LPs; at 513 rows it is not;
- **split lines**: on a 128×128 dense LP the fused pricing launch (a line
  per column of A) and FTRAN's (a line per row of B⁻¹) carry 32·k
  threads per line with k = 4 warps, enough to fill the device.

A final check runs ``precision="mixed"`` (fp32 compute + fp64 iterative
refinement) and asserts the refined objective matches the all-fp64 solve to
near machine precision.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

from repro.engine.hooks import SolveHooks
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.lp.generators import random_dense_lp, random_sparse_lp
from repro.lp.standard_form import to_standard_form
from repro.perfmodel.presets import GTX280_PARAMS
from repro.solve import solve

#: Methods whose pivot loop the transfer budget covers
#: (``gpu-revised-sparse`` is a second name for ``gpu-revised``).
SIMPLEX_METHODS = (
    "gpu-revised", "gpu-revised-sparse", "gpu-tableau", "gpu-revised-bounded",
)


def traced_solve(lp, method, **kw):
    """Solve with iteration tracing on.  Returns the result, the device
    (timeline recorded) and, per trace record, its fields with the
    timeline length at the moment it was recorded; the first mark,
    ``{"event": "begin"}``, is taken when the backend arms its hooks at
    the end of its begin, and each basis rebuild adds a
    ``{"event": "refactor"}`` mark where it starts."""
    dev = Device(GTX280_PARAMS)
    dev.record_timeline()
    marks = []
    original_record, original_arm = SolveHooks.record, SolveHooks.arm
    original_span = SolveHooks.span

    def record(hooks, **fields):
        marks.append((fields, len(dev.timeline)))
        original_record(hooks, **fields)

    def arm(hooks, **kw):
        marks.append(({"event": "begin"}, len(dev.timeline)))
        original_arm(hooks, **kw)

    def span(hooks, name, **attrs):
        if name == "engine.refactor":
            marks.append(({"event": "refactor"}, len(dev.timeline)))
        return original_span(hooks, name, **attrs)

    SolveHooks.record, SolveHooks.arm, SolveHooks.span = record, arm, span
    try:
        result = solve(lp, method=method, device=dev, trace=True, **kw)
    finally:
        SolveHooks.record, SolveHooks.arm = original_record, original_arm
        SolveHooks.span = original_span
    return result, dev, marks


def begin_htod(dev, marks) -> int:
    """Host→device transfers a traced solve issued during its begin."""
    (end,) = [n for fields, n in marks if fields["event"] == "begin"]
    return sum(1 for ev in dev.timeline[:end] if ev.kind == "htod")


def pivot_windows(dev, marks) -> list[list[str]]:
    """Transfer directions of each iteration that runs from one pivot (or
    bound flip) record to the next within a phase; a basis refactorization
    mark between two records leaves their iteration out."""
    steps = ("pivot", "flip")
    windows = []
    for (prev, start), (cur, end) in zip(marks, marks[1:]):
        if prev["event"] not in steps or cur["event"] not in steps:
            continue
        if prev["phase"] != cur["phase"]:
            continue
        windows.append(
            [ev.kind for ev in dev.timeline[start:end] if ev.kind != "kernel"]
        )
    return windows


def ratio_test_launches(lp, method, **kw) -> list[int]:
    """Kernel launches of each ratio test (the device's ``ratio`` timed
    section) of one solve."""
    dev = Device(GTX280_PARAMS)
    dev.record_timeline()
    counts = []
    original = Device.timed_section

    @contextlib.contextmanager
    def timed_section(self, name):
        start = len(self.timeline)
        with original(self, name):
            yield
        if name == "ratio":
            counts.append(
                sum(1 for ev in self.timeline[start:] if ev.kind == "kernel")
            )

    Device.timed_section = timed_section
    try:
        solve(lp, method=method, device=dev, **kw)
    finally:
        Device.timed_section = original
    return counts


def run(lp, method, **kw):
    result, dev, marks = traced_solve(lp, method, **kw)
    launches = sum(1 for ev in dev.timeline if ev.kind == "kernel")
    assert begin_htod(dev, marks) == 1, (method, kw, "begin transfers")
    if method in SIMPLEX_METHODS:
        windows = pivot_windows(dev, marks)
        assert windows, (method, "no pivot iteration to check")
        bad = [w for w in windows if w != ["dtoh"]]
        assert not bad, (method, kw, "pivot transfers", bad[:3])
    return result, launches


def split_line_threads() -> None:
    """The line-walking GEMVs of ``gpu-revised`` at m = 128 run 4 warps
    per line."""
    lp = random_dense_lp(128, 128, seed=5)
    m, n_total = to_standard_form(lp).a.shape
    dev = Device(GTX280_PARAMS)
    dev.record_timeline()
    solve(lp, method="gpu-revised", device=dev, max_iterations=3)
    lines = {"fused[copy+gemv_t+mask_min+argmin]": n_total,
             "fused[load_col+gemv]": m}
    seen = {ev.name: ev.threads for ev in dev.timeline if ev.name in lines}
    assert seen.keys() == lines.keys(), seen
    for name, count in lines.items():
        assert seen[name] == count * 32 * 4, (name, seen[name], count)


def main() -> int:
    cases = [
        ("gpu-revised", random_dense_lp(32, 48, seed=5)),
        ("gpu-tableau", random_dense_lp(16, 24, seed=5)),
        ("gpu-revised", random_sparse_lp(48, 64, density=0.1, seed=6)),
        ("gpu-revised-bounded", random_dense_lp(24, 32, seed=5)),
        ("gpu-pdlp", random_sparse_lp(40, 60, density=0.1, seed=7)),
    ]
    deltas = []
    for method, lp in cases:
        r0, n0 = run(lp, method, dtype=np.float64, fusion=False)
        r1, n1 = run(lp, method, dtype=np.float64, fusion=True)
        assert r0.status == r1.status, (method, r0.status, r1.status)
        assert r0.objective == r1.objective, (method, r0.objective, r1.objective)
        assert np.array_equal(r0.x, r1.x), f"{method}: fused x drifted"
        assert n1 < n0, (method, n0, n1)
        deltas.append(f"{method} {n0}->{n1}")
        if method in SIMPLEX_METHODS:
            counts = ratio_test_launches(lp, method, dtype=np.float64)
            assert counts and set(counts) == {1}, (method, counts)

    # the block-size boundary: a few iterations on LPs of 512 and 513 rows
    one_block = 2 * DEFAULT_BLOCK
    for method in SIMPLEX_METHODS:
        for m, single in ((one_block, True), (one_block + 1, False)):
            counts = ratio_test_launches(
                random_dense_lp(m, m, seed=5), method, max_iterations=2
            )
            assert counts and (set(counts) == {1}) == single, (method, m, counts)

    split_line_threads()

    lp = random_dense_lp(32, 48, seed=5)
    r64, _ = run(lp, "gpu-revised", dtype=np.float64)
    rmx, _ = run(lp, "gpu-revised", precision="mixed")
    err = abs(rmx.objective - r64.objective) / max(1.0, abs(r64.objective))
    assert err < 1e-8, err

    print("fuse-smoke ok:", ", ".join(deltas), "| mixed relerr %.2e" % err,
          "| 1 HtoD at begin | 0 HtoD + 1 DtoH per pivot | 1 launch per ratio test at m <=",
          one_block, "| 4 warps per line at m = 128")
    return 0


if __name__ == "__main__":
    sys.exit(main())
