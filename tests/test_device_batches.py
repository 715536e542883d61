"""The device loop's batches: several iterations per host sync.

A GPU simplex placement issues a batch of iterations without waiting for
any of them: each ratio test leaves its decision in a slot of a
device-resident ring, the update launches read it there, and the host
reads the batch's slots back once and replays them.  These tests hold the
batches to what the loop that read every iteration back did: the same
kernels per iteration, the same pivots, stall-switch decisions, rebuilds
and trace records, and a verdict that halts the rest of its batch.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

from repro.core.gpu_revised_simplex import DevicePlacement
from repro.core.gpu_tableau_simplex import DeviceTableau
from repro.gpu.device import Device
from repro.lp.generators import beale_cycling_lp, degenerate_lp, random_dense_lp
from repro.lp.problem import Bounds
from repro.simplex.revised import MAX_BATCH
from repro.solve import solve
from repro.status import SolveStatus

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from fuse_smoke import SIMPLEX_METHODS as METHODS  # noqa: E402
from fuse_smoke import pivot_batches, traced_solve  # noqa: E402
from gen_golden import suite  # noqa: E402


def one_at_a_time(monkeypatch) -> None:
    """From here on every device placement reads each iteration back
    before it issues the next: the loop without batches."""
    for cls in (DevicePlacement, DeviceTableau):
        monkeypatch.setattr(cls, "max_batch", 1)


def _pivots(result) -> list:
    return [(rec.phase, rec.iteration, rec.event, rec.entering,
             rec.leaving_row) for rec in result.trace]


def _fields(result) -> list[dict]:
    """Every field of every trace record but the modeled-time ones."""
    timing = ("t_start", "t_end", "sections")
    return [{k: v for k, v in vars(rec).items() if k not in timing}
            for rec in result.trace]


@pytest.mark.parametrize("fusion", [False, True])
@pytest.mark.parametrize("method", METHODS)
def test_kernels_between_syncs_repeat_one_iteration(method, fusion):
    """Between two device→host syncs the device runs K copies of one
    iteration's launches, whatever each decided (pivot or bound flip):
    the host launches nothing that depends on a result it has not read."""
    sizes = []
    for lp in suite():
        _, dev, marks = traced_solve(lp, method, fusion=fusion)
        for events, records in pivot_batches(dev, marks):
            assert events[-1].kind == "dtoh"
            names = [ev.name for ev in events[:-1]]
            assert all(ev.kind == "kernel" for ev in events[:-1])
            # one iteration's launches: up to where the first one recurs
            period = (names + names[:1]).index(names[0], 1)
            k = len(names) // period
            assert names == names[:period] * k
            assert k >= len(records)
            sizes.append(k)
    assert max(sizes) > 1


@pytest.mark.parametrize("method", METHODS)
def test_batches_match_the_loop_one_at_a_time(method, monkeypatch):
    """Status, objective bits, iterations and every trace record field
    (``ratio_ties`` included) equal those of the loop without batches; the
    modeled time is lower only by the readbacks saved and higher only by
    the halted launches."""
    batched = [solve(lp, method=method, trace=True) for lp in suite()]
    one_at_a_time(monkeypatch)
    single = [solve(lp, method=method, trace=True) for lp in suite()]
    for b, s in zip(batched, single):
        assert b.status is s.status
        assert float(b.objective).hex() == float(s.objective).hex()
        assert b.iterations == s.iterations
        assert _fields(b) == _fields(s)
        assert b.extra.get("bound_flips") == s.extra.get("bound_flips")
    assert all(rec.ratio_ties >= 1 for r in batched for rec in r.trace
               if rec.event == "pivot")


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_stall_switch_matches_the_host(method, window):
    """Beale's cycling LP stalls Dantzig at once: the batches end where
    the hybrid switch may change its rule, so the device takes the host's
    pivots, Bland activations and ``hybrid:`` labels."""
    lp = beale_cycling_lp()
    kw = dict(pricing="hybrid", stall_window=window, trace=True)
    ref = solve(lp, method="revised", **kw)
    got = solve(lp, method=method, **kw)
    assert got.status is ref.status is SolveStatus.OPTIMAL
    assert _pivots(got) == _pivots(ref)
    assert (got.iterations.bland_activations
            == ref.iterations.bland_activations >= 1)
    labels = [rec.pricing_rule for rec in got.trace]
    assert labels == [rec.pricing_rule for rec in ref.trace]
    assert {"hybrid:dantzig", "hybrid:bland"} <= set(labels)


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("method", METHODS)
def test_stall_switch_changes_where_the_loop_one_at_a_time_does(
        method, window, monkeypatch):
    """On a degenerate LP whose switch changes mid-run, a batch ends where
    the switch may change, so the rule in effect at each pricing is the
    one the loop without batches uses."""
    lp = degenerate_lp(20, 28, seed=2)
    kw = dict(pricing="hybrid", stall_window=window, trace=True)
    batched = solve(lp, method=method, **kw)
    one_at_a_time(monkeypatch)
    single = solve(lp, method=method, **kw)
    assert batched.iterations == single.iterations
    assert _fields(batched) == _fields(single)
    assert batched.iterations.bland_activations >= 1


@pytest.mark.parametrize("upper", [
    pytest.param(None, id="gpu-revised"),
    # boxed: rebuilds upload b_eff, and flips count no basis update
    pytest.param(3.0, id="gpu-revised-boxed"),
])
def test_rebuilds_where_the_loop_one_at_a_time_does(upper, monkeypatch):
    """A batch ends at the basis update that reaches ``refactor_period``."""
    lp = random_dense_lp(20, 30, seed=5)
    if upper is not None:
        lp = dataclasses.replace(lp, bounds=Bounds(np.zeros(30), np.full(30, upper)))
    batched = solve(lp, method="gpu-revised", refactor_period=3, trace=True)
    one_at_a_time(monkeypatch)
    single = solve(lp, method="gpu-revised", refactor_period=3, trace=True)
    assert batched.iterations.refactorizations >= 3
    assert batched.iterations == single.iterations
    assert _fields(batched) == _fields(single)


@pytest.mark.parametrize("method", METHODS)
def test_iteration_cap_is_exact(method):
    result = solve(random_dense_lp(24, 32, seed=1), method=method,
                   max_iterations=6)
    assert result.status is SolveStatus.ITERATION_LIMIT
    assert result.iterations.total_iterations == 6


@pytest.mark.parametrize("method", METHODS)
def test_a_verdict_halts_its_batch(method):
    """The launches a batch issued after its verdict run as empty
    launches: charged the launch overhead and the status word's read,
    with no arithmetic."""
    dev = Device()
    dev.record_timeline()
    result = solve(random_dense_lp(16, 24, seed=0), method=method,
                   device=dev)
    assert result.is_optimal
    halted = [ev for ev in dev.timeline
              if ev.kind == "kernel" and ev.cost.flops == 0
              and ev.cost.bytes_total == dev.params.transaction_bytes]
    assert halted
    for ev in halted:
        assert ev.seconds >= dev.params.launch_overhead
        assert ev.seconds < 1.01 * dev.params.launch_overhead


def test_batch_sizes_double_from_one(monkeypatch):
    """Each phase issues 1, 2, 4, then MAX_BATCH iterations per readback."""
    issued = []
    iterate = DevicePlacement.iterate

    def spy(self, rule, k):
        issued.append(k)
        return iterate(self, rule, k)

    monkeypatch.setattr(DevicePlacement, "iterate", spy)
    result = solve(random_dense_lp(48, 64, seed=4), method="gpu-revised")
    assert result.iterations.total_iterations > 1 + 2 + 4 + MAX_BATCH
    assert issued[:5] == [1, 2, 4, MAX_BATCH, MAX_BATCH]
    assert max(issued) == MAX_BATCH == 8
    readbacks = sum(1 for _ in issued)
    assert readbacks < result.iterations.total_iterations / 2
    assert np.isfinite(result.objective)
