"""Cross-solver result-shape property: every method populates the same
:class:`~repro.result.SolveResult` surface.

The engine lifecycle assembles every result in one place, so an OPTIMAL
solve must expose the same fields regardless of method: solution vector,
objective, residuals, iteration stats, modeled timing, basis handles and a
trace when tracing is on.  A backend that forgets to participate in a
lifecycle step (``extract``, ``timing``, ``standard_extras``) shows up here
as a field-population mismatch against its siblings.  The first-order
(PDHG) methods are the one sanctioned difference: they have no basis, so
their expected shape drops ``extra.basis`` and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import solve
from repro.engine.registry import device_methods
from repro.lp.generators import random_dense_lp
from repro.solve import available_methods
from repro.status import SolveStatus
from repro.trace import PIVOT_EVENTS


@pytest.fixture(scope="module")
def results():
    lp = random_dense_lp(8, 12, seed=3, name="shape-probe")
    return {
        method: solve(lp, method=method, trace=True)
        for method in available_methods()
    }


def _populated_fields(result) -> frozenset:
    """The shape signature: which core fields a result actually populates."""
    fields = set()
    if result.x is not None:
        fields.add("x")
    if result.objective is not None:
        fields.add("objective")
    if result.residuals:
        fields.add("residuals")
    if result.trace is not None:
        fields.add("trace")
    if result.iterations is not None:
        fields.add("iterations")
    if result.timing is not None:
        fields.add("timing")
    for key in ("basis", "x_std"):
        if key in result.extra:
            fields.add(f"extra.{key}")
    return frozenset(fields)


EXPECTED = frozenset(
    {
        "x", "objective", "residuals", "trace", "iterations", "timing",
        "extra.basis", "extra.x_std",
    }
)

#: The basis-free methods: same surface minus the basis handle.
FIRSTORDER_METHODS = frozenset({"pdlp", "gpu-pdlp"})
FIRSTORDER_EXPECTED = EXPECTED - {"extra.basis"}


def _expected_for(method: str) -> frozenset:
    return FIRSTORDER_EXPECTED if method in FIRSTORDER_METHODS else EXPECTED


def test_all_methods_optimal(results):
    for method, r in results.items():
        assert r.status is SolveStatus.OPTIMAL, method


def test_same_field_population_across_methods(results):
    shapes = {m: _populated_fields(r) for m, r in results.items()}
    assert all(s == _expected_for(m) for m, s in shapes.items()), {
        m: sorted(_expected_for(m).symmetric_difference(s))
        for m, s in shapes.items()
        if s != _expected_for(m)
    }


def test_agreeing_objectives(results):
    objectives = [r.objective for r in results.values()]
    assert np.allclose(objectives, objectives[0], rtol=1e-8)


def test_common_shape_details(results):
    for method, r in results.items():
        assert r.solver, method
        assert r.timing.modeled_seconds > 0.0, method
        assert r.timing.kernel_breakdown, method
        assert r.iterations.total_iterations >= 1, method
        assert len(r.x) == 12, method
        assert r.residuals["primal_infeasibility"] < 1e-7, method
        assert len(r.trace) >= 1, method
        # at least one pivot/flip/restart record besides the terminal ones
        pivots = [rec for rec in r.trace if rec.event in PIVOT_EVENTS]
        assert 1 <= len(pivots) < len(r.trace), method


#: The extras every device method reports (the shared device lifecycle);
#: the ``fused_*`` ones only when the launch plan fuses.
DEVICE_EXTRAS = frozenset(
    {"device", "kernel_launches", "kernel_bytes", "by_kernel", "peak_device_bytes"}
)
FUSED_EXTRAS = frozenset({"fused_launches", "fused_ops", "fusion_saved_seconds"})


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
def test_device_methods_report_the_same_device_extras(fusion):
    lp = random_dense_lp(8, 12, seed=3, name="shape-probe")
    want = DEVICE_EXTRAS | (FUSED_EXTRAS if fusion else frozenset())
    got = {
        method: set(solve(lp, method=method, fusion=fusion).extra)
        & (DEVICE_EXTRAS | FUSED_EXTRAS)
        for method in sorted(device_methods())
    }
    assert len(got) == 4
    assert all(keys == want for keys in got.values()), got



@pytest.mark.parametrize("method", sorted(device_methods()))
def test_device_sections_count_each_second_once(method):
    """A device method's timed sections never nest, so the ones other
    than ``transfer`` sum to at most the modeled clock.  At 24×32 the
    pivots are a large enough share of the clock that a section counted
    twice shows."""
    timing = solve(random_dense_lp(24, 32, seed=3), method=method).timing
    sections = sum(
        v for k, v in timing.kernel_breakdown.items() if k != "transfer"
    )
    assert sections <= timing.modeled_seconds, timing.kernel_breakdown
