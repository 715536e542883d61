"""Tests for the terminal tree reductions of a plan section.

A plan section's ``argmin_to_device``, ``first_below_to_device`` and
``ratio_decision`` are the only entry points to a reduction.  Every test
runs them with fusion off (op by op) and on (the first tree pass folds
into the section's fused launch) and expects the same stores and the same
follow-up passes.  The ratio decision tests run the map's arg-min and the
decision's store in one ``ratio`` section, as the simplex backends do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DeviceArrayError
from repro.gpu import blas
from repro.gpu import reduce as R
from repro.gpu.device import Device
from repro.gpu.plan import LaunchPlan
from repro.perfmodel.presets import GTX280_PARAMS

#: Both lowering modes of a plan section: op by op, then fused.
FUSION = (False, True)


def dvec(device, values, dtype=np.float64):
    return device.to_device(np.asarray(values, dtype=dtype))


def fresh(fusion: bool) -> tuple[Device, LaunchPlan]:
    dev = Device(GTX280_PARAMS)
    return dev, LaunchPlan(dev, fusion=fusion)


def argmin_pair(fusion: bool, values, below=None) -> tuple[Device, list]:
    """(device, stored pair) of one sectioned arg-min over ``values``."""
    dev, plan = fresh(fusion)
    x = dvec(dev, values)
    out = dev.alloc(2, np.float64)
    with plan.section("s") as sec:
        sec.argmin_to_device(x, out, below)
    return dev, list(out.data)


def first_below_pair(fusion: bool, values, threshold) -> tuple[Device, list]:
    """(device, stored pair) of one sectioned first-below reduction."""
    dev, plan = fresh(fusion)
    x = dvec(dev, values)
    out = dev.alloc(2, np.float64)
    with plan.section("s") as sec:
        sec.first_below_to_device(x, threshold, out)
    return dev, list(out.data)


class TestTreePasses:
    def test_single_element(self):
        for fusion in FUSION:
            dev, pair = argmin_pair(fusion, [42.0])
            assert pair == [0.0, 42.0]
            assert dev.stats.by_kernel["reduce.argmin"].launches == 1

    def test_multipass_charges_multiple_launches(self):
        """A reduction over >2*block² elements needs at least 3 passes."""
        n = 2 * 256 * 2 * 256 + 1
        for fusion in FUSION:
            dev, plan = fresh(fusion)
            x = dev.zeros(n, np.float32)
            out = dev.alloc(2, np.float32)
            with plan.section("s") as sec:
                sec.argmin_to_device(x, out)
            assert dev.stats.by_kernel["reduce.argmin"].launches >= 3

    def test_fused_and_op_by_op_charge_the_same_passes(self):
        """With a map kernel before it, the fused section folds the first
        tree pass into one launch; every later pass is charged as op by
        op, and the stored pair is the same."""
        n = 2 * 256 * 2 * 256 + 1
        values = np.linspace(3.0, -1.0, n)
        passes, pairs = {}, {}
        for fusion in FUSION:
            dev, plan = fresh(fusion)
            dev.record_timeline()
            x = dvec(dev, values)
            out = dev.alloc(2, np.float64)
            with plan.section("s") as sec:
                blas.scal(2.0, x)
                sec.argmin_to_device(x, out)
            passes[fusion] = [
                (e.name, e.cost) for e in dev.timeline
                if e.name == "reduce.argmin"
            ]
            pairs[fusion] = list(out.data)
            if fusion:
                assert dev.stats.by_kernel["fused[scal+argmin]"].launches == 1
        assert len(passes[False]) >= 3
        assert passes[True] == passes[False][1:]
        assert pairs[True] == pairs[False] == [n - 1.0, -2.0]


class TestArgReductions:
    def test_argmin(self):
        for fusion in FUSION:
            assert argmin_pair(fusion, [3.0, -1.0, 2.0])[1] == [1.0, -1.0]

    def test_argmin_tie_breaks_low_index(self):
        for fusion in FUSION:
            assert argmin_pair(fusion, [5.0, 1.0, 1.0, 1.0])[1] == [1.0, 1.0]

    def test_first_index_below(self):
        for fusion in FUSION:
            dev, pair = first_below_pair(fusion, [0.5, -0.1, -3.0], 0.0)
            assert pair == [1.0, -0.1]
            # one pass: read x, gather x[i] along with the index, write it
            assert dev.stats.by_kernel["reduce.first_below"].bytes == 5 * 8

    def test_first_index_below_none(self):
        for fusion in FUSION:
            assert first_below_pair(fusion, [0.5, 0.1], 0.0)[1] == [
                R.NO_INDEX, np.inf
            ]

    def test_argmin_to_device_stays_on_device(self):
        for fusion in FUSION:
            dev, pair = argmin_pair(fusion, [3.0, -1.0, 2.0, -1.0])
            assert dev.stats.dtoh_bytes == 0
            assert dev.stats.by_kernel["reduce.argmin"].launches == 1
            assert pair == [1.0, -1.0]

    def test_argmin_to_device_below_threshold(self):
        x = [3.0, -1.0, 2.0]
        for fusion in FUSION:
            assert argmin_pair(fusion, x, below=-0.5)[1] == [1.0, -1.0]
            # no element prices in: the index becomes NO_INDEX, the value stays
            assert argmin_pair(fusion, x, below=-2.0)[1] == [R.NO_INDEX, -1.0]
            # a minimum *equal* to the threshold does not price in
            assert argmin_pair(fusion, x, below=-1.0)[1][0] == R.NO_INDEX

    def test_first_below_to_device(self):
        for fusion in FUSION:
            dev, plan = fresh(fusion)
            x = dvec(dev, [0.5, -0.1, -3.0])
            out = dev.alloc(2, np.float64)
            with plan.section("a") as sec:
                sec.first_below_to_device(x, 0.0, out)
            assert list(out.data) == [1.0, -0.1]
            with plan.section("b") as sec:
                sec.first_below_to_device(x, -5.0, out)
            assert list(out.data) == [R.NO_INDEX, np.inf]
            assert dev.stats.dtoh_bytes == 0
            assert dev.stats.by_kernel["reduce.first_below"].launches == 2

    def test_ratio_decision_gathers_into_its_slot(self):
        for fusion in FUSION:
            dev, plan = fresh(fusion)
            ratios = dvec(dev, [4.0, 2.0, 2.0, 9.0])
            best = dev.alloc(2, np.float64)
            choice = dvec(dev, [5.0, -0.25])
            # rows 1 and 2 tie at θ = 2; the keys pick row 2 (lower variable)
            keys = dvec(dev, [np.inf, 7.0, 3.0, np.inf])
            alpha = dvec(dev, [0.1, 0.2, 0.3, 0.4])
            slot = R.Slot(dev.alloc((2, R.SLOT_FIELDS), np.float64), 1)
            dev.record_timeline()
            with plan.section("ratio") as sec:
                sec.argmin_to_device(ratios, best)
                sec.ratio_decision(choice, keys, best, (alpha,), slot)
            got = slot.ring.data[1]
            assert got[[R.Q, R.D_Q, R.ROW, R.THETA, R.PIVOT]].tolist() == [
                5, -0.25, 2, 2.0, 0.3,
            ]
            assert got[R.TIES] == 2 and got[R.STATUS] == R.BLOCKED
            kinds = [e.kind for e in dev.timeline]
            # both reductions fit one block: one launch when fused, and
            # nothing crosses PCIe
            assert kinds == ["kernel"] * (1 if fusion else 2)

    def test_ratio_decision_falls_back_to_best_row(self):
        for fusion in FUSION:
            dev, plan = fresh(fusion)
            ratios = dvec(dev, [4.0, 2.0])
            best = dev.alloc(2, np.float64)
            keys = dvec(dev, [np.inf, np.inf])
            choice = dvec(dev, [R.NO_INDEX, 0.0])
            halt = dvec(dev, [0.0])
            slot = R.Slot(dev.alloc((1, R.SLOT_FIELDS), np.float64), 0,
                          halt, 7)
            with plan.section("ratio") as sec:
                sec.argmin_to_device(ratios, best)
                sec.ratio_decision(choice, keys, best, (), slot)
            got = slot.ring.data[0]
            assert got[[R.Q, R.ROW, R.THETA, R.STATUS]].tolist() == [
                R.NO_INDEX, 1, 2.0, R.OPTIMAL,
            ]
            # the verdict halts the rest of its batch
            assert halt.data[0] == 7


@settings(max_examples=30, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 500),
                elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_reduction_properties(x):
    for fusion in FUSION:
        idx, val = argmin_pair(fusion, x)[1]
        idx = int(idx)
        assert val == x.min()
        assert x[idx] == val
        # tie-break: no earlier index attains the min
        assert not np.any(x[:idx] == val)


@settings(max_examples=30, deadline=None)
@given(
    x=arrays(np.float64, st.integers(1, 300),
             elements=st.floats(-100, 100, allow_nan=False)),
    threshold=st.floats(-100, 100, allow_nan=False),
)
def test_first_below_matches_linear_scan(x, threshold):
    hits = np.nonzero(x < threshold)[0]
    expected = int(hits[0]) if hits.size else R.NO_INDEX
    for fusion in FUSION:
        got, value = first_below_pair(fusion, x, threshold)[1]
        assert got == expected
        assert value == (x[expected] if hits.size else np.inf)


def test_reduction_input_checks():
    """Both lowering modes validate the reduced vector the same way."""
    for fusion in FUSION:
        dev, plan = fresh(fusion)
        x = dev.to_device(np.ones((2, 2)))
        out = dev.alloc(2, np.float64)
        with pytest.raises(DeviceArrayError):
            with plan.section("s") as sec:
                sec.argmin_to_device(x, out)
