"""Tree-reduction cost model and the result stores of the terminal reductions.

Every GPU simplex iteration ends its plan sections in a tree-structured
reduction: Dantzig pricing is an arg-min over reduced costs, the ratio test
is an arg-min over βᵢ/αᵢ, and Bland's rule is a "first index below a
threshold" reduction.  Each runs the classic multi-pass scheme
(block-local shared-memory tree, then reduce the per-block partials), and
every pass is charged to the device clock, so small reductions correctly
show their launch-overhead-dominated cost.

The entry points are the plan section's terminal reductions
(:meth:`repro.gpu.plan._PlanSection.argmin_to_device`,
:meth:`~repro.gpu.plan._PlanSection.first_below_to_device` and
:meth:`~repro.gpu.plan._PlanSection.ratio_readback`).  This module holds
what they share: the cost of the first pass (:func:`first_pass_cost`, the
pass a fused section folds into the preceding map kernel), the charge of
the passes (:func:`_charge_tree`), and the final pass's stores.  A fused
section records the stores as the first pass's body, so they run in
capture order; a reduction over at most 2·``DEFAULT_BLOCK`` elements is
that one pass, and the kernels after it in the same launch read its
store behind a block barrier.  The pricing choice and the ratio map's
minimum stay on the device for later kernels; only the iteration's single
readback crosses PCIe.
"""

from __future__ import annotations

import numpy as np

from repro.gpu._checks import (
    require_device_array,
    require_float_dtype,
    require_vector,
)
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import DeviceArray
from repro.perfmodel.ops import OpCost

#: Sentinel index stored by arg-reductions over an empty candidate set.
NO_INDEX = -1


def first_pass_cost(
    n: int, itemsize: int, *, pair: bool = False, tail_read: int = 0
) -> OpCost:
    """Cost of one tree pass over ``n`` elements — the *first* pass of a
    reduction over ``n``, which a fused plan section folds into the
    preceding map kernel (the classic map+reduce fusion).

    ``pair=True`` models arg-reductions, which carry (value, index) pairs —
    double the traffic of a plain value reduction.  ``tail_read`` adds the
    bytes the final pass gathers at the winning index (the value Bland's
    rule returns, the ratio test's pivot entries), charged here when this
    pass is the last.
    """
    width = itemsize * (2 if pair else 1)
    out = -(-n // (2 * DEFAULT_BLOCK))
    return OpCost(
        flops=float(n),
        bytes_read=n * width + (tail_read if out <= 1 else 0),
        bytes_written=out * width,
        threads=max(1, n // 2),
    )


def _charge_tree(
    dev: Device,
    name: str,
    n: int,
    itemsize: int,
    dtype,
    *,
    pair: bool = False,
    skip_first: bool = False,
    tail_read: int = 0,
) -> None:
    """Charge the launch sequence of a tree reduction over ``n`` elements:
    one launch per pass, each over the previous pass's per-block partials.
    ``skip_first=True`` omits the first pass (already charged inside a
    fused launch by the plan layer)."""
    remaining = n
    first = True
    while True:
        if not (first and skip_first):
            dev.launch(
                name,
                lambda: None,
                first_pass_cost(remaining, itemsize, pair=pair, tail_read=tail_read),
                dtype=dtype,
            )
        first = False
        out = -(-remaining // (2 * DEFAULT_BLOCK))
        if out <= 1:
            break
        remaining = out


def _prep(x: DeviceArray) -> tuple[Device, np.dtype, int]:
    require_device_array("x", x)
    require_float_dtype("x", x)
    require_vector("x", x)
    return x.device, x.dtype, x.dtype.itemsize


def argmin_host(x: DeviceArray) -> tuple[int, float]:
    """Host-side value of an arg-min; ties break to the lowest index (the
    deterministic tie-break GPU tree reductions are built to preserve)."""
    idx = int(np.argmin(x.data))
    return idx, float(x.data[idx])


def first_below_host(x: DeviceArray, threshold: float) -> tuple[int, float]:
    """Host-side value of Bland's min-index reduction: ``(i, x[i])`` for the
    smallest i with x[i] < threshold, or ``(NO_INDEX, inf)``."""
    hits = np.where(x.data < x.dtype.type(threshold))[0]
    if not hits.size:
        return NO_INDEX, float("inf")
    idx = int(hits[0])
    return idx, float(x.data[idx])


def store_argmin(
    x: DeviceArray, out: DeviceArray, below: "float | None" = None
) -> None:
    """Write the arg-min of ``x`` into ``out[:2]`` as (index, value) — the
    final tree pass's store of the device-resident arg-min.  With ``below``
    set, a minimum that is not below it stores ``NO_INDEX`` as the index."""
    idx, val = argmin_host(x)
    out.data[1] = x.data[idx]
    if below is not None and val >= below:
        idx = NO_INDEX
    out.data[0] = idx


def store_first_below(x: DeviceArray, threshold: float, out: DeviceArray) -> None:
    """Write Bland's (index, value) into ``out[:2]`` — the final pass's
    store of the device-resident first-below (``(NO_INDEX, inf)`` when no
    element is below ``threshold``)."""
    out.data[0], out.data[1] = first_below_host(x, threshold)


def ratio_result(
    choice: DeviceArray,
    keys: DeviceArray,
    best: DeviceArray,
    gather: tuple[DeviceArray, ...],
) -> tuple[int, float, int, float, tuple[float, ...]]:
    """Host-side value of the ratio readback: ``(q, d_q, row, θ, gathered)``
    (the lowest key's row, or ``best``'s index when no key is finite)."""
    row, key = argmin_host(keys)
    if not np.isfinite(key):
        row = int(best.data[0])
    return (
        int(choice.data[0]), float(choice.data[1]),
        row, float(best.data[1]), tuple(float(g.data[row]) for g in gather),
    )
