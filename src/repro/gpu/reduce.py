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
:meth:`~repro.gpu.plan._PlanSection.ratio_decision`).  This module holds
what they share: the cost of the first pass (:func:`first_pass_cost`, the
pass a fused section folds into the preceding map kernel), the charge of
the passes (:func:`_charge_tree`), and the final pass's stores.  A fused
section records the stores as the first pass's body, so they run in
capture order; a reduction over at most 2·``DEFAULT_BLOCK`` elements is
that one pass, and the kernels after it in the same launch read its
store behind a block barrier.  The pricing choice and the ratio map's
minimum stay on the device for later kernels, and so does the ratio
test's decision: its final pass stores it in a :class:`Slot` of a
device-resident decision ring, which the iteration's update launch reads
and the host reads back once per batch of iterations.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gpu import transactions as tx
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

#: The fields of a decision-ring slot: the entering column and its reduced
#: cost, the leaving row, the step θ, the pivot α_p, whether the leaving
#: variable exits at its upper bound, the entering column's sign σ, the
#: number of rows tied at θ, and the status.
Q, D_Q, ROW, THETA, PIVOT, TO_UPPER, SIGMA, TIES, STATUS = range(9)
SLOT_FIELDS = 9

#: Slot status.  The ratio test stores BLOCKED (a row blocks: a pivot),
#: OPTIMAL (no column priced in) or UNBOUNDED (no row blocks).  With boxed
#: bounds the update launch decides BLOCKED and UNBOUNDED slots: FLIPPED
#: when q reaches its own bound first, else PIVOTED (or still UNBOUNDED).
#: The drive-out stores PIVOTED.
BLOCKED, PIVOTED, FLIPPED, OPTIMAL, UNBOUNDED = range(5)


@dataclasses.dataclass(frozen=True)
class Slot:
    """Slot ``index`` of a decision ring, a (slots, :data:`SLOT_FIELDS`)
    device matrix: one simplex iteration's decision, stored by its ratio
    test's final pass and read on the device by the launches that act on
    it.  Indexing by field reads or writes the backing store, so only
    kernel bodies may do it.

    ``halt`` is the status word of the batch the slot belongs to, and
    ``batch`` the batch's number: a verdict stores the number in the word
    (:meth:`stop`), and every later launch of the batch reads it and does
    nothing (:meth:`~repro.gpu.device.Device.halting`)."""

    ring: DeviceArray
    index: int
    halt: "DeviceArray | None" = None
    batch: int = 0

    def stop(self) -> None:
        """Halt the rest of the batch (a kernel body's store)."""
        if self.halt is not None:
            self.halt.data[0] = self.batch

    def __getitem__(self, field: int) -> float:
        return float(self.ring.data[self.index, field])

    def __setitem__(self, field: int, value: float) -> None:
        self.ring.data[self.index, field] = value

    @property
    def pivots(self) -> bool:
        """Whether the decision is a pivot (the basis changes)."""
        return self[STATUS] in (BLOCKED, PIVOTED)

    @property
    def read_bytes(self) -> int:
        """What a kernel's read of the slot costs: the segments its words
        span, through the read-only cache."""
        ring, w = self.ring, self.ring.itemsize
        return tx.span_bytes(
            SLOT_FIELDS, w, ring.offset + self.index * SLOT_FIELDS * w,
            ring.device.params.transaction_bytes,
        )


def first_pass_cost(
    n: int, itemsize: int, *, pair: bool = False, tail_read: int = 0,
    tail_write: int = 0,
) -> OpCost:
    """Cost of one tree pass over ``n`` elements — the *first* pass of a
    reduction over ``n``, which a fused plan section folds into the
    preceding map kernel (the classic map+reduce fusion).

    ``pair=True`` models arg-reductions, which carry (value, index) pairs —
    double the traffic of a plain value reduction.  ``tail_read`` adds the
    bytes the final pass gathers at the winning index (the value Bland's
    rule returns, the ratio test's pivot entries) and ``tail_write`` the
    bytes it stores beyond its (index, value) pair (the ratio test's
    decision slot), charged here when this pass is the last.
    """
    width = itemsize * (2 if pair else 1)
    out = -(-n // (2 * DEFAULT_BLOCK))
    last = out <= 1
    return OpCost(
        flops=float(n),
        bytes_read=n * width + (tail_read if last else 0),
        bytes_written=out * width + (tail_write if last else 0),
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
    tail_write: int = 0,
    store=None,
) -> None:
    """Charge the launch sequence of a tree reduction over ``n`` elements:
    one launch per pass, each over the previous pass's per-block partials,
    the last one running ``store``.  ``skip_first=True`` omits the first
    pass (already charged inside a fused launch by the plan layer)."""
    remaining = n
    first = True
    while True:
        out = -(-remaining // (2 * DEFAULT_BLOCK))
        if not (first and skip_first):
            dev.launch(
                name,
                store if out <= 1 and store is not None else (lambda: None),
                first_pass_cost(remaining, itemsize, pair=pair,
                                tail_read=tail_read, tail_write=tail_write),
                dtype=dtype,
            )
        first = False
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


def store_decision(
    choice: DeviceArray,
    keys: DeviceArray,
    best: DeviceArray,
    gather: tuple[DeviceArray, ...],
    slot: Slot,
    unbounded_halts: bool = True,
) -> None:
    """The ratio test's final store: the pricing choice (q, d_q) from
    ``choice``, the leaving row (the lowest finite key, or ``best``'s index
    when no key is finite), θ from ``best[1]``, each ``gather`` vector's
    entry at that row (α_p, then to_upper when boxed), σ = +1, the rows
    tied at θ (the finite keys) and the status, written into ``slot``.
    OPTIMAL halts the batch, and so does UNBOUNDED when
    ``unbounded_halts`` (with boxed bounds the update launch decides)."""
    row, key = argmin_host(keys)
    if not np.isfinite(key):
        row = int(best.data[0])
    q, theta = choice.data[0], best.data[1]
    fields = np.zeros(SLOT_FIELDS)
    fields[[Q, D_Q, ROW, THETA, SIGMA]] = q, choice.data[1], row, theta, 1.0
    for field, vector in zip((PIVOT, TO_UPPER), gather):
        fields[field] = vector.data[row]
    fields[TIES] = np.count_nonzero(np.isfinite(keys.data))
    fields[STATUS] = status = (
        OPTIMAL if q == NO_INDEX
        else UNBOUNDED if not np.isfinite(theta) else BLOCKED
    )
    slot.ring.data[slot.index] = fields
    if status == OPTIMAL or (status == UNBOUNDED and unbounded_halts):
        slot.stop()
