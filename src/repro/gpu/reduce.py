"""Parallel reduction, arg-reduction and scan primitives.

These are the tree-structured kernels every GPU simplex implementation leans
on: Dantzig pricing is an arg-min over reduced costs, the ratio test is a
masked arg-min over βᵢ/αᵢ, and Bland's rule is a "first index satisfying a
predicate" reduction.  Each primitive executes the classic multi-pass scheme
(block-local shared-memory tree, then reduce the per-block partials) and
charges every pass to the device clock, so small reductions correctly show
their launch-overhead-dominated cost.

All host-returning primitives charge the final DtoH transfer, one per
reduction: whatever the host needs of the result travels as one struct.
:func:`argmin_to_device` and :func:`first_below_to_device` keep their
result on the device for later kernels instead (the simplex pricing choice,
the ratio map's minimum), and :func:`ratio_readback` finishes a simplex
iteration by shipping the entering column, its reduced cost, the leaving
row, θ and the gathered pivot-row entries as one struct.
"""

from __future__ import annotations

import numpy as np

from repro.gpu._checks import (
    require_device_array,
    require_float_dtype,
    require_same_device,
    require_vector,
)
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import DeviceArray
from repro.perfmodel.ops import OpCost

#: Sentinel returned by arg-reductions over an empty candidate set.
NO_INDEX = -1


def first_pass_cost(
    n: int,
    itemsize: int,
    *,
    flops_per_elem: float = 1.0,
    pair: bool = False,
    tail_read: int = 0,
) -> OpCost:
    """Cost of the *first* tree pass over ``n`` elements.

    The plan layer fuses this pass into the preceding map kernel (the classic
    map+reduce fusion); the remaining passes are charged separately via
    :func:`_charge_tree` with ``skip_first=True``.  ``tail_read`` bytes are
    the final pass's gather reads, charged here when this pass is the last.
    """
    width = itemsize * (2 if pair else 1)
    out = -(-n // (2 * DEFAULT_BLOCK))
    return OpCost(
        flops=flops_per_elem * n,
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
    flops_per_elem: float = 1.0,
    pair: bool = False,
    skip_first: bool = False,
    tail_read: int = 0,
) -> None:
    """Charge the launch sequence of a tree reduction over ``n`` elements.

    ``pair=True`` models arg-reductions, which carry (value, index) pairs —
    double the traffic of a plain value reduction.  ``skip_first=True`` omits
    the first pass (already charged inside a fused launch by the plan layer)
    and charges only the follow-up passes over the per-block partials.
    ``tail_read`` adds the bytes the final pass gathers at the winning index
    (the value Bland's rule returns, the ratio test's pivot entries).
    """
    width = itemsize * (2 if pair else 1)
    remaining = n
    first = True
    while True:
        out = -(-remaining // (2 * DEFAULT_BLOCK))
        if not (first and skip_first):
            dev.launch(
                name,
                lambda: None,
                OpCost(
                    flops=flops_per_elem * remaining,
                    bytes_read=remaining * width + (tail_read if out <= 1 else 0),
                    bytes_written=out * width,
                    threads=max(1, remaining // 2),
                ),
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


# ---------------------------------------------------------------------------
# value reductions
# ---------------------------------------------------------------------------


def reduce_sum(x: DeviceArray) -> float:
    """Σ xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.sum(x.data.astype(np.float64)))
    _charge_tree(dev, "reduce.sum", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_min(x: DeviceArray) -> float:
    """min xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.min(x.data))
    _charge_tree(dev, "reduce.min", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_max(x: DeviceArray) -> float:
    """max xᵢ, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.max(x.data))
    _charge_tree(dev, "reduce.max", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


def reduce_max_abs(x: DeviceArray) -> float:
    """max |xᵢ|, returned to the host."""
    dev, dtype, w = _prep(x)
    result = float(np.max(np.abs(x.data))) if x.size else 0.0
    _charge_tree(dev, "reduce.max_abs", x.size, w, dtype)
    dev._record_transfer("dtoh", w)
    return result


# ---------------------------------------------------------------------------
# arg reductions
# ---------------------------------------------------------------------------


def argmin_host(x: DeviceArray) -> tuple[int, float]:
    """Host-side value of an arg-min — shared by :func:`argmin` and the plan
    layer's fused terminal reductions (identical tie-break to lowest index)."""
    idx = int(np.argmin(x.data))
    return idx, float(x.data[idx])


def first_below_host(x: DeviceArray, threshold: float) -> tuple[int, float]:
    """Host-side value of Bland's min-index reduction (see
    :func:`first_index_below`)."""
    hits = np.where(x.data < x.dtype.type(threshold))[0]
    if not hits.size:
        return NO_INDEX, float("inf")
    idx = int(hits[0])
    return idx, float(x.data[idx])


def store_argmin(
    x: DeviceArray, out: DeviceArray, below: "float | None" = None
) -> None:
    """Write the arg-min of ``x`` into ``out[:2]`` as (index, value) — the
    final tree pass's store of :func:`argmin_to_device`.  With ``below``
    set, a minimum that is not below it stores ``NO_INDEX`` as the index."""
    idx, val = argmin_host(x)
    out.data[1] = x.data[idx]
    if below is not None and val >= below:
        idx = NO_INDEX
    out.data[0] = idx


def store_first_below(x: DeviceArray, threshold: float, out: DeviceArray) -> None:
    """Write Bland's (index, value) into ``out[:2]`` — the final pass's
    store of :func:`first_below_to_device` (``(NO_INDEX, inf)`` when no
    element is below ``threshold``)."""
    out.data[0], out.data[1] = first_below_host(x, threshold)


def ratio_result(
    choice: DeviceArray,
    keys: DeviceArray,
    best: DeviceArray,
    gather: tuple[DeviceArray, ...],
) -> tuple[int, float, int, float, tuple[float, ...]]:
    """Host-side value of :func:`ratio_readback`."""
    row, key = argmin_host(keys)
    if not np.isfinite(key):
        row = int(best.data[0])
    return (
        int(choice.data[0]), float(choice.data[1]),
        row, float(best.data[1]), tuple(float(g.data[row]) for g in gather),
    )


def argmin(x: DeviceArray) -> tuple[int, float]:
    """(index, value) of the minimum element; ties break to the lowest index
    (the deterministic tie-break GPU tree reductions are built to preserve)."""
    dev, dtype, w = _prep(x)
    idx, val = argmin_host(x)
    _charge_tree(dev, "reduce.argmin", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def argmin_to_device(
    x: DeviceArray, out: DeviceArray, below: "float | None" = None
) -> None:
    """Device-resident arg-min: ``out[:2] := (index, value)`` of min x.

    The tree passes are charged as for :func:`argmin`, but the final pass
    stores the pair in ``out`` (at least two elements, ``x``'s dtype) for a
    later kernel to read; nothing crosses PCIe.  ``below`` makes it the
    Dantzig pricing reduction: the final pass stores ``NO_INDEX`` when the
    minimum is not below the threshold (no column prices in).
    """
    dev, dtype, w = _prep(x)
    _charge_tree(dev, "reduce.argmin", x.size, w, dtype, pair=True)
    store_argmin(x, out, below)


def first_below_to_device(
    x: DeviceArray, threshold: float, out: DeviceArray
) -> None:
    """Device-resident :func:`first_index_below`: Bland's ``(i, x[i])`` —
    or ``(NO_INDEX, inf)`` — stored in ``out[:2]``, no DtoH."""
    dev, dtype, w = _prep(x)
    _charge_tree(dev, "reduce.first_below", x.size, w, dtype, tail_read=w)
    store_first_below(x, threshold, out)


def ratio_readback(
    choice: DeviceArray,
    keys: DeviceArray,
    best: DeviceArray,
    gather: tuple[DeviceArray, ...] = (),
) -> tuple[int, float, int, float, tuple[float, ...]]:
    """A simplex iteration's single readback: ``(q, d_q, row, θ, gathered)``.

    An arg-min over the ratio test's tie-break ``keys`` whose final pass
    resolves the leaving row (the lowest key, or ``best``'s index when no
    key is finite), reads the pricing choice ``(q, d_q)`` from
    ``choice[:2]``, θ from ``best[1]`` and each ``gather`` vector's entry
    at that row, and ships all of it to the host as one struct.  The host
    tests ``q == NO_INDEX`` (optimal) before ``θ = inf`` (unbounded).
    """
    dev, dtype, w = _prep(keys)
    tail = (4 + len(gather)) * w
    _charge_tree(dev, "reduce.argmin", keys.size, w, dtype, pair=True,
                 tail_read=tail)
    result = ratio_result(choice, keys, best, gather)
    dev._record_transfer("dtoh", tail)
    return result


def argmax_abs(x: DeviceArray) -> tuple[int, float]:
    """(index, |value|max) — the pivot-magnitude reduction."""
    dev, dtype, w = _prep(x)
    a = np.abs(x.data)
    idx = int(np.argmax(a))
    val = float(a[idx])
    _charge_tree(dev, "reduce.argmax_abs", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def argmin_where(x: DeviceArray, mask: DeviceArray) -> tuple[int, float]:
    """Arg-min restricted to positions where ``mask`` is non-zero.

    Returns ``(NO_INDEX, inf)`` when the candidate set is empty — the
    unboundedness signal of the ratio test.  The mask read makes the kernel
    mildly divergent (inactive lanes idle while active lanes compare).
    """
    dev, dtype, w = _prep(x)
    require_device_array("mask", mask)
    require_vector("mask", mask, x.size)
    require_same_device(x, mask)

    m = mask.data != 0
    if not m.any():
        idx, val = NO_INDEX, float("inf")
    else:
        candidates = np.where(m)[0]
        local = int(np.argmin(x.data[candidates]))
        idx = int(candidates[local])
        val = float(x.data[idx])
    _charge_tree(dev, "reduce.argmin_where", x.size, w, dtype, pair=True)
    dev._record_transfer("dtoh", 2 * w)
    return idx, val


def first_index_below(x: DeviceArray, threshold: float) -> tuple[int, float]:
    """``(i, x[i])`` for the smallest index i with x[i] < threshold, or
    ``(NO_INDEX, inf)``.

    This is Bland's entering-variable rule as a min-index reduction: map
    each qualifying element to its index (others to +inf) and take the min.
    The final pass gathers x[i], so index and value return in one DtoH.
    """
    dev, dtype, w = _prep(x)
    result = first_below_host(x, threshold)
    _charge_tree(dev, "reduce.first_below", x.size, w, dtype, tail_read=w)
    dev._record_transfer("dtoh", 4 + w)
    return result


def count_below(x: DeviceArray, threshold: float) -> int:
    """Number of elements strictly below ``threshold`` (a sum reduction over
    a predicate map) — used for optimality detection and stall diagnostics."""
    dev, dtype, w = _prep(x)
    result = int(np.count_nonzero(x.data < dtype.type(threshold)))
    _charge_tree(dev, "reduce.count_below", x.size, w, dtype)
    dev._record_transfer("dtoh", 4)
    return result


# ---------------------------------------------------------------------------
# scan / compaction
# ---------------------------------------------------------------------------


def inclusive_scan(x: DeviceArray, out: DeviceArray) -> None:
    """out := inclusive prefix sum of x (Blelloch scan: ~2 sweeps).

    Charged as two passes over the data (up-sweep + down-sweep).
    """
    dev, dtype, w = _prep(x)
    require_device_array("out", out)
    require_vector("out", out, x.size)
    require_same_device(x, out)
    n = x.size

    def body() -> None:
        np.cumsum(x.data, out=out.data)

    for phase in ("reduce.scan_up", "reduce.scan_down"):
        dev.launch(
            phase,
            body if phase == "reduce.scan_down" else (lambda: None),
            OpCost(flops=n, bytes_read=n * w, bytes_written=n * w, threads=max(1, n // 2)),
            dtype=dtype,
        )


def compact_indices(mask: DeviceArray) -> np.ndarray:
    """Stream compaction: host array of indices where mask is non-zero.

    Implemented as scan + scatter on the device; the compacted index list is
    then transferred to the host (charged at its actual size).
    """
    dev, dtype, w = _prep(mask)
    n = mask.size
    hits = np.where(mask.data != 0)[0].astype(np.int64)
    # scan pass
    for phase in ("reduce.scan_up", "reduce.scan_down"):
        dev.launch(
            phase,
            lambda: None,
            OpCost(flops=n, bytes_read=n * w, bytes_written=n * 4, threads=max(1, n // 2)),
            dtype=dtype,
        )
    # scatter pass
    dev.launch(
        "reduce.scatter",
        lambda: None,
        OpCost(
            bytes_read=n * 4,
            bytes_written=max(1, hits.size) * 8,
            threads=max(1, n),
            coalesced_fraction=0.5,
        ),
        dtype=dtype,
    )
    dev._record_transfer("dtoh", max(1, hits.size) * 8)
    return hits
