"""Global-memory transactions of the device kernels' access patterns.

GT200 serves each memory instruction of a half-warp with the
``transaction_bytes``-aligned segments its lanes touch (64 bytes on the
modeled card), however few of each segment's bytes the lanes use.  The
kernels that walk a dense matrix, and the CSR-vector SpMVs, charge those
segments rather than element bytes, so a walk that strides across a
matrix's layout pays one segment per element and a walk along it pays
the segments it spans.  An allocation starts on a segment boundary
(``cudaMalloc`` aligns to 256 bytes), but a buffer inside a
:class:`~repro.gpu.memory.DeviceRegion` starts wherever the buffers
before it end: every count here takes the array's byte offset in its
allocation (``first``, or :attr:`DeviceArray.offset`), so a run that
starts mid-segment pays the extra segment it straddles.  The counts are pure functions of the shape
and that offset modulo the segment, so the kernels compute them once per
shape and offset.

The thread-level twin of this convention is
:class:`repro.gpu.simt.GlobalMemory`, which counts the same segments
access by access; ``tests/test_simt_transactions.py`` checks that every
dense kernel's charge equals its twin's count.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.gpu.memory import DeviceArray


def spanned_bytes(indptr: np.ndarray, width: int, transaction: int,
                  first: int = 0) -> int:
    """Bytes of the ``transaction``-byte segments that the runs
    ``[indptr[k], indptr[k+1])`` of a ``width``-byte array starting at
    byte ``first`` span, summed over the non-empty runs."""
    lo = first + indptr[:-1] * width
    hi = first + indptr[1:] * width
    spans = (hi - 1) // transaction - lo // transaction + 1
    return int(spans[hi > lo].sum()) * transaction


def span_bytes(count: int, width: int, first: int, transaction: int) -> int:
    """Bytes of the segments a ``count``-word array at byte ``first``
    spans: what reading all of it through the read-only (texture) cache
    costs, each segment fetched once however many warps read it."""
    if count <= 0:
        return 0
    last = first + count * width - 1
    return (last // transaction - first // transaction + 1) * transaction


def run_bytes(count: int, width: int, first: int, lanes: int,
              transaction: int) -> int:
    """Bytes of the segments touched when thread t of ``count`` accesses
    word t of an array at byte ``first``, ``lanes`` consecutive threads per
    instruction: a coalesced vector read or write."""
    if lanes * width % transaction == 0:
        # every instruction starts as far into a segment as the first
        full, rest = divmod(count, lanes)
        return (full * span_bytes(lanes, width, first % transaction, transaction)
                + span_bytes(rest, width, first % transaction, transaction))
    runs = np.append(np.arange(0, count, lanes), count)
    return spanned_bytes(runs, width, transaction, first)


def walk_bytes(lines: int, length: int, width: int, first: int, lanes: int,
               transaction: int) -> int:
    """Bytes of the segments read when each of ``lines`` back-to-back lines
    of ``length`` words, the first at byte ``first``, is walked in runs of
    ``lanes`` words, one instruction per run: GEMV's reads of a matrix
    along its layout, whether one warp walks each line or a tile of warps
    walks a slice of the lines across its outputs."""
    starts = (
        np.arange(lines, dtype=np.int64)[:, None] * length
        + np.arange(0, length, lanes)[None, :]
    ).ravel()
    return spanned_bytes(
        np.append(starts, lines * length), width, transaction, first
    )


@functools.lru_cache(maxsize=4096)
def strided_bytes(
    count: int, stride: int, first: int, lanes: int, transaction: int
) -> int:
    """Bytes of the segments touched when thread t of ``count`` accesses
    the word at byte address ``first + t·stride``, ``lanes`` consecutive
    threads issuing one instruction: each instruction's distinct segments,
    summed.  A stride of a segment or more costs a segment per word; a
    shorter one (a row of a matrix with few rows) shares segments.  Only
    ``first`` modulo the segment matters, and callers pass it reduced so
    the cache stays small.
    """
    if count <= 0:
        return 0
    t = np.arange(count, dtype=np.int64)
    seg = (first + t * stride) // transaction
    fresh = np.empty(count, dtype=bool)
    fresh[0] = True
    fresh[1:] = (seg[1:] != seg[:-1]) | (t[1:] % lanes == 0)
    return int(np.count_nonzero(fresh)) * transaction


def vector_bytes(v: DeviceArray, lanes: int | None = None) -> int:
    """Bytes of the segments one thread per word of ``v`` touches, a
    half-warp (or ``lanes`` threads) per instruction."""
    p = v.device.params
    tx = p.transaction_bytes
    return run_bytes(
        v.size, v.itemsize, v.offset % tx, lanes or p.warp_size // 2, tx
    )


def _line_bytes(a: DeviceArray, count: int, stride: int, first: int) -> int:
    """One thread per element of a row or column of ``a``, a half-warp per
    instruction."""
    p = a.device.params
    tx = p.transaction_bytes
    return strided_bytes(
        count, stride, (a.offset + first) % tx, p.warp_size // 2, tx
    )


def row_bytes(a: DeviceArray, i: int) -> int:
    """Bytes of the segments touched by one thread per element of row
    ``i`` of ``a``."""
    down, along = a.steps
    return _line_bytes(a, a.shape[1], along, i * down)


def column_bytes(a: DeviceArray, j: int) -> int:
    """Bytes of the segments touched by one thread per element of column
    ``j`` of ``a``."""
    down, along = a.steps
    return _line_bytes(a, a.shape[0], down, j * along)


def widest_column_bytes(a: DeviceArray) -> int:
    """The most :func:`column_bytes` any column of ``a`` costs: what a
    kernel that learns its column on the device is charged."""
    p = a.device.params
    tx = p.transaction_bytes
    return _widest_bytes(
        *a.shape, *a.steps, a.offset % tx, p.warp_size // 2, tx
    )


@functools.lru_cache(maxsize=256)
def _widest_bytes(m: int, n: int, down: int, along: int, first: int,
                  lanes: int, transaction: int) -> int:
    starts = np.unique((first + np.arange(n, dtype=np.int64) * along)
                       % transaction)
    return max(
        strided_bytes(m, down, int(r), lanes, transaction) for r in starts
    )
