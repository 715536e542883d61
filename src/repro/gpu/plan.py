"""Launch plans: capture → fuse → lower, the CUDA-graph-style seam.

Solver backends describe each iteration's device work as *plan sections*
(pricing, ratio, update, …).  Inside a section the backend issues its
ordinary :mod:`repro.gpu.blas` / kernel calls; the section decides how they
reach the device:

- **fusion on** (the default): the device records the launches instead of
  executing them (:meth:`Device._begin_capture`), and on section exit the
  planner lowers the captured sequence — runs of ``fusable`` map kernels
  collapse into one launch whose cost is :meth:`OpCost.fuse` of the parts
  (one launch overhead; operands a later op re-reads are fetched once),
  while non-fusable ops launch singly with their original name and cost.
  The partition into groups is memoized per plan by the captured
  sequence's signature; the fused costs are recomputed on every lowering
  (sparse LU solve costs grow with the eta file).
- **fusion off** (``fusion=False``, the op-by-op ablation baseline): every
  call passes straight through to :meth:`Device.launch`.  Fused launches
  run the same kernel bodies in capture order, so fp64 results are
  bit-identical either way; only modeled time and launch counts differ.

Two structural rules make fusion *safe* rather than merely plausible:

1. A group holds at most one non-fusable op (GEMV, GER, SpMV).  Fusable
   elementwise *producers* may precede it when it reads a buffer they
   touched ("prologue fusion" — the copy→gemv(β=1) and extract_col→gemv
   idioms), and fusable *consumers* may follow it when the first of them
   reads a buffer the group touched ("epilogue fusion" — the SpMV→PDHG-
   update idiom and the classic fused pricing kernel
   copy→gemvᵀ→mask→reduce).  Ops are never reordered: fused launches run
   the captured bodies in capture order, making fp64 results bit-identical
   by construction.
2. A terminal reduction (:meth:`_PlanSection.argmin_to_device`,
   :meth:`_PlanSection.first_below_to_device` or
   :meth:`_PlanSection.ratio_decision`) records its first tree pass as a
   fusable op whose body is the reduction's store (the classic map+reduce
   fusion), and ends a launch only when it needs a grid-wide barrier.
   When the reduced vector has at most 2·``DEFAULT_BLOCK`` elements and
   every op captured since the last lowering is fusable over at most
   2·``DEFAULT_BLOCK`` threads, one thread block runs all of it:
   ``__syncthreads`` is the only barrier the next op needs, so the capture
   stays open, and the fused launch is charged as that one block.
   Otherwise the section lowers the capture, charges the remaining tree
   passes and reopens the capture.  Ops after a block-resident reduction
   that do not fit one block start a launch of their own.  With
   fusion off the same passes launch one by one and the store is the body
   of the last, so the terminal reductions have one implementation
   (:class:`_PlanSection`) for both.

Host transfers raise inside a capture (the bodies have not executed yet),
so ``scalar_to_host``/``copy_from_host`` calls belong *outside* sections.
A simplex iteration of the GPU backends spans several sections —
pricing, the column load and FTRAN, the ratio test and the update — but
no host round trip sits between them, nor between the iterations of a
batch: pricing leaves (q, d_q) in a small device buffer that the
column-load kernel reads, and the ratio test leaves its decision in a
slot of a device-resident ring that the update launch reads.  Those
splits are grid-wide barriers — every block of the next kernel needs the
global result — which one launch cannot span.  The ratio test's map
arg-min leaves (row, θ) in another buffer that its tie-break kernel
reads; for m ≤ 2·``DEFAULT_BLOCK`` that is a block barrier, and the whole
``ratio`` section, ending in the decision's store, is one launch.

:func:`emit` is the blessed pass-through for backend-owned custom kernels
(sparse LU solves, PDHG updates): backends never call ``Device.launch``
directly (the architecture lint enforces it), so every launch is visible to
the planner.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator

import numpy as np

from repro.gpu import reduce as gpured
from repro.gpu.device import CapturedLaunch, Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import DeviceArray
from repro.metrics import instrument as _metrics
from repro.perfmodel.ops import OpCost


# ---------------------------------------------------------------------------
# precision policy
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PrecisionPolicy:
    """The device arithmetic a solve runs in, derived from its options.

    ``compute_dtype`` is the dtype of every device buffer and kernel;
    ``refine`` asks the backend to run fp64 iterative-refinement residual
    correction on the extracted solution (the classic mixed-precision
    scheme: fp32 speed, fp64-grade answers).
    """

    compute_dtype: np.dtype
    refine: bool = False

    @classmethod
    def from_options(cls, options) -> "PrecisionPolicy":
        """Resolve ``options.precision`` / ``options.dtype`` into a policy."""
        if options.precision == "mixed":
            return cls(np.dtype(np.float32), refine=True)
        return cls(np.dtype(options.dtype), refine=False)


# ---------------------------------------------------------------------------
# the blessed pass-through for backend custom kernels
# ---------------------------------------------------------------------------


def emit(
    dev: Device,
    name: str,
    body: Callable[[], None],
    cost: OpCost,
    *,
    dtype=np.float32,
    block: int = DEFAULT_BLOCK,
    fusable: bool = False,
    reads: tuple = (),
    writes: tuple = (),
) -> None:
    """Issue one backend-owned kernel through the plan layer.

    Identical to :meth:`Device.launch` — inside a capturing section the
    launch is recorded for fusion, outside it executes immediately.  Solver
    backends use this (or :mod:`repro.gpu.blas`) for every launch; the
    architecture lint forbids them from calling ``Device.launch`` directly.
    """
    dev.launch(
        name, body, cost, dtype=dtype, block=block,
        fusable=fusable, reads=reads, writes=writes,
    )


# ---------------------------------------------------------------------------
# lowering: group captured launches into fused launches
# ---------------------------------------------------------------------------


def _short(name: str) -> str:
    """``blas.copy`` -> ``copy``; ``kernel.mask_min`` -> ``mask_min``."""
    return name.rsplit(".", 1)[-1]


def _group_captured(captured: list[CapturedLaunch]) -> list[list[CapturedLaunch]]:
    """Partition a captured sequence into launch groups, in order.

    Consecutive ``fusable`` ops of the same dtype and block chain into one
    group.  A non-fusable op appears at most once per group: it joins a
    fusable run when it reads a buffer the run touched (prologue fusion),
    and fusable consumers keep extending the group afterwards when the
    first of them reads a touched buffer (epilogue fusion) — the heavy
    op's grid carries the elementwise producers and consumers around it.
    Everything else launches alone.
    """
    groups: list[list[CapturedLaunch]] = []
    cur: list[CapturedLaunch] = []
    touched: set[int] = set()
    has_heavy = False  # a non-fusable member is present anywhere
    heavy_is_last = False  # ... and is the newest member

    def flush() -> None:
        nonlocal cur, touched, has_heavy, heavy_is_last
        if cur:
            groups.append(cur)
        cur, touched, has_heavy, heavy_is_last = [], set(), False, False

    for op in captured:
        if cur and (op.dtype != cur[0].dtype or op.block != cur[0].block):
            flush()
        if op.fusable:
            if heavy_is_last and not (touched & set(op.reads)):
                flush()  # the heavy op's output is not consumed
            cur.append(op)
            touched |= set(op.reads) | set(op.writes)
            heavy_is_last = False
        elif cur and not has_heavy and touched & set(op.reads):
            cur.append(op)  # prologue fusion: consumes the group's output
            touched |= set(op.reads) | set(op.writes)
            has_heavy = heavy_is_last = True
        else:
            flush()
            cur = [op]  # tentative epilogue opener
            touched = set(op.reads) | set(op.writes)
            has_heavy = heavy_is_last = True
    flush()
    return groups


def _shared_read_bytes(group: list[CapturedLaunch]) -> float:
    """Read traffic the fused kernel keeps in registers/shared memory:
    what a later op was charged for reading operands an earlier op already
    read or wrote (fetched once instead of per-op)."""
    resident: set[int] = set()
    shared = 0
    for op in group:
        for token in op.reads:
            if token in resident:
                shared += op.operand_bytes.get(token, 0)
        resident |= set(op.reads) | set(op.writes)
    return float(shared)


class LaunchPlan:
    """Per-solve launch planner bound to one :class:`Device`.

    Parameters
    ----------
    device:
        The device every section's launches target.
    fusion:
        On (the default) → sections capture and lower with fusion.  Off →
        sections are pure pass-throughs, the op-by-op ablation baseline.
    hooks:
        Optional engine hooks object (``repro.engine.hooks``); when given,
        the first fused lowering of each section name emits a
        ``plan.lower`` span with the op → launch compression.
    """

    def __init__(self, device: Device, *, fusion: bool = True, hooks=None):
        self.device = device
        self.fusion = bool(fusion)
        self._hooks = hooks
        self._reported: set[str] = set()
        #: Lowering partitions (group sizes) by captured-sequence signature:
        #: an iteration's sections capture the same ops on the same buffers
        #: every time, so the grouping is computed once per shape.
        self._partitions: dict[tuple, tuple[int, ...]] = {}
        #: Cumulative fusion statistics of this plan (one solve, typically).
        self.fused_launches = 0
        self.fused_ops = 0
        self.saved_seconds = 0.0

    @contextlib.contextmanager
    def section(
        self, name: str, *, timed: "str | None" = None
    ) -> Iterator["_PlanSection"]:
        """One named stretch of device work lowered as a unit.

        ``timed`` attributes the fused lowering to a
        :meth:`Device.timed_section` bucket — for sections that span
        several timed blocks (the PDHG spmv→update pair), where the
        replay would otherwise run outside every bucket.  Sections opened
        *inside* a timed block don't need it.
        """
        sec = _PlanSection(self, name, timed=timed)
        if not self.fusion:
            yield sec
            return
        self.device._begin_capture()
        try:
            yield sec
        except BaseException:
            if self.device._capture is not None:
                self.device._end_capture()
            raise
        sec._lower()

    # -- lowering ----------------------------------------------------------

    def _lower(
        self,
        name: str,
        captured: list[CapturedLaunch],
        timed: "str | None" = None,
        *,
        resident: bool = False,
    ) -> None:
        """Replay a captured sequence as (possibly fused) real launches.

        ``resident`` marks a sequence that keeps a reduction's result
        inside one thread block: each fused launch runs as that one block,
        its ``threads`` capped at :data:`DEFAULT_BLOCK`."""
        if not captured:
            return
        if timed is not None:
            with self.device.timed_section(timed):
                self._lower(name, captured, resident=resident)
            return
        key = tuple(
            (op.name, op.dtype, op.block, op.fusable, op.reads, op.writes)
            for op in captured
        )
        sizes = self._partitions.get(key)
        if sizes is None:
            sizes = tuple(len(g) for g in _group_captured(captured))
            self._partitions[key] = sizes
        start = 0
        for size in sizes:
            group = captured[start:start + size]
            start += size
            if size == 1:
                op = group[0]
                self.device.launch(
                    op.name, op.body, op.cost, dtype=op.dtype, block=op.block
                )
                continue
            label = "fused[" + "+".join(_short(op.name) for op in group) + "]"
            cost = OpCost.fuse(
                *(op.cost for op in group),
                shared_read_bytes=_shared_read_bytes(group),
            )
            if resident:
                cost = dataclasses.replace(
                    cost, threads=min(cost.threads, DEFAULT_BLOCK)
                )
            bodies = [op.body for op in group]

            def run(bodies=bodies) -> None:
                for body in bodies:
                    body()

            self.device.launch(
                label, run, cost, dtype=group[0].dtype, block=group[0].block
            )
            saved = (len(group) - 1) * self.device.params.launch_overhead
            self.fused_launches += 1
            self.fused_ops += len(group)
            self.saved_seconds += saved
            _metrics.record_fused_launch(len(group), saved)
        if self._hooks is not None and name not in self._reported:
            self._reported.add(name)
            with self._hooks.span(
                "plan.lower", section=name,
                ops=len(captured), launches=len(sizes),
            ):
                pass


#: Largest vector one thread block reduces in a single tree pass.
_ONE_BLOCK = 2 * DEFAULT_BLOCK


def _block_resident(captured: list[CapturedLaunch]) -> bool:
    """Whether one thread block can run the whole captured sequence: every
    op is an elementwise map or a reduction pass over at most
    :data:`_ONE_BLOCK` threads, so ``__syncthreads`` is the only barrier
    it needs."""
    return all(op.fusable and op.cost.threads <= _ONE_BLOCK for op in captured)


class _PlanSection:
    """Handle the backend sees inside ``with plan.section(...) as sec``.

    Carries the section's terminal reductions — the only entry points to
    one.  Each charges the tree passes of :mod:`repro.gpu.reduce`; with
    fusion on, the first pass is recorded as a fusable op whose body is
    the reduction's store (so it fuses with the preceding map kernel).  A
    reduction that one thread block finishes keeps the capture open: the
    ops after it join the same launch, behind a block barrier.  Any other
    reduction lowers the capture, charges its remaining passes and reopens
    the capture.  The charges and their order are the same either way, so
    only the fused launches themselves differ.
    """

    def __init__(
        self, plan: LaunchPlan, name: str, *, timed: "str | None" = None
    ):
        self.plan = plan
        self.name = name
        self.timed = timed
        #: Length of the captured prefix that ends in a block-resident
        #: reduction pass (0: none since the last lowering).
        self._resident = 0

    def _lower(self) -> None:
        """End the capture and lower it.  When ops after the last
        block-resident reduction do not fit one block, the prefix up to
        that reduction launches on its own, ahead of them."""
        captured = self.plan.device._end_capture()
        k, self._resident = self._resident, 0
        if k and not _block_resident(captured[k:]):
            self.plan._lower(self.name, captured[:k], self.timed, resident=True)
            captured, k = captured[k:], 0
        self.plan._lower(self.name, captured, self.timed, resident=bool(k))

    def _reduce(
        self,
        x: DeviceArray,
        name: str,
        store: Callable[[], None],
        *,
        pair: bool,
        out: "DeviceArray | None" = None,
        tail_read: int = 0,
        tail_write: int = 0,
    ) -> None:
        """Charge a tree reduction over ``x`` whose final pass runs
        ``store`` (which writes ``out``).  With fusion on, record the first
        pass; keep the capture open when one block finishes the section so
        far, otherwise lower it, charge the follow-up passes and reopen
        it."""
        dev, dtype, w = gpured._prep(x)
        fused = self.plan.fusion
        if fused:
            dev.launch(
                name,
                store,
                gpured.first_pass_cost(x.size, w, pair=pair, tail_read=tail_read,
                                       tail_write=tail_write),
                dtype=dtype,
                fusable=True,
                reads=(x,),
                writes=() if out is None else (out,),
            )
            if x.size <= _ONE_BLOCK and _block_resident(dev._capture):
                self._resident = len(dev._capture)
                return
            self._lower()
        gpured._charge_tree(
            dev, name, x.size, w, dtype, pair=pair, skip_first=fused,
            tail_read=tail_read, tail_write=tail_write,
            store=None if fused else store,
        )
        if fused:
            dev._begin_capture()

    def argmin_to_device(
        self, x: DeviceArray, out: DeviceArray, below: "float | None" = None
    ) -> None:
        """Device-resident arg-min: ``out[:2] := (index, value)`` of min x.

        The final pass stores the pair in ``out`` (at least two elements,
        ``x``'s dtype) for a later kernel to read; nothing crosses PCIe.
        Ties break to the lowest index.  ``below`` makes it the Dantzig
        pricing reduction: the final pass stores ``NO_INDEX`` when the
        minimum is not below the threshold (no column prices in).
        """
        self._reduce(
            x, "reduce.argmin", lambda: gpured.store_argmin(x, out, below),
            pair=True, out=out,
        )

    def first_below_to_device(
        self, x: DeviceArray, threshold: float, out: DeviceArray
    ) -> None:
        """Bland's min-index reduction: ``(i, x[i])`` for the smallest i
        with x[i] < threshold — or ``(NO_INDEX, inf)`` — stored in
        ``out[:2]``, no DtoH."""
        self._reduce(
            x, "reduce.first_below",
            lambda: gpured.store_first_below(x, threshold, out),
            pair=False, out=out, tail_read=x.dtype.itemsize,
        )

    def ratio_decision(
        self,
        choice: DeviceArray,
        keys: DeviceArray,
        best: DeviceArray,
        gather: tuple[DeviceArray, ...],
        slot: gpured.Slot,
        unbounded_halts: bool = True,
    ) -> None:
        """A simplex iteration's decision, left in ``slot`` on the device.

        An arg-min over the ratio test's tie-break ``keys`` whose final pass
        resolves the leaving row (the lowest key, or ``best``'s index when
        no key is finite), reads the pricing choice ``(q, d_q)`` from
        ``choice[:2]``, θ from ``best[1]`` and each ``gather`` vector's
        entry at that row, and stores all of it, with the rows tied at θ
        and the status, in ``slot`` (:func:`~repro.gpu.reduce.store_decision`;
        a verdict halts the batch, UNBOUNDED only if ``unbounded_halts``).
        Nothing crosses PCIe: the update launch reads the slot, and the
        host reads a batch of slots back at once.
        """
        w = keys.dtype.itemsize
        self._reduce(
            keys, "reduce.argmin",
            lambda: gpured.store_decision(
                choice, keys, best, gather, slot, unbounded_halts
            ),
            pair=True, out=slot.ring, tail_read=(4 + len(gather)) * w,
            tail_write=gpured.SLOT_FIELDS * w,
        )
