"""Where the PDHG vectors live: the two placements of the one PDLP loop.

:class:`~repro.firstorder.pdlp.PdlpBackend` runs PDHG once, in terms of a
handful of vector operations; a placement implements them on one machine.

- :class:`HostPlacement` keeps NumPy arrays and charges every operation
  to the modeled CPU's :class:`~repro.perfmodel.cpu_model.CpuCostRecorder`.
- :class:`DevicePlacement` keeps the iterates on the simulated device.
  The constraint matrix is resident twice, CSC for ``Âᵀŷ`` and CSR for
  ``Âx̂``: the standard PDLP trade of one extra matrix copy for coalesced
  row-parallel SpMV in both directions.  One iteration is four kernel
  launches (SpMVᵀ, a fused primal update, SpMV, a fused dual update) with
  no host round trip; candidate checks reuse the SpMV kernels plus device
  BLAS reductions, each charging its scalar download.

A candidate is named ``"cur"`` (the current iterate) or ``"avg"`` (the
running average since the last restart).  Both placements count every
SpMV they charge in ``spmv_count``, the power iteration included.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.firstorder.rescale import RescaledLP, power_iteration_norm
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.sparse_kernels import (
    DeviceCscMatrix,
    DeviceCsrMatrix,
    spmv_csc_t,
    spmv_csr,
)
from repro.perfmodel.cpu_model import CpuCostRecorder
from repro.perfmodel.ops import OpCost

#: 4-byte column/row ids, matching the GPU sparse kernels' accounting.
_INDEX_BYTES = 4

#: Power-iteration steps of the ``‖Â‖₂`` estimate.
_NORM_ITERS = 24


class HostPlacement:
    """PDHG vectors as NumPy arrays, charged to the CPU cost model."""

    def __init__(
        self, rescaled: RescaledLP, recorder: CpuCostRecorder, dtype: np.dtype
    ):
        self.sc = rescaled
        self.recorder = recorder
        self.itemsize = np.dtype(dtype).itemsize
        self.m, self.n = m, n = rescaled.a.shape
        self.spmv_count = 0
        self.x, self.x_sum, self.x_avg, self.x_rst, self.x_best = (
            np.zeros(n) for _ in range(5)
        )
        self.y, self.y_sum, self.y_avg, self.y_rst, self.y_best = (
            np.zeros(m) for _ in range(5)
        )

    def section(self, name: str):
        """The CPU model keeps no sections."""
        return contextlib.nullcontext()

    def _pair(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        return (self.x, self.y) if which == "cur" else (self.x_avg, self.y_avg)

    # -- cost charging --------------------------------------------------

    def _charge_spmv(self, name: str) -> None:
        a = self.sc.a
        m, n = a.shape
        w = self.itemsize
        out_len = m if name == "spmv" else n
        self.recorder.charge(
            name,
            OpCost(
                flops=2 * a.nnz,
                bytes_read=a.nnz * (w + _INDEX_BYTES)
                + (n + 1) * _INDEX_BYTES
                + a.nnz * w,
                bytes_written=out_len * w,
                threads=max(1, out_len),
                coalesced_fraction=0.5,
            ),
        )
        self.spmv_count += 1

    def _charge_vector(self, name: str, length: int, flops_per: int) -> None:
        w = self.itemsize
        self.recorder.charge(
            name,
            OpCost(
                flops=flops_per * length,
                bytes_read=3 * length * w,
                bytes_written=length * w,
                threads=max(1, length),
                coalesced_fraction=1.0,
            ),
        )

    # -- the placement operations ---------------------------------------

    def norm_estimate(self) -> float:
        norm = power_iteration_norm(self.sc.a, _NORM_ITERS)
        # the power iteration is real SpMV work: charge its cost
        for _ in range(_NORM_ITERS):
            self._charge_spmv("spmv")
            self._charge_spmv("spmv_t")
        return norm

    def step(self, tau: float, sigma: float) -> None:
        sc = self.sc
        aty = sc.a.rmatvec(self.y)
        self._charge_spmv("spmv_t")
        x_new = np.maximum(0.0, self.x - tau * (sc.c - aty))
        x_ext = 2.0 * x_new - self.x
        self.x = x_new
        self._charge_vector("primal_update", self.n, 5)
        ax = sc.a.matvec(x_ext)
        self._charge_spmv("spmv")
        self.y = self.y + sigma * (sc.b - ax)
        self._charge_vector("dual_update", self.m, 4)
        self.x_sum += self.x
        self.y_sum += self.y
        self._charge_vector("average", self.m + self.n, 2)

    def average(self, k_since: int) -> None:
        inv_k = 1.0 / k_since
        self.x_avg = self.x_sum * inv_k
        self.y_avg = self.y_sum * inv_k
        self._charge_vector("average", self.m + self.n, 1)

    def residuals(self, which: str) -> tuple[float, float, float, float]:
        """Unscaled ‖primal residual‖, ‖dual residual‖ and the two
        objectives of a candidate."""
        sc = self.sc
        x_c, y_c = self._pair(which)
        ax = sc.a.matvec(x_c)
        self._charge_spmv("spmv")
        aty = sc.a.rmatvec(y_c)
        self._charge_spmv("spmv_t")
        rp = float(np.linalg.norm((ax - sc.b) * sc.inv_row_scale))
        rd = float(np.linalg.norm(np.maximum(aty - sc.c, 0.0) * sc.inv_col_scale))
        pobj = float(sc.c @ x_c)
        dobj = float(sc.b @ y_c)
        self._charge_vector("check", self.m + self.n, 4)
        return rp, rd, pobj, dobj

    def displacement(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """Prep-space Δx, Δy of a candidate since the last restart."""
        x_c, y_c = self._pair(which)
        return (
            (x_c - self.x_rst) * self.sc.col_scale,
            (y_c - self.y_rst) * self.sc.row_scale,
        )

    def restart(self, which: str) -> None:
        x_c, y_c = self._pair(which)
        self.x = x_c.copy()
        self.y = y_c.copy()
        self.x_rst = x_c.copy()
        self.y_rst = y_c.copy()
        self.x_sum[:] = 0.0
        self.y_sum[:] = 0.0
        self._charge_vector("restart", self.m + self.n, 1)

    def accept(self, which: str) -> None:
        x_c, y_c = self._pair(which)
        self.x_best = x_c.copy()
        self.y_best = y_c.copy()

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x_best, self.y_best


def _primal_update_kernel(
    dev: Device,
    x: DeviceArray,
    x_ext: DeviceArray,
    x_sum: DeviceArray,
    aty: DeviceArray,
    c: DeviceArray,
    tau: float,
) -> None:
    """Fused: x ← [x − τ(c − Âᵀŷ)]₊;  x_ext ← 2x⁺ − x;  x_sum += x⁺."""
    n = x.shape[0]
    w = x.itemsize

    def body() -> None:
        old = x.data.astype(np.float64)
        new = np.maximum(
            0.0, old - tau * (c.data.astype(np.float64) - aty.data.astype(np.float64))
        )
        x_ext.data[:] = (2.0 * new - old).astype(x_ext.dtype)
        x_sum.data[:] = (x_sum.data.astype(np.float64) + new).astype(x_sum.dtype)
        x.data[:] = new.astype(x.dtype)

    cost = OpCost(
        flops=8 * n,
        bytes_read=4 * n * w,
        bytes_written=3 * n * w,
        threads=max(1, n),
        coalesced_fraction=1.0,
    )
    gpu_plan.emit(
        dev, "pdhg.primal_update", body, cost, dtype=x.dtype,
        fusable=True, reads=(x, c, aty, x_sum), writes=(x, x_ext, x_sum),
    )


def _dual_update_kernel(
    dev: Device,
    y: DeviceArray,
    y_sum: DeviceArray,
    ax: DeviceArray,
    b: DeviceArray,
    sigma: float,
) -> None:
    """Fused: y ← y + σ(b̂ − Âx_ext);  y_sum += y⁺."""
    m = y.shape[0]
    w = y.itemsize

    def body() -> None:
        new = y.data.astype(np.float64) + sigma * (
            b.data.astype(np.float64) - ax.data.astype(np.float64)
        )
        y_sum.data[:] = (y_sum.data.astype(np.float64) + new).astype(y_sum.dtype)
        y.data[:] = new.astype(y.dtype)

    cost = OpCost(
        flops=5 * m,
        bytes_read=4 * m * w,
        bytes_written=2 * m * w,
        threads=max(1, m),
        coalesced_fraction=1.0,
    )
    gpu_plan.emit(
        dev, "pdhg.dual_update", body, cost, dtype=y.dtype,
        fusable=True, reads=(y, ax, b, y_sum), writes=(y, y_sum),
    )


def _scaled_residual_kernel(
    dev: Device,
    out: DeviceArray,
    av: DeviceArray,
    rhs: DeviceArray,
    inv_scale: DeviceArray,
    *,
    positive_part: bool,
    name: str,
) -> None:
    """out ← (av − rhs)·inv_scale, optionally clamped to its positive part
    (the unscaled primal / dual residual vector of a candidate)."""
    n = out.shape[0]
    w = out.itemsize

    def body() -> None:
        r = (av.data.astype(np.float64) - rhs.data.astype(np.float64)) * (
            inv_scale.data.astype(np.float64)
        )
        if positive_part:
            r = np.maximum(r, 0.0)
        out.data[:] = r.astype(out.dtype)

    cost = OpCost(
        flops=3 * n,
        bytes_read=3 * n * w,
        bytes_written=n * w,
        threads=max(1, n),
        coalesced_fraction=1.0,
    )
    gpu_plan.emit(
        dev, name, body, cost, dtype=out.dtype,
        fusable=True, reads=(av, rhs, inv_scale), writes=(out,),
    )


#: The device vectors of a :class:`DevicePlacement` in allocation order,
#: each with its length, ``n`` (primal) or ``m`` (dual), and whether it
#: starts at zero: the iterates, their running sums and the restart
#: anchors do; every other vector is written before it is read.
_VECTORS = (
    ("x", "n", True), ("y", "m", True), ("x_sum", "n", True),
    ("y_sum", "m", True), ("x_rst", "n", True), ("y_rst", "m", True),
    ("x_ext", "n", False), ("x_avg", "n", False), ("y_avg", "m", False),
    ("x_best", "n", False), ("y_best", "m", False), ("ax", "m", False),
    ("aty", "n", False), ("chk_m", "m", False), ("chk_n", "n", False),
    ("tmp_m", "m", False), ("tmp_n", "n", False),
)


class DevicePlacement:
    """PDHG vectors resident on the simulated device.

    Setup (Ruiz/Pock–Chambolle rescaling) is host work.  The matrix (CSC
    and CSR), b̂, ĉ and the two inverse scalings are placed in one region
    with one HtoD copy, charged as transfer; a failed allocation (device
    OOM) releases whatever was already allocated before re-raising.
    """

    def __init__(
        self,
        rescaled: RescaledLP,
        dev: Device,
        plan: gpu_plan.LaunchPlan,
        dtype: np.dtype,
    ):
        self.sc = rescaled
        self.dev = dev
        self.plan = plan
        self.spmv_count = 0
        m, n = rescaled.a.shape
        try:
            for name, dim, zero in _VECTORS:
                size = n if dim == "n" else m
                setattr(self, name, (dev.zeros if zero else dev.alloc)(size, dtype))
            a_csr = rescaled.a.tocsr()
            with dev.timed_section("transfer"):
                self.region = region = dev.place({
                    **DeviceCscMatrix.arrays(rescaled.a, dtype, "a_csc"),
                    **DeviceCsrMatrix.arrays(a_csr, dtype, "a_csr"),
                    "b": rescaled.b.astype(dtype),
                    "c": rescaled.c.astype(dtype),
                    "inv_row": rescaled.inv_row_scale.astype(dtype),
                    "inv_col": rescaled.inv_col_scale.astype(dtype),
                })
            self.a_csc = DeviceCscMatrix(rescaled.a, region, "a_csc")
            self.a_csr = DeviceCsrMatrix(a_csr, region, "a_csr")
            for name in ("b", "c", "inv_row", "inv_col"):
                setattr(self, name, region[name])
        except Exception:
            self.free()
            raise

    def section(self, name: str):
        return self.dev.timed_section(name)

    def _pair(self, which: str) -> tuple[DeviceArray, DeviceArray]:
        return (self.x, self.y) if which == "cur" else (self.x_avg, self.y_avg)

    def _spmv(self, x: DeviceArray, out: DeviceArray) -> None:
        spmv_csr(self.a_csr, x, out)
        self.spmv_count += 1

    def _spmv_t(self, y: DeviceArray, out: DeviceArray) -> None:
        spmv_csc_t(self.a_csc, y, out)
        self.spmv_count += 1

    # -- the placement operations ---------------------------------------

    def norm_estimate(self) -> float:
        """Power iteration on ÂᵀÂ with the device SpMV kernels (its SpMV
        cost is real setup work and lands on the device clock)."""
        n = self.a_csc.shape[1]
        blas.fill(self.x_ext, 1.0 / np.sqrt(n))
        sigma = 1.0
        for _ in range(_NORM_ITERS):
            self._spmv(self.x_ext, self.ax)
            self._spmv_t(self.ax, self.aty)
            nw = blas.nrm2(self.aty)
            if nw <= 0.0:
                break
            blas.copy(self.aty, self.x_ext)
            blas.scal(1.0 / nw, self.x_ext)
            sigma = float(np.sqrt(nw))
        return max(sigma, 1e-30)

    def step(self, tau: float, sigma: float) -> None:
        dev = self.dev
        with self.plan.section("primal", timed="spmv"):
            with dev.timed_section("spmv"):
                self._spmv_t(self.y, self.aty)
            with dev.timed_section("update"):
                _primal_update_kernel(
                    dev, self.x, self.x_ext, self.x_sum, self.aty, self.c, tau
                )
        with self.plan.section("dual", timed="spmv"):
            with dev.timed_section("spmv"):
                self._spmv(self.x_ext, self.ax)
            with dev.timed_section("update"):
                _dual_update_kernel(dev, self.y, self.y_sum, self.ax, self.b, sigma)

    def average(self, k_since: int) -> None:
        inv_k = 1.0 / k_since
        blas.copy(self.x_sum, self.x_avg)
        blas.scal(inv_k, self.x_avg)
        blas.copy(self.y_sum, self.y_avg)
        blas.scal(inv_k, self.y_avg)

    def residuals(self, which: str) -> tuple[float, float, float, float]:
        x_c, y_c = self._pair(which)
        with self.plan.section("check.primal"):
            self._spmv(x_c, self.chk_m)
            _scaled_residual_kernel(
                self.dev, self.tmp_m, self.chk_m, self.b, self.inv_row,
                positive_part=False, name="pdhg.residual_primal",
            )
        rp = blas.nrm2(self.tmp_m)
        with self.plan.section("check.dual"):
            self._spmv_t(y_c, self.chk_n)
            _scaled_residual_kernel(
                self.dev, self.tmp_n, self.chk_n, self.c, self.inv_col,
                positive_part=True, name="pdhg.residual_dual",
            )
        rd = blas.nrm2(self.tmp_n)
        pobj = blas.dot(self.c, x_c)
        dobj = blas.dot(self.b, y_c)
        return rp, rd, pobj, dobj

    def displacement(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """Δx, Δy built on the device, downloaded and mapped to prep space
        (the two downloads are charged as device-to-host transfers)."""
        x_c, y_c = self._pair(which)
        blas.copy(x_c, self.tmp_n)
        blas.axpy(-1.0, self.x_rst, self.tmp_n)
        dx = self.tmp_n.copy_to_host().astype(np.float64) * self.sc.col_scale
        blas.copy(y_c, self.tmp_m)
        blas.axpy(-1.0, self.y_rst, self.tmp_m)
        dy = self.tmp_m.copy_to_host().astype(np.float64) * self.sc.row_scale
        return dx, dy

    def restart(self, which: str) -> None:
        if which != "cur":
            x_c, y_c = self._pair(which)
            blas.copy(x_c, self.x)
            blas.copy(y_c, self.y)
        blas.copy(self.x, self.x_rst)
        blas.copy(self.y, self.y_rst)
        blas.fill(self.x_sum, 0.0)
        blas.fill(self.y_sum, 0.0)

    def accept(self, which: str) -> None:
        x_c, y_c = self._pair(which)
        blas.copy(x_c, self.x_best)
        blas.copy(y_c, self.y_best)

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.x_best.copy_to_host().astype(np.float64),
            self.y_best.copy_to_host().astype(np.float64),
        )

    def free(self) -> None:
        for name in ("region", *(v for v, _, _ in _VECTORS)):
            arr = getattr(self, name, None)
            if arr is not None and not arr.is_freed:
                arr.free()
