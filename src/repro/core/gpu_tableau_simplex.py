"""Full-tableau simplex on the simulated GPU — the A3 ablation design point.

The tableau method updates the *entire* m×n tableau with one rank-1 GER per
pivot.  On a GPU this is the maximally parallel formulation (m·n threads,
perfect device fill), but it does Θ(mn) work per iteration where the revised
method does Θ(m² + pricing); the A3 experiment measures where each wins.

Device layout: the tableau T is placed **column-major** (the per-iteration
entering column load is the hot read, and d = c − Tᵀc_B walks contiguous
columns, k warps per column), so the pivot row's read and write stride across
columns and pay a 64-byte segment per element — the classic layout trade
the paper's discussion of coalescing covers.

The loop runs in batches, as the revised device placement's does: the
pricing reduction, the column extract and the ratio test run on the
device, the ratio test leaves (q, d_q, p, θ, α_p) in a slot of the
decision ring, and the pivot's launches read it there; the host reads a
batch of slots back at once and writes nothing.  The basis swap and the
zeroed reduced cost of the entering column are stores of the β-update
launch.

It is the :class:`DeviceTableau` placement of the one simplex loop of
:mod:`repro.simplex.revised`; its ratio test and batching are the
revised device placement's.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.core.gpu_revised_simplex import (
    DevicePlacement,
    StandardBounds,
    refine_basic_solution,
)
from repro.engine import DeviceBackend
from repro.gpu import blas
from repro.gpu.reduce import SLOT_FIELDS, Slot
from repro.result import SolveResult
from repro.simplex.common import PreparedLP
from repro.simplex.pricing import StallSwitch
from repro.simplex.revised import MAX_BATCH, RevisedBackend, Step, swap_basis
from repro.simplex.tableau import TableauPlacement, initial_tableau


class DeviceTableau(TableauPlacement):
    """Device tableau and vectors, and the host basis bookkeeping.

    The work buffers are allocated uninitialised (each is written before
    it is read); the tableau, β, the mask and the basis keys are placed in
    one region with one HtoD copy, behind a leading run for each phase's
    costs (c, then c_B) that :meth:`load_costs` fills with one copy.
    """

    def __init__(self, backend: "GpuTableauSimplex", prep: PreparedLP,
                 dtype: np.dtype):
        super().__init__(backend, prep)
        self.batches, self.marks = 0, []
        self.dev = backend.dev
        self.plan = backend.plan
        self.dtype = dtype
        self.tol_rc, self.tol_piv = backend._tol_rc, backend._tol_piv
        self.refine = backend._policy.refine
        self.tracing = backend.hooks.enabled

    def start(self, basis: np.ndarray, rep=None, beta=None) -> None:
        dev, dtype, prep = self.dev, self.dtype, self.prep
        t_host = initial_tableau(prep, basis)
        m, n_cols = t_host.shape
        self.basis = basis.astype(np.int64).copy()
        self.in_basis = np.zeros(n_cols, dtype=bool)
        self.in_basis[self.basis] = True
        # basics and artificials (which never re-enter) are masked out
        enterable = ~self.in_basis & (np.arange(n_cols) < prep.n_total)
        mask_host = np.where(enterable, 1.0, 0.0)
        self.d = dev.alloc(n_cols, dtype)
        self.work = dev.alloc(n_cols, dtype)
        self.alpha = dev.alloc(m, dtype)
        self.ratios = dev.alloc(m, dtype)
        #: (q, d_q) of the pricing reduction, read by the column extract
        self.choice = dev.alloc(2, dtype)
        #: (row, θ) of the ratio map's arg-min, read by the tie pass
        self.ratio_min = dev.alloc(2, dtype)
        self.tmp_m = dev.alloc(m, dtype)  # the tie pass's keys
        self.row_buf = dev.alloc(n_cols, dtype)
        self.row_norm = dev.alloc(n_cols, dtype)
        hosts = {
            "tableau": t_host, "beta": prep.b, "mask": mask_host,
            "basis_keys": self.basis, "halt": np.zeros(1),
        }
        layout = {"c": ((n_cols,), dtype), "c_b": ((m,), dtype)}
        layout.update({k: (np.shape(h), dtype) for k, h in hosts.items()})
        layout["ring"] = ((MAX_BATCH, SLOT_FIELDS), dtype)
        self.region = region = dev.region(
            layout, column_major=("tableau",), aligned=True
        )
        with dev.timed_section("transfer"):
            region.fill(hosts)
        for name in layout:
            setattr(self, name, region[name])
        self.header = K.BasisHeader(self.mask, self.c_b, self.basis_keys,
                                    self.c, prep.n_total)

    # -- the loop's steps ------------------------------------------------

    pricing_rule = DevicePlacement.pricing_rule

    def load_costs(self, c_full: np.ndarray) -> float:
        """Upload the phase costs (one copy), recompute d = c − c_BᵀT on
        the device; z = c_B·β."""
        c = c_full[: self.tableau.shape[1]]
        with self.dev.timed_section("transfer"):
            self.region.fill({"c": c, "c_b": c[self.basis]})
        with self.dev.timed_section("pricing"), self.plan.section("pricing.load"):
            blas.copy(self.c, self.d)
            blas.gemv(self.tableau, self.c_b, self.d, alpha=-1.0, beta=1.0, trans=True)
        return blas.dot(self.c_b, self.beta)

    def price(self, rule: StallSwitch) -> None:
        """Masked selection over d, left on the device."""
        with self.dev.timed_section("pricing"), self.plan.section("pricing") as sec:
            K.masked_for_min(self.dev, self.d, self.mask, self.work)
            K.select_entering(sec, self.work, self.choice, self.tol_rc,
                              rule.using_bland)

    def ftran(self) -> None:
        """α is column q of T, q read on the device."""
        with self.dev.timed_section("column"), self.plan.section("column"):
            K.load_entering_column(
                self.dev, self.choice, self.alpha, n_real=self.tableau.shape[1],
                dense=self.tableau,
            )

    ratio = DevicePlacement.ratio
    iterate = DevicePlacement.iterate
    _decode = DevicePlacement._decode

    max_batch = MAX_BATCH

    def apply(self, slot: Slot) -> None:
        """Gauss–Jordan elimination around the (p, q) ``slot`` holds, all
        on-device, every launch reading the slot (and doing nothing unless
        it holds a pivot).

        The β update runs last: besides the basis swap it stores
        d_q := 0 exactly, after the reduced-cost AXPY."""
        dev = self.dev
        with dev.timed_section("pivot"), self.plan.section("pivot"):
            # normalised pivot row
            K.extract_row(dev, self.tableau, slot, self.row_buf)
            K.scale_row_kernel(dev, self.row_buf, slot, self.row_norm)
            # tableau rank-1 elimination, then rewrite row p
            K.pivot_ger(dev, self.alpha, self.row_norm, self.tableau,
                        alpha=-1.0, slot=slot, name="kernel.tableau_ger")
            K.write_row_kernel(dev, self.tableau, slot, self.row_norm)
            # reduced costs and rhs
            K.pivot_axpy(dev, slot, self.row_norm, self.d,
                         lambda d_q, pivot: -d_q)
            K.update_beta_kernel(dev, self.beta, self.alpha, slot,
                                 self.header, reduced=self.d)

    def update(self, r: Step) -> None:
        swap_basis(self, r.row, r.q)

    phase1_objective = DevicePlacement.phase1_objective

    # -- drive-out (host-driven, device-computed) --------------------------

    def transformed_row(self, p: int) -> np.ndarray:
        """Row p of T over the real columns: one extract, one download."""
        K.extract_row(self.dev, self.tableau, p, self.row_buf)
        return self.row_buf.copy_to_host().astype(np.float64)[: self.prep.n_total]

    def column_pivot(self, j: int, p: int) -> float:
        K.extract_column(self.dev, self.tableau, j, self.alpha)
        return self.alpha.scalar_to_host(p)

    def swap_in(self, p: int, j: int, pivot: float) -> None:
        """Column j enters at row p, with θ = β_p/α_p and d_j read on the
        device into the ring's first slot."""
        slot = Slot(self.ring, 0)
        K.drive_decision(self.dev, slot, p, j, self.alpha, beta=self.beta,
                         reduced=self.d)
        self.apply(slot)
        swap_basis(self, p, j)

    # -- finish ------------------------------------------------------------

    def solution(self, result: SolveResult) -> np.ndarray:
        """x_B downloaded in fp64, refined with mixed precision
        (:func:`refine_basic_solution`): with no factorisation of B on the
        device, the correction solves run on the host against the fp64
        basis matrix (uncharged, as the revised method's refactorisations
        are), so the download is the only device traffic."""
        x64 = self.beta.copy_to_host().astype(np.float64)
        if not self.refine:
            return x64
        return refine_basic_solution(
            result, self.prep, self.basis, x64, np.linalg.solve, self.prep.b
        )

    free = DevicePlacement.free


class GpuTableauSimplex(RevisedBackend, DeviceBackend):
    """Two-phase full-tableau simplex on the simulated SIMT device."""

    name = "gpu-tableau"
    accepts_warm_start = False
    standard = StandardBounds()

    # Defined on the class itself, as profilers that wrap a backend class's
    # own methods expect.
    begin = RevisedBackend.begin
    run_phase = RevisedBackend.run_phase

    def _place(self, prep: PreparedLP, dtype: np.dtype) -> DeviceTableau:
        return DeviceTableau(self, prep, dtype)
