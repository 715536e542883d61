"""The device placement of the revised simplex: the paper's solver.

:class:`DevicePlacement` runs each step of the one loop in
:mod:`repro.simplex.revised` on the (simulated) GPU, with the plan
sections and kernels its schedule table lists.  Data placement follows the
IPDPS 2009 design: the constraint matrix A (dense m×n placed column-major,
as the paper's cuBLAS code holds it, or CSC when the input is sparse,
priced by one ``spmv_csc_t`` launch), the dense row-major basis inverse
B⁻¹, β, the simplex multipliers π, the pricing vector and all scratch
buffers live in device global memory for the whole solve; the host only
sees per-iteration scalars and drives control flow.  Pricing's GEMVᵀ
walks the contiguous columns of A and the column load reads one
contiguous column; FTRAN's GEMV walks the rows of B⁻¹.  Both GEMVs split
each line over k warps, as many as fill the device (k = 4 at m = 128), so
they run near full bandwidth from m = 64 up; the stale-π multiply B⁻ᵀc_B
runs 16-column tiles across B⁻¹'s rows (:mod:`repro.gpu.blas`).
:meth:`DevicePlacement.start` places the data with one HtoD copy into one
device region, after the begin settled the starting basis (crash or warm)
on the host; each phase's cost load and each rebuild is one more copy,
and work buffers are never zero-filled, since each is written before it
is read.  In the pivot loop the host writes nothing and reads back once
per batch of iterations: pricing leaves its choice on the device
(``NO_INDEX`` when no column prices in), the column load, FTRAN and the
ratio test run without waiting for the host, the ratio test leaves the
iteration's decision in a slot of a device-resident ring, and the update
launches read it there and form the basis swap's stores themselves
(:meth:`DevicePlacement.iterate`).  A verdict halts the rest of its
batch, whose launches are charged as empty ones; each phase's last
iteration also pays for its column load, FTRAN and ratio test.

B⁻¹ is the one basis representation on the device, sparse input too (F8
measures how fast it fills in under the rank-1 updates).  It is rebuilt on
the host and uploaded with a PCIe-charged copy, as 2009-era codes did.  A
bounds strategy picked from the data shapes the rest:
:class:`StandardBounds` (x ≥ 0) or, when the LP has a finite upper
bound, :class:`BoxedBounds` (the bounds on the device, a signed pricing
map, the three-way bounded ratio map, and a bound flip chosen on the
device that moves only β and σ — no basis update, no change to π).

Runs as a :class:`~repro.engine.backend.DeviceBackend` on the shared
:mod:`repro.engine` lifecycle (which also guarantees the device state is
freed on every exit path).
"""

from __future__ import annotations

import collections

import numpy as np

from repro.core import gpu_kernels as K
from repro.engine import DeviceBackend, attach_standard_solution
from repro.gpu import blas
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray, DeviceRegion
from repro.gpu.reduce import (
    D_Q, FLIPPED, OPTIMAL, PIVOT, Q, ROW, SIGMA, SLOT_FIELDS, STATUS, THETA,
    TIES, TO_UPPER, UNBOUNDED, Slot,
)
from repro.gpu.sparse_kernels import DeviceCscMatrix, spmv_csc_t
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import SolveResult
from repro.simplex.basis import ExplicitInverseBasis, Multipliers
from repro.simplex.common import PreparedLP
from repro.simplex.options import SolverOptions
from repro.simplex.pricing import StallSwitch
from repro.simplex.revised import (
    MAX_BATCH, BoxedRules, RevisedBackend, StandardRules, Step, swap_basis,
)


class StandardBounds(StandardRules):
    """Bounds strategy: every column rests at its lower bound 0.

    Pricing masks basic columns out, the ratio test is the one-sided map,
    and a pivot's β update carries the basis swap.
    """

    #: A ratio test that finds no blocking row ends the phase.
    unbounded_halts = True

    def alloc(self, st: "DevicePlacement") -> None:
        pass

    def hosts(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        return {}

    def rebuild_layout(self, st: "DevicePlacement") -> dict:
        return {}

    def rebuild_hosts(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        return {}

    def price_map(self, st: "DevicePlacement") -> None:
        K.masked_for_min(st.dev, st.d, st.mask, st.tmp_n)

    def ratio_map(self, st: "DevicePlacement") -> None:
        K.ratio_kernel(st.dev, st.beta, st.alpha, st.ratios, st.tol_piv)

    def gathered(self, st: "DevicePlacement") -> tuple[DeviceArray, ...]:
        """Buffers whose row-p entry the ratio test stores in its slot."""
        return (st.alpha,)

    def move(self, st: "DevicePlacement", slot: Slot) -> None:
        """β and the basis swap of the pivot ``slot`` holds."""
        K.update_beta_kernel(st.dev, st.beta, st.alpha, slot, st.header)

    def drive_beta(self, st: "DevicePlacement") -> DeviceArray:
        """A drive-out pivot moves β by θ = β_p/α_p."""
        return st.beta

    def rhs(self, st: "DevicePlacement") -> DeviceArray:
        return st.b


class BoxedBounds(BoxedRules):
    """Bounds strategy: finite upper bounds handled natively.

    The device holds σ (−1 for a nonbasic at its upper bound), u_B, the
    ratio map's ``to_upper`` and the upper bounds u of the real columns
    (in fp64, as the host holds them).  The ratio test gathers
    to_upper[p] into the decision slot, and the update launch chooses
    between a bound flip and a pivot on the device
    (:func:`~repro.core.gpu_kernels.bounded_update_beta_kernel`), so a flip
    issues the same launches as a pivot and the ones after the β update
    do nothing.
    """

    #: With no blocking row q may still flip: the update launch decides.
    unbounded_halts = False

    def alloc(self, st: "DevicePlacement") -> None:
        self.begin(st)
        st.to_upper = st.dev.alloc(st.prep.m, st.dtype)

    def hosts(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        """σ (every column starts at 0), u_B of the starting basis and u."""
        return {
            "sigma": np.ones(st.prep.n_total, dtype=st.dtype),
            "u_basis": st.u[st.basis].astype(st.dtype),
            "upper": st.u[: st.prep.n_total],
        }

    def rebuild_layout(self, st: "DevicePlacement") -> dict:
        """The buffer :meth:`rebuild_hosts` fills, reserved at begin."""
        return {"b_eff": ((st.prep.m,), st.dtype)}

    def rebuild_hosts(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        """The effective rhs, formed on the host and uploaded with the
        rebuilt basis representation."""
        return {"b_eff": self.effective_b(st).astype(st.dtype)}

    def price_map(self, st: "DevicePlacement") -> None:
        K.masked_signed_for_min(st.dev, st.d, st.mask, st.sigma, st.tmp_n)

    def ratio_map(self, st: "DevicePlacement") -> None:
        K.bounded_ratio_kernel(
            st.dev, st.beta, st.alpha, st.u_basis, st.sigma,
            st.choice, st.tol_piv, st.ratios, st.to_upper,
        )

    def gathered(self, st: "DevicePlacement") -> tuple[DeviceArray, ...]:
        return (st.alpha, st.to_upper)

    def move(self, st: "DevicePlacement", slot: Slot) -> None:
        """The flip or pivot ``slot`` holds: β, σ, u_B and the swap."""
        K.bounded_update_beta_kernel(
            st.dev, st.beta, st.alpha, slot, st.header,
            st.sigma, st.upper, st.u_basis,
        )

    def drive_beta(self, st: "DevicePlacement") -> None:
        """A drive-out swap is degenerate: θ = 0, and the entering
        variable keeps its resting value."""
        return None

    def rhs(self, st: "DevicePlacement") -> DeviceArray:
        return st.b_eff


class DevicePlacement:
    """Device-resident solver state plus the host-side basis bookkeeping.

    The basis representation is the paper's dense m×m B⁻¹, resident on the
    device.  FTRAN is one GEMV, π is kept by
    :class:`~repro.simplex.basis.Multipliers` (one GEMVᵀ when stale, an
    AXPY from the pivot row otherwise), a pivot is an η kernel, a row
    extract and a rank-1 GER, and a rebuild solves B⁻¹ on the host and
    uploads it.  ``updates`` counts the GER updates since the last rebuild.

    The work buffers are allocated here, uninitialised: each is written
    before it is read.  :meth:`start` then places the data in one region.
    The bounds strategy adds its own buffers (``alloc``) and uploads
    (``hosts``).  A failed allocation (device OOM) releases whatever was
    already allocated before re-raising.
    """

    #: Iterations issued per readback at most.
    max_batch = MAX_BATCH
    #: The nonbasics resting at their upper bound (boxed bounds only).
    at_upper = None

    def __init__(self, backend: "GpuRevisedSimplex", prep: PreparedLP,
                 dtype: np.dtype):
        self.prep = prep
        self.dev = dev = backend.dev
        self.plan = backend.plan
        self.dtype = dtype
        self.options = backend.options
        self.bounds = bounds = backend.bounds
        self.tol_rc, self.tol_piv = backend._tol_rc, backend._tol_piv
        self.refine = backend._policy.refine
        self.tracing = backend.hooks.enabled
        self.fill_every = backend._fill_every
        self.fill_curve: list[tuple[int, float]] = []
        #: B⁻¹'s fill after each update of the batch (``fill_every`` only)
        self.fills: "collections.deque[float]" = collections.deque()
        self.steps = 0
        m, n = prep.m, prep.n_total

        self.a_sparse: DeviceCscMatrix | None = None
        self.a_dense: DeviceArray | None = None
        try:
            self.pi = dev.alloc(m, dtype)
            self.d = dev.alloc(n, dtype)
            self.tmp_n = dev.alloc(n, dtype)
            self.tmp_m = dev.alloc(m, dtype)
            self.a_q = dev.alloc(m, dtype)
            self.alpha = dev.alloc(m, dtype)
            self.ratios = dev.alloc(m, dtype)
            #: (q, d_q) of the pricing reduction, read by the column load
            #: (and, boxed, by the ratio map)
            self.choice = dev.alloc(2, dtype)
            #: (row, θ) of the ratio map's arg-min, read by the tie pass
            self.ratio_min = dev.alloc(2, dtype)
            bounds.alloc(self)
            self.eta = dev.alloc(m, dtype)
            self.row_p = dev.alloc(m, dtype)
        except Exception:
            self.free()
            raise
        self.multipliers = Multipliers(self.pi, follows_pivots=True)
        self.updates = 0
        self.batches = 0
        self.marks: list[tuple[float, dict]] = []

    # -- data access --------------------------------------------------------

    def multiply_at(self, x: DeviceArray, out: DeviceArray, **kw) -> None:
        """out := alpha·Aᵀx + beta·out (GEMVᵀ or SpMVᵀ)."""
        if self.a_sparse is not None:
            spmv_csc_t(self.a_sparse, x, out, **kw)
        else:
            blas.gemv(self.a_dense, x, out, trans=True, **kw)

    def load_column(self, j: int) -> None:
        """a_q := column j (real column or synthesised artificial e_i)."""
        n = self.prep.n_total
        if j >= n:
            K.unit_vector(self.dev, self.a_q, j - n)
        elif self.a_sparse is not None:
            self.a_sparse.getcol_device(j, self.a_q)
        else:
            K.extract_column(self.dev, self.a_dense, j, self.a_q)

    # -- begin -------------------------------------------------------------

    def start(self, basis: np.ndarray, rep=None, beta=None) -> None:
        """Place the solve's data with one HtoD copy: A (dense or CSC), b,
        β, the mask and basis keys, the bounds' σ, u_B and u, the batch
        status word (cleared), and last B⁻¹ — the crash basis' identity, or
        a warm start's ``rep`` with its ``beta``.

        Every buffer the region holds becomes an attribute of the
        placement.  It also reserves, uninitialised, a leading run for each
        phase's costs (c over the real columns, then c_B; :meth:`load_costs`),
        a run for what the bounds upload with a rebuild, so each of those
        later uploads is one copy too, and last the decision ring.
        """
        prep, dtype = self.prep, self.dtype
        m, n = prep.m, prep.n_total
        self.basis = basis.astype(np.int64).copy()
        self.in_basis = np.zeros(n + m, dtype=bool)
        self.in_basis[self.basis] = True
        if prep.is_sparse:
            hosts = DeviceCscMatrix.arrays(prep.a, dtype)
        else:
            hosts = {"a_dense": np.asarray(prep.a, dtype=dtype)}
        hosts["b"] = prep.b.astype(dtype)
        hosts["beta"] = (prep.b if beta is None else beta).astype(dtype)
        hosts["mask"] = np.where(self.in_basis[:n], 0.0, 1.0).astype(dtype)
        hosts["basis_keys"] = self.basis.astype(dtype)
        hosts.update(self.bounds.hosts(self))
        hosts["halt"] = np.zeros(1, dtype)
        hosts["binv"] = (np.eye(m) if rep is None else rep.binv).astype(dtype)
        layout = {"c_real": ((n,), dtype), "c_b": ((m,), dtype)}
        layout.update({k: (h.shape, h.dtype) for k, h in hosts.items()})
        layout.update(self.bounds.rebuild_layout(self))
        # the decision ring: slot i holds iteration i of a batch
        layout["ring"] = ((MAX_BATCH, SLOT_FIELDS), dtype)
        self.region = region = self.dev.region(
            layout, column_major=() if prep.is_sparse else ("a_dense",),
            aligned=True,
        )
        with self.dev.timed_section("transfer"):
            region.fill(hosts)
        for name in layout:
            if "." not in name:  # the CSC arrays belong to a_sparse
                setattr(self, name, region[name])
        if prep.is_sparse:
            self.a_sparse = DeviceCscMatrix(prep.a, region)
        self.header = K.BasisHeader(self.mask, self.c_b, self.basis_keys,
                                    self.c_real, n)

    def new_basis(self) -> ExplicitInverseBasis:
        """Host factors are uncharged: the upload is what the model prices."""
        return ExplicitInverseBasis(self.prep.m)

    def columns(self, basis: np.ndarray) -> np.ndarray:
        return self.prep.basis_matrix(basis)

    def install(self, rep: ExplicitInverseBasis) -> None:
        """Upload B⁻¹ rebuilt on the host, and with boxed bounds the
        effective rhs, as one copy."""
        hosts = {"binv": rep.binv.astype(self.dtype)}
        hosts.update(self.bounds.rebuild_hosts(self))
        with self.dev.timed_section("transfer"):
            self.region.fill(hosts)
        self.updates = 0

    # -- the loop's steps ------------------------------------------------

    def pricing_rule(self) -> StallSwitch:
        return StallSwitch(self.options.pricing, self.options.stall_window)

    def load_costs(self, c_full: np.ndarray) -> float:
        """Upload c over the real columns and c_B (one copy); z = c_B·β."""
        n = self.prep.n_total
        with self.dev.timed_section("transfer"):
            self.region.fill({"c_real": c_full[:n], "c_b": c_full[self.basis]})
        return blas.dot(self.c_b, self.beta)

    def price(self, rule: StallSwitch) -> None:
        """π;  d = c − Aᵀπ;  masked selection, left on the device."""
        with self.dev.timed_section("pricing"), self.plan.section("pricing") as sec:
            if self.multipliers.refresh():
                blas.gemv(self.binv, self.c_b, self.pi, trans=True)
            blas.copy(self.c_real, self.d)
            self.multiply_at(self.pi, self.d, alpha=-1.0, beta=1.0)
            self.bounds.price_map(self)
            K.select_entering(
                sec, self.tmp_n, self.choice, self.tol_rc, rule.using_bland
            )

    def ftran(self) -> None:
        """α = B⁻¹a_q, q read on the device."""
        with self.dev.timed_section("ftran"):
            with self.plan.section("ftran"):
                K.load_entering_column(
                    self.dev, self.choice, self.a_q, n_real=self.prep.n_total,
                    dense=self.a_dense, csc=self.a_sparse,
                )
                blas.gemv(self.binv, self.a_q, self.alpha)

    def ratio(self, slot: Slot) -> None:
        """Bland-compatible ratio test: ties break to the lowest
        basic-variable index via a second keyed reduction.  The map's
        arg-min stays on the device, the tie pass reads θ from it, and the
        last pass stores the decision (q, d_q, p, θ, α_p, …) in ``slot``;
        for m ≤ 2·DEFAULT_BLOCK all of it is one launch."""
        dev = self.dev
        with dev.timed_section("ratio"), self.plan.section("ratio") as sec:
            self.bounds.ratio_map(self)
            sec.argmin_to_device(self.ratios, self.ratio_min)
            K.tie_break_key_kernel(
                dev, self.ratios, self.ratio_min, self.basis_keys, self.tmp_m
            )
            sec.ratio_decision(
                self.choice, self.tmp_m, self.ratio_min,
                self.bounds.gathered(self), slot, self.bounds.unbounded_halts,
            )

    def apply(self, slot: Slot) -> None:
        """The update launches of ``slot``'s decision: β and the basis
        swap (the bound flip, when boxed), then B⁻¹ ← E·B⁻¹ by an η
        kernel, the pre-GER row p and a GER, with π += (d_q/α_p)·ρ_p
        from that row.  Each reads the slot, and after anything but a
        pivot the launches past the β update do nothing."""
        dev = self.dev
        with dev.timed_section("update"), self.plan.section("update"):
            self.bounds.move(self, slot)
            K.eta_kernel(dev, self.alpha, slot, self.eta)
            K.extract_row(dev, self.binv, slot, self.row_p)
            K.pivot_axpy(dev, slot, self.row_p, self.pi,
                         lambda d_q, pivot: d_q / pivot)
            K.pivot_ger(dev, self.eta, self.row_p, self.binv, slot=slot,
                        then=self._peek_fill if self.fill_every else None)

    def iterate(self, rule: StallSwitch, k: int) -> list[Step]:
        """Issue ``k`` iterations back to back — pricing, FTRAN, the ratio
        test leaving its decision in slot i of the ring, and the update
        launches reading it — then read the k slots back with one DtoH.
        A verdict halts the batch: the launches after it do nothing."""
        dev, self.marks = self.dev, []
        self.fills = collections.deque()
        self.batches += 1
        with dev.halting(self.halt, self.batches):
            for i in range(k):
                slot = Slot(self.ring, i, self.halt, self.batches)
                self.price(rule)
                self.ftran()
                self.ratio(slot)
                self.apply(slot)
                if self.tracing:  # where each traced iteration ended
                    self.marks.append((dev.clock, dict(dev.stats.sections)))
        with dev.timed_section("transfer"):
            slots = self.ring.head_to_host(k)
        steps = []
        for f in slots:  # up to the verdict: the slots after it are stale
            steps.append(self._decode(f))
            if f[STATUS] in (OPTIMAL, UNBOUNDED):
                break
        return steps

    def _decode(self, f: np.ndarray) -> Step:
        """The :class:`Step` a read-back slot holds."""
        status = f[STATUS]
        if status == OPTIMAL:
            return Step(-1)
        q, d_q, sigma = int(f[Q]), float(f[D_Q]), float(f[SIGMA])
        if status == FLIPPED:
            return Step(q, d_q, sigma, -1, float(self.u[q]))
        return Step(
            q, d_q, sigma, int(f[ROW]), float(f[THETA]), float(f[PIVOT]),
            int(f[TIES]), bool(f[TO_UPPER]),
        )

    def update(self, r: Step) -> None:
        """The host's side of an iteration the device ran: the basis
        header, the bound state and the counters."""
        if r.flip:
            self.bounds.toggle(self, r.q)
        else:
            self._pivoted(r.row, r.q, r.to_upper)
            self.multipliers.update()
        self.steps += 1
        if self.fill_every:
            frac = self.fills.popleft()
            if self.steps % self.fill_every == 0:
                self.fill_curve.append((self.steps, frac))

    def _peek_fill(self) -> None:
        """B⁻¹'s fill after an iteration's update, taken in the GER's body:
        a diagnostic peek at the functional backing store (uncharged), read
        by :meth:`update` when the host replays that iteration."""
        self.fills.append(float(np.mean(np.abs(self.binv.data) > 1e-7)))

    def _pivoted(self, p: int, q: int, to_upper: bool) -> None:
        leaving = swap_basis(self, p, q)
        self.bounds.swap(self, leaving, q, to_upper)
        self.updates += 1

    def needs_rebuild(self) -> bool:
        return False

    def refresh_beta(self) -> None:
        blas.gemv(self.binv, self.bounds.rhs(self), self.beta)
        K.clamp_nonneg_kernel(self.dev, self.beta)

    def resync(self, z: float) -> float:
        """The rebuilt β has been clamped, but the phase objective carries
        on from the running sum."""
        return z

    def phase1_objective(self, z: float) -> float:
        return blas.dot(self.c_b, self.beta)

    # -- drive-out (host-driven, device-computed) --------------------------

    def transformed_row(self, p: int) -> np.ndarray:
        """e_pᵀB⁻¹A over the real columns: row p of B⁻¹ read directly, one
        GEMVᵀ/SpMVᵀ, one download."""
        K.extract_row(self.dev, self.binv, p, self.row_p)
        self.multiply_at(self.row_p, self.tmp_n)
        return self.tmp_n.copy_to_host().astype(np.float64)

    def column_pivot(self, j: int, p: int) -> float:
        self.load_column(j)
        blas.gemv(self.binv, self.a_q, self.alpha)
        return self.alpha.scalar_to_host(p)

    def swap_in(self, p: int, j: int, pivot: float) -> None:
        """Column j enters at row p: the pivot is stored in the ring's
        first slot on the device, and the update launches read it."""
        slot = Slot(self.ring, 0)
        K.drive_decision(self.dev, slot, p, j, self.alpha,
                         beta=self.bounds.drive_beta(self))
        self.apply(slot)
        self._pivoted(p, j, False)

    # -- finish ------------------------------------------------------------

    def extras(self, result: SolveResult) -> None:
        if self.fill_every:
            result.extra["binv_fill"] = list(self.fill_curve)

    def extract(self, result: SolveResult) -> None:
        attach_standard_solution(
            result, self.prep, self.basis, self.solution(result), self.at_upper
        )

    def solution(self, result: SolveResult) -> np.ndarray:
        """x_B downloaded in fp64; with mixed precision refined
        (:func:`refine_basic_solution`) against the rhs the basics see: the
        fp32 correction solves run on the device (dx = B⁻¹r via the
        resident inverse).  Every round trip is transfer-costed and the
        fp32↔fp64 conversions run as :func:`repro.gpu.blas.cast` kernels."""
        x64 = self.beta.copy_to_host().astype(np.float64)
        if not self.refine:
            return x64
        dev, m = self.dev, self.prep.m
        r64 = dev.alloc(m, np.float64)
        r32 = dev.alloc(m, np.float32)
        dx32 = dev.alloc(m, np.float32)

        def correction(basis_matrix: np.ndarray, r: np.ndarray) -> np.ndarray:
            with dev.timed_section("transfer"):
                r64.copy_from_host(r)
            with dev.timed_section("refine"):
                blas.cast(r64, r32)
                blas.gemv(self.binv, r32, dx32)
            return dx32.copy_to_host().astype(np.float64)

        try:
            return refine_basic_solution(
                result, self.prep, self.basis, x64, correction,
                self.bounds.effective_b(self),
            )
        finally:
            for buf in (r64, r32, dx32):
                buf.free()

    def free(self) -> None:
        """Release every device allocation; tolerates partially-constructed
        state (OOM during ``__init__``)."""
        for value in list(vars(self).values()):
            if isinstance(value, (DeviceArray, DeviceRegion)) and not value.is_freed:
                value.free()


def refine_basic_solution(result: SolveResult, prep: PreparedLP,
                          basis: np.ndarray, x64: np.ndarray,
                          correction, b: np.ndarray) -> np.ndarray:
    """fp64 iterative refinement of an fp32 basic solution, the classic
    mixed-precision scheme: fp64 residuals r = b − Bx on the host, up to
    three corrections x += ``correction(B, r)`` ≈ B⁻¹r accumulated in fp64,
    until ‖r‖∞ ≤ 1e-12·(1 + ‖b‖∞).  ``b`` is the rhs the basics see: with
    boxed bounds b_eff = b − Σ_{at upper} a_j·u_j.  Records the step count
    and the final residual in ``result.extra``."""
    m = prep.m
    basis_matrix = np.asarray(prep.basis_matrix(basis), dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    scale = 1.0 + float(np.max(np.abs(b64))) if m else 1.0
    steps = 0
    residual = float(np.max(np.abs(b64 - basis_matrix @ x64))) if m else 0.0
    while steps < 3 and residual > 1e-12 * scale:
        x64 += correction(basis_matrix, b64 - basis_matrix @ x64)
        steps += 1
        residual = float(np.max(np.abs(b64 - basis_matrix @ x64)))
    result.extra["refinement_steps"] = steps
    result.extra["residual_after_refinement"] = residual
    return x64


class GpuRevisedSimplex(RevisedBackend, DeviceBackend):
    """Two-phase revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint's B⁻¹ is factorised on the host and uploaded with the
    data, in the begin's one copy.  A singular or primal-infeasible hint
    falls back to the cold crash basis.
    """

    name = "gpu-revised"
    standard = StandardBounds()
    boxed = BoxedBounds()

    # Defined on the class itself, as profilers that wrap a backend class's
    # own methods expect.
    begin = RevisedBackend.begin
    run_phase = RevisedBackend.run_phase

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
        fill_stats_every: int = 0,
    ):
        """``fill_stats_every > 0`` samples the fraction of non-negligible
        entries of the device-resident B⁻¹ every that-many pivots into
        ``result.extra["binv_fill"]`` — free instrumentation (reads the
        functional backing store; no modeled time is charged), used by the
        F8 fill-in experiment."""
        super().__init__(options, device, gpu_params)
        self._fill_every = int(fill_stats_every)

    def _place(self, prep: PreparedLP, dtype: np.dtype) -> DevicePlacement:
        return DevicePlacement(self, prep, dtype)
