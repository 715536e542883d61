"""The paper's solver: revised simplex on the (simulated) GPU.

Data placement follows the IPDPS 2009 design: the constraint matrix A
(dense m×n, uploaded row-major, or CSC), the basis representation, β, the
simplex multipliers π, the pricing vector and all scratch buffers live in
device global memory for the whole solve; the host only sees
per-iteration scalars (entering/leaving indices, step length, pivot) and
drives control flow.

The iteration is written once here and varies along two axes, each a
small strategy object fixed by the method's class:

- **basis representation** — :class:`ExplicitInverse` (the paper's dense
  B⁻¹, ``gpu-revised`` and ``gpu-revised-bounded``) or
  :class:`~repro.core.gpu_sparse_simplex.DeviceLU` (sparse LU factors plus
  an eta file, ``gpu-revised-sparse``);
- **bounds** — :class:`StandardBounds` (x ≥ 0) or
  :class:`~repro.core.gpu_bounded_simplex.BoxedBounds` (finite upper
  bounds handled natively, ``gpu-revised-bounded``).

Per-iteration kernel schedule (names match the breakdown figure F3); a row
marked *all* runs in every method, the others in the named strategy:

======== ========= =====================================================
section  strategy  kernels
======== ========= =====================================================
pricing  explicit  GEMVᵀ π = B⁻ᵀc_B, only when π is stale
         LU        sparse.btran_lu (π), every iteration
         all       copy of c then GEMVᵀ/SpMVᵀ with β = 1 (d = c − Aᵀπ)
         standard  mask map
         boxed     signed mask map (σ·d, σ = ±1 by resting bound)
         all       device-resident arg-min (q, d_q)
ftran    all       column load reading q on the device (dense extract,
                   CSC scatter or e_i synthesis)
         explicit  GEMV α = B⁻¹a_q
         LU        sparse.ftran_lu
ratio    standard  ratio map kernel, device-resident arg-min
         boxed     bounded ratio map (reads σ_q on the device), arg-min
         all       tie-break map, arg-min whose one readback brings
                   (q, d_q, p, θ, α_p), plus to_upper[p] when boxed;
                   fused and m ≤ 2·DEFAULT_BLOCK, the four are one launch
update   standard  β update kernel (also stores the basis swap: mask
                   bits, c_B entry, basis key)
         boxed     bounded β update (also σ signs and the u_B entry); a
                   bound flip runs it alone and stops there
         explicit  η kernel, row extract ρ_p = e_pᵀB⁻¹, AXPY
                   π += (d_q/α_p)·ρ_p, GER rank-1 B⁻¹ update
         LU        sparse.eta_append
======== ========= =====================================================

Per iteration the host reads one struct back and writes nothing: pricing
leaves its choice on the device (``NO_INDEX`` when no column prices in),
the column load, FTRAN and the ratio test run without waiting for the
host, and the swap's device bookkeeping travels as kernel parameters of
the β update.  The host tests optimality (``q == NO_INDEX``) before
unboundedness (θ = ∞), so each phase's last iteration also pays for its
column load, FTRAN and ratio test.

With the explicit inverse, π is multiplied fresh at the start of each
phase (which also follows a warm-start upload of B⁻¹) and after a rebuild
of B⁻¹, and otherwise updated from the pivot row already extracted for
the GER (:class:`~repro.core.gpu_kernels.Multipliers`).  A terminal
verdict is accepted only from a freshly multiplied π: when an updated π
prices every column out, or picks a column with no blocking row, the
iteration is redone after a fresh multiply, and is not counted.  A phase
therefore pays one extra iteration at its end, or more only if a fresh π
contradicts an updated one.

Phase 1 uses implicit artificial columns (e_i synthesised on demand);
phase 2 reuses the phase-1 basis representation, exactly as in the
paper.  The explicit inverse is rebuilt every ``refactor_period`` pivots
on the host, with PCIe-charged round trips, as 2009-era codes did.

Runs as a :class:`~repro.engine.backend.DeviceBackend` on the shared
:mod:`repro.engine` lifecycle (which also guarantees the device state is
freed on every exit path).
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.engine import DeviceBackend, attach_standard_solution
from repro.errors import SingularBasisError
from repro.gpu import blas
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.reduce import NO_INDEX
from repro.gpu.sparse_kernels import DeviceCscMatrix, spmv_csc_t
from repro.lp.problem import LPProblem
from repro.lp.standard_form import StandardFormLP
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import IterationStats, SolveResult
from repro.simplex.common import (
    PreparedLP,
    initial_basis,
    phase1_costs,
    phase2_costs,
    prepare,
    validate_warm_basis,
)
from repro.simplex.options import SolverOptions
from repro.simplex.pricing import StallSwitch
from repro.status import SolveStatus


class ExplicitInverse:
    """Basis strategy: the dense m×m B⁻¹ resident on the device.

    FTRAN is one GEMV, π is kept by :class:`~repro.core.gpu_kernels.Multipliers`
    (multiplied when stale, updated from the pivot row otherwise), a pivot
    is an η kernel, a row extract and a rank-1 GER, and a rebuild solves
    B⁻¹ on the host and uploads it.  ``st.etas`` counts the GER updates
    since the last rebuild.
    """

    #: The rebuilt β has been clamped, but the phase objective carries on
    #: from the running sum.
    resyncs_objective = False

    def prepared(self, prep: PreparedLP) -> PreparedLP:
        return prep

    def arm_meta(self, prep: PreparedLP) -> dict:
        return {}

    def place(self, st: "_State") -> None:
        """Uploads inside the state's first transfer section."""
        st.binv = st.dev.to_device(np.eye(st.prep.m), st.dtype)

    def alloc(self, st: "_State") -> None:
        """Work buffers, allocated after the shared ones."""
        st.eta = st.dev.zeros(st.prep.m, st.dtype)
        st.row_p = st.dev.zeros(st.prep.m, st.dtype)
        st.multipliers = K.Multipliers(st.binv, st.c_b, st.pi)
        st.etas = 0

    def factor_warm(self, st: "_State", warm: np.ndarray):
        """Host trial factorisation of a warm-start basis: ``(B⁻¹b,
        upload)``, where ``upload(β)`` places the factors and β on the
        device, or ``None`` when the basis is singular."""
        m = st.prep.m
        try:
            binv = np.linalg.solve(st.prep.basis_matrix(warm), np.eye(m))
        except np.linalg.LinAlgError:
            return None

        def upload(beta: np.ndarray) -> None:
            with st.dev.timed_section("transfer"):
                st.binv.copy_from_host(binv.astype(st.dtype))
                st.beta.copy_from_host(beta)

        return binv @ st.prep.b, upload

    # -- π ------------------------------------------------------------------

    def invalidate(self, st: "_State") -> None:
        st.multipliers.invalidate()

    def refresh_pi(self, st: "_State") -> None:
        st.multipliers.refresh()

    def confirms(self, st: "_State") -> bool:
        return st.multipliers.confirms()

    # -- solves and updates -------------------------------------------------

    def ftran(self, st: "_State") -> None:
        blas.gemv(st.binv, st.a_q, st.alpha)

    def host_pivot(self, st: "_State", solved, p: int) -> float:
        return st.alpha.scalar_to_host(p)

    def rejects(self, solved, p: int, tol_piv: float) -> bool:
        return False

    def inverse_row(self, st: "_State", p: int) -> DeviceArray:
        """e_pᵀB⁻¹ into a device buffer: row p of B⁻¹ read directly."""
        K.extract_row(st.dev, st.binv, p, st.row_p)
        return st.row_p

    def update(
        self,
        st: "_State",
        p: int,
        pivot: float,
        solved,
        tol_piv: float,
        stores: K.ScalarStores = K.ScalarStores(),
        d_q: "float | None" = None,
    ) -> None:
        """B⁻¹ ← E·B⁻¹; with ``d_q``, π follows from the pre-GER row p."""
        K.eta_kernel(st.dev, st.alpha, p, pivot, st.eta, stores)
        K.extract_row(st.dev, st.binv, p, st.row_p)
        if d_q is not None:
            st.multipliers.update(d_q, pivot, st.row_p)
        blas.ger(st.eta, st.row_p, st.binv)
        st.etas += 1

    def eta_count(self, st: "_State") -> int:
        return st.etas

    def refactor_due(self, st: "_State", iters: int, period: int) -> bool:
        return bool(period) and iters % period == 0

    def refactor(self, st: "_State") -> None:
        """Rebuild B⁻¹ exactly on the host (PCIe round trip), refresh β;
        π is multiplied afresh at the next pricing."""
        b_matrix = st.prep.basis_matrix(st.basis)
        binv = np.linalg.solve(b_matrix, np.eye(st.prep.m))
        with st.dev.timed_section("transfer"):
            st.binv.copy_from_host(binv.astype(st.dtype))
        blas.gemv(st.binv, st.b, st.beta)
        K.clamp_nonneg_kernel(st.dev, st.beta)
        st.multipliers.invalidate()
        st.etas = 0

    def extras(self, st: "_State", result: SolveResult) -> None:
        pass

    def free(self, st: "_State") -> None:
        pass


class StandardBounds:
    """Bounds strategy: every column rests at its lower bound 0.

    Pricing masks basic columns out, the ratio test is the one-sided map,
    and a pivot's β update carries the basis swap.
    """

    range_bounds_as_rows = True
    #: A rebuild may recompute β = B⁻¹b.
    rebuilds_beta = True

    def place(self, st: "_State") -> None:
        pass

    def alloc(self, st: "_State") -> None:
        pass

    def upload_basis(self, st: "_State") -> None:
        pass

    def price_map(self, st: "_State") -> None:
        K.masked_for_min(st.dev, st.d, st.mask, st.tmp_n)

    def ratio_map(self, st: "_State", tol_piv: float) -> None:
        K.ratio_kernel(st.dev, st.beta, st.alpha, st.ratios, tol_piv)

    def gathered(self, st: "_State") -> tuple[DeviceArray, ...]:
        """Buffers whose row-p entry rides on the ratio readback."""
        return (st.alpha,)

    def step(self, st: "_State", q: int, d_q: float, theta: float):
        """(d_q, σ, θ, flip): the signed step the ratio test found."""
        return d_q, 1.0, theta, False

    def pivot(self, st, p, q, c_q, theta, sigma, gathered) -> None:
        swap = K.basis_swap(st, p, q, c_q, st.prep.n_total)
        K.update_beta_kernel(st.dev, st.beta, st.alpha, theta, p, swap)

    def drive_swap(self, st, p: int, j: int, pivot: float) -> K.ScalarStores:
        """Swap artificial row p for column j and move β; returns stores
        left for the basis update's first launch."""
        theta = st.beta.scalar_to_host(p) / pivot
        swap = K.basis_swap(st, p, j, 0.0, st.prep.n_total)
        K.update_beta_kernel(st.dev, st.beta, st.alpha, theta, p, swap)
        return K.ScalarStores()

    def extras(self, st: "_State", result: SolveResult) -> None:
        pass

    def extract(self, backend: "GpuRevisedSimplex", result: SolveResult) -> None:
        st = backend._st
        if backend._policy.refine:
            beta_host = backend._refined_beta(result)
        else:
            beta_host = st.beta.copy_to_host().astype(np.float64)
        attach_standard_solution(result, backend.prep, st.basis, beta_host)


class GpuRevisedSimplex(DeviceBackend):
    """Two-phase revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint's B⁻¹ is factorised on the host and uploaded (one PCIe
    round trip — exactly how a CUDA port would warm-start).  A singular or
    primal-infeasible hint falls back to the cold crash basis.

    The class also carries the shared device loop: a subclass picks its
    basis representation (``basis_rep``) and bounds handling (``bounds``).
    """

    name = "gpu-revised"
    accepts_warm_start = True
    basis_rep = ExplicitInverse()
    bounds = StandardBounds()

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

    # -- engine backend interface --------------------------------------

    def begin(self, problem: "LPProblem | StandardFormLP", warm_hint) -> None:
        opts = self.options
        basis_rep = self.basis_rep
        self.prep = prep = basis_rep.prepared(prepare(
            problem, opts, range_bounds_as_rows=self.bounds.range_bounds_as_rows
        ))
        dtype = self._start_machine()

        m, n = prep.m, prep.n_total
        self._st = st = _State(prep, self.dev, dtype, basis_rep, self.bounds)
        self.stats = stats = IterationStats()
        basis, needs_phase1 = initial_basis(prep)
        st.init_basis(basis)
        self._arm(m=m, n=n, pricing=opts.pricing, **basis_rep.arm_meta(prep))
        self._global_iter = 0
        self._fill_curve: list[tuple[int, float]] = []

        if warm_hint is not None:
            warm = validate_warm_basis(prep, warm_hint)
            trial = basis_rep.factor_warm(st, warm)
            if trial is not None and trial[0].min() >= -1e-7:
                warm_beta, upload = trial
                st.init_basis(warm)
                upload(np.clip(warm_beta, 0.0, None).astype(dtype))
                needs_phase1 = bool(np.any(warm >= n))
                stats.refactorizations += 1

        self.needs_phase1 = needs_phase1
        return None

    def run_phase(self, phase: int) -> tuple[SolveStatus, int]:
        c_full = phase1_costs(self.prep) if phase == 1 else phase2_costs(self.prep)
        return self._run_phase(c_full, phase)

    def phase1_objective(self) -> float:
        return blas.dot(self._st.c_b, self._st.beta)

    # ------------------------------------------------------------------

    def _run_phase(
        self, c_full: np.ndarray, phase: int
    ) -> tuple[SolveStatus, int]:
        opts = self.options
        st, stats = self._st, self.stats
        basis_rep, bounds = self.basis_rep, self.bounds
        dev = st.dev
        m, n = st.prep.m, st.prep.n_total
        cap = opts.iteration_cap(m, n)
        tol_rc, tol_piv = self._tol_rc, self._tol_piv
        switch = StallSwitch(opts.pricing, opts.stall_window)
        tr = self.hooks if self.hooks.enabled else None

        st.load_phase_costs(c_full)
        z = blas.dot(st.c_b, st.beta)
        iters = 0

        def record(event: str, **fields) -> None:
            tr.record(
                phase=phase, iteration=iters, event=event,
                pricing_rule=switch.label, eta_count=basis_rep.eta_count(st),
                objective=float(z), **fields,
            )

        def finish(status: SolveStatus, event: "str | None" = None, **fields):
            stats.bland_activations += switch.activations
            if tr is not None and event is not None:
                record(event, **fields)
            return status, iters

        while iters < cap:
            iters += 1

            # -- pricing: π;  d = c − Aᵀπ;  masked selection, left on the
            #    device
            with dev.timed_section("pricing"), self.plan.section("pricing") as sec:
                basis_rep.refresh_pi(st)
                blas.copy(st.c_real, st.d)
                st.multiply_at(st.pi, st.d, alpha=-1.0, beta=1.0)
                bounds.price_map(st)
                K.select_entering(sec, st.tmp_n, st.choice, tol_rc, switch.using_bland)

            # -- ftran: α = B⁻¹ a_q, q read on the device
            with dev.timed_section("ftran"):
                with self.plan.section("ftran"):
                    st.load_entering()
                    solved = basis_rep.ftran(st)

            # -- ratio test (Bland-compatible: ties break to the lowest
            #    basic-variable index via a second keyed reduction).  The
            #    map's arg-min stays on the device, the tie pass reads θ
            #    from it, and one readback returns (q, d_q, p, θ, α_p, …);
            #    for m ≤ 2·DEFAULT_BLOCK all of it is one launch.
            with dev.timed_section("ratio"), self.plan.section("ratio") as sec:
                bounds.ratio_map(st, tol_piv)
                sec.argmin_to_device(st.ratios, st.ratio_min)
                K.tie_break_key_kernel(
                    dev, st.ratios, st.ratio_min, st.basis_keys, st.tmp_m
                )
                q, d_q, p, theta, gathered = sec.ratio_readback(
                    st.choice, st.tmp_m, st.ratio_min, bounds.gathered(st)
                )
            pivot = gathered[0]
            if q != NO_INDEX:
                d_q, sigma, theta, flip = bounds.step(st, q, d_q, theta)
            terminal = q == NO_INDEX or not np.isfinite(theta)
            if terminal and not basis_rep.confirms(st):
                iters -= 1  # verify with a fresh π; the redo is not counted
                continue
            if q == NO_INDEX:
                return finish(SolveStatus.OPTIMAL, "optimal")
            if not np.isfinite(theta):
                return finish(SolveStatus.UNBOUNDED, "unbounded", entering=int(q))
            degenerate = theta <= opts.tol_zero
            if degenerate:
                stats.degenerate_steps += 1
            if tr is not None:
                # Uncharged diagnostic peeks (host reads of the functional
                # backing store): leaving variable before the basis swap,
                # ratio-test tie count below the Harris-style cut.
                peek = {} if flip else dict(
                    leaving_row=int(p), leaving_var=int(st.basis[p]),
                    pivot=float(pivot),
                    ratio_ties=int(np.count_nonzero(st.ratios.data <= K.tie_cut(theta))),
                )

            if not flip and basis_rep.rejects(solved, p, tol_piv):
                # pivot too small for the factors: refactorise and retry
                if not self._refactor():
                    return finish(
                        SolveStatus.NUMERICAL, "numerical",
                        entering=int(q), leaving_row=int(p),
                    )
                z = blas.dot(st.c_b, st.beta)
                continue

            # -- update: β, basis representation, π, objective; the basis
            #    swap's device stores ride on the β-update launch
            with dev.timed_section("update"), self.plan.section("update"):
                if flip:
                    bounds.flip(st, q, sigma, theta)
                else:
                    bounds.pivot(st, p, q, float(c_full[q]), theta, sigma, gathered)
                    basis_rep.update(st, p, pivot, solved, tol_piv, d_q=d_q)
            z += d_q * sigma * theta
            if tr is not None:
                record(
                    "flip" if flip else "pivot", entering=int(q),
                    theta=float(theta), degenerate=degenerate, **peek,
                )
            self._global_iter += 1
            if self._fill_every and self._global_iter % self._fill_every == 0:
                # diagnostic peek at the functional backing store (uncharged)
                frac = float(np.mean(np.abs(st.binv.data) > 1e-7))
                self._fill_curve.append((self._global_iter, frac))
            switch.notify((-d_q * sigma) * theta > 1e-12 * (1.0 + abs(z)))

            if bounds.rebuilds_beta and basis_rep.refactor_due(
                st, iters, opts.refactor_period
            ):
                if not self._refactor():
                    return finish(SolveStatus.NUMERICAL)
                if basis_rep.resyncs_objective:
                    z = blas.dot(st.c_b, st.beta)

        return finish(SolveStatus.ITERATION_LIMIT)

    def _refactor(self) -> bool:
        try:
            with self.hooks.span("engine.refactor"):
                self.basis_rep.refactor(self._st)
        except SingularBasisError:
            return False
        self.stats.refactorizations += 1
        return True

    # ------------------------------------------------------------------

    def drive_out_artificials(self) -> None:
        """Replace zero-valued artificial basics by real columns (host-driven,
        device-computed): the transformed row e_pᵀB⁻¹A over the real
        columns comes from the basis representation's row p of B⁻¹ and one
        GEMVᵀ/SpMVᵀ."""
        st = self._st
        basis_rep = self.basis_rep
        tol_piv = self._tol_piv
        n = st.prep.n_total
        for p in np.nonzero(st.basis >= n)[0]:
            p = int(p)
            st.multiply_at(basis_rep.inverse_row(st, p), st.tmp_n)
            alpha_row = st.tmp_n.copy_to_host().astype(np.float64)
            eligible = (~st.in_basis[:n]) & (np.abs(alpha_row) > 1e-5)
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                continue  # redundant row; artificial stays basic at zero
            j = int(candidates[np.argmax(np.abs(alpha_row[candidates]))])
            st.load_column(j)
            solved = basis_rep.ftran(st)
            pivot = basis_rep.host_pivot(st, solved, p)
            if abs(pivot) <= tol_piv:
                continue
            stores = self.bounds.drive_swap(st, p, j, pivot)
            basis_rep.update(st, p, pivot, solved, tol_piv, stores)

    # -- finish participation ------------------------------------------

    def standard_extras(self, result: SolveResult) -> None:
        super().standard_extras(result)
        if self._fill_every:
            result.extra["binv_fill"] = list(getattr(self, "_fill_curve", []))
        self.basis_rep.extras(self._st, result)
        self.bounds.extras(self._st, result)

    def extract(self, result: SolveResult) -> None:
        self.bounds.extract(self, result)

    def _refined_beta(self, result: SolveResult) -> np.ndarray:
        """Mixed-precision extraction: fp64 residuals on the host drive
        fp32 correction solves on the device (dx = B⁻¹r via the resident
        inverse), with the solution accumulated in fp64 — the classic
        iterative-refinement scheme.  Every round trip is transfer-costed
        and the fp32↔fp64 conversions run as :func:`repro.gpu.blas.cast`
        kernels."""
        st = self._st
        dev = self.dev
        m = self.prep.m
        basis_matrix = np.asarray(
            self.prep.basis_matrix(st.basis), dtype=np.float64
        )
        b64 = np.asarray(self.prep.b, dtype=np.float64)
        scale = 1.0 + float(np.max(np.abs(b64))) if m else 1.0
        x64 = st.beta.copy_to_host().astype(np.float64)
        steps = 0
        residual = float(np.max(np.abs(b64 - basis_matrix @ x64))) if m else 0.0
        r64 = dev.alloc(m, np.float64)
        r32 = dev.alloc(m, np.float32)
        dx32 = dev.alloc(m, np.float32)
        try:
            while steps < 3 and residual > 1e-12 * scale:
                with dev.timed_section("transfer"):
                    r64.copy_from_host(b64 - basis_matrix @ x64)
                with dev.timed_section("refine"):
                    blas.cast(r64, r32)
                    blas.gemv(st.binv, r32, dx32)
                x64 += dx32.copy_to_host().astype(np.float64)
                steps += 1
                residual = float(np.max(np.abs(b64 - basis_matrix @ x64)))
        finally:
            for buf in (r64, r32, dx32):
                buf.free()
        result.extra["refinement_steps"] = steps
        result.extra["residual_after_refinement"] = residual
        return x64


class _State:
    """Device-resident solver state plus the host-side basis bookkeeping.

    The shared buffers are allocated here; each strategy adds its own
    (``place`` inside the first transfer section, ``alloc`` after the
    shared work buffers).
    """

    def __init__(self, prep: PreparedLP, dev: Device, dtype: np.dtype,
                 basis_rep, bounds):
        self.prep = prep
        self.dev = dev
        self.dtype = dtype
        self.bounds = bounds
        self.basis_rep = basis_rep
        m, n = prep.m, prep.n_total

        self.a_sparse: DeviceCscMatrix | None = None
        self.a_dense: DeviceArray | None = None
        try:
            with dev.timed_section("transfer"):
                if prep.is_sparse:
                    self.a_sparse = DeviceCscMatrix(dev, prep.a, dtype)
                else:
                    self.a_dense = dev.to_device(np.asarray(prep.a), dtype)
                self.b = dev.to_device(prep.b, dtype)
                basis_rep.place(self)
                self.beta = dev.to_device(prep.b, dtype)
                self.c_real = dev.to_device(np.zeros(n), dtype)
                self.c_b = dev.to_device(np.zeros(m), dtype)
                self.mask = dev.to_device(np.ones(n), dtype)
                bounds.place(self)

            self.pi = dev.zeros(m, dtype)
            self.d = dev.zeros(n, dtype)
            self.tmp_n = dev.zeros(n, dtype)
            self.tmp_m = dev.zeros(m, dtype)
            self.basis_keys = dev.zeros(m, dtype)
            self.a_q = dev.zeros(m, dtype)
            self.alpha = dev.zeros(m, dtype)
            self.ratios = dev.zeros(m, dtype)
            #: (q, d_q) of the pricing reduction, read by the column load
            #: (and, boxed, by the ratio map)
            self.choice = dev.alloc(2, dtype)
            #: (row, θ) of the ratio map's arg-min, read by the tie pass
            self.ratio_min = dev.alloc(2, dtype)
            bounds.alloc(self)
            basis_rep.alloc(self)
        except Exception:
            # a failed allocation (device OOM) must not leak what was
            # already placed on the card
            self.free()
            raise

        self.basis = np.zeros(m, dtype=np.int64)
        self.in_basis = np.zeros(n + m, dtype=bool)

    # -- data access --------------------------------------------------------

    def multiply_at(self, x: DeviceArray, out: DeviceArray, **kw) -> None:
        """out := alpha·Aᵀx + beta·out (GEMVᵀ or SpMVᵀ)."""
        if self.a_sparse is not None:
            spmv_csc_t(self.a_sparse, x, out, **kw)
        else:
            blas.gemv(self.a_dense, x, out, trans=True, **kw)

    def load_entering(self) -> None:
        """a_q := the column pricing chose, q read on the device."""
        K.load_entering_column(
            self.dev, self.choice, self.a_q, n_real=self.prep.n_total,
            dense=self.a_dense, csc=self.a_sparse,
        )

    def load_column(self, j: int) -> None:
        """a_q := column j (real column or synthesised artificial e_i)."""
        n = self.prep.n_total
        if j >= n:
            K.unit_vector(self.dev, self.a_q, j - n)
        elif self.a_sparse is not None:
            self.a_sparse.getcol_device(j, self.a_q)
        else:
            K.extract_column(self.dev, self.a_dense, j, self.a_q)

    # -- basis bookkeeping ------------------------------------------------

    def init_basis(self, basis: np.ndarray) -> None:
        self.basis = basis.astype(np.int64).copy()
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        mask_host = np.where(self.in_basis[: self.prep.n_total], 0.0, 1.0)
        with self.dev.timed_section("transfer"):
            self.mask.copy_from_host(mask_host.astype(self.dtype))
            self.basis_keys.copy_from_host(self.basis.astype(self.dtype))
            self.bounds.upload_basis(self)

    def load_phase_costs(self, c_full: np.ndarray) -> None:
        """Upload the phase cost data: c over real columns and c_B."""
        n = self.prep.n_total
        with self.dev.timed_section("transfer"):
            self.c_real.copy_from_host(c_full[:n].astype(self.dtype))
            self.c_b.copy_from_host(c_full[self.basis].astype(self.dtype))
        self.basis_rep.invalidate(self)

    def free(self) -> None:
        """Release every device allocation; tolerates partially-constructed
        state (OOM during ``__init__``)."""
        for arr in list(vars(self).values()):
            if isinstance(arr, DeviceArray) and not arr.is_freed:
                arr.free()
        if self.a_sparse is not None and not self.a_sparse.data.is_freed:
            self.a_sparse.free()
        self.basis_rep.free(self)
