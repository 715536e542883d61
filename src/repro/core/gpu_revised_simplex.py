"""The device placement of the revised simplex: the paper's solver.

:class:`DevicePlacement` runs each step of the one loop in
:mod:`repro.simplex.revised` on the (simulated) GPU, with the plan
sections and kernels its schedule table lists.  Data placement follows the
IPDPS 2009 design: the constraint matrix A (dense m×n placed column-major,
as the paper's cuBLAS code holds it, or CSC), the basis representation
(a row-major B⁻¹ or sparse factors), β, the simplex multipliers π, the
pricing vector and all scratch buffers live in device global memory for
the whole solve; the host only sees per-iteration scalars and drives
control flow.  Pricing's GEMVᵀ walks the contiguous columns of A and the
column load reads one contiguous column; FTRAN's GEMV walks the rows of
B⁻¹.  Both GEMVs split each line over k warps, as many as fill the device
(k = 4 at m = 128), so they run near full bandwidth from m = 64 up; the
stale-π multiply B⁻ᵀc_B runs 16-column tiles across B⁻¹'s rows
(:mod:`repro.gpu.blas`).  :meth:`DevicePlacement.start`
places the data with one HtoD copy into one device region, after the
begin settled the starting basis (crash or warm) on the host; each
phase's cost load and each
rebuild is one more copy, and work buffers are never zero-filled, since
each is written before it is read.  Per iteration the host reads one
struct back and writes nothing: pricing leaves its choice on the device
(``NO_INDEX`` when no column prices in), the column load, FTRAN and the
ratio test run without waiting for the host, and the swap's device
bookkeeping travels as kernel parameters of the β update.  Each phase's
last iteration therefore also pays for its column load, FTRAN and ratio
test.

Two strategies fixed by the method's class shape it:

- **basis representation** — :class:`ExplicitInverse` (the paper's dense
  B⁻¹, rebuilt on the host with PCIe-charged round trips as 2009-era codes
  did; ``gpu-revised`` and ``gpu-revised-bounded``) or :class:`DeviceLU`
  (after Gahrouei & Ghatee, arXiv:1803.04378: CSC data priced by one
  ``spmv_csc_t`` launch, sparse LU factors plus a sparse eta file whose
  device footprint scales with their nonzeros in place of the dense B⁻¹;
  ``gpu-revised-sparse``);
- **bounds** — :class:`StandardBounds` (x ≥ 0) or :class:`BoxedBounds`
  (finite upper bounds on the device, a signed pricing map, the three-way
  bounded ratio map, and a bound flip that costs a single β kernel — no
  basis update, no change to π; ``gpu-revised-bounded``).

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
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray, DeviceRegion
from repro.gpu.reduce import NO_INDEX
from repro.gpu.sparse_kernels import INDEX_BYTES, DeviceCscMatrix, spmv_csc_t
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import SolveResult
from repro.simplex.basis import ExplicitInverseBasis, Multipliers
from repro.simplex.common import PreparedLP
from repro.simplex.options import SolverOptions
from repro.simplex.pricing import StallSwitch
from repro.simplex.revised import BoxedRules, RevisedBackend, Step
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc


class ExplicitInverse:
    """Basis strategy: the dense m×m B⁻¹ resident on the device.

    FTRAN is one GEMV, π is kept by :class:`~repro.simplex.basis.Multipliers`
    (one GEMVᵀ when stale, an AXPY from the pivot row otherwise), a pivot
    is an η kernel, a row extract and a rank-1 GER, and a rebuild solves
    B⁻¹ on the host and uploads it.  ``st.etas`` counts the GER updates
    since the last rebuild.
    """

    #: The rebuilt β has been clamped, but the phase objective carries on
    #: from the running sum.
    resyncs_objective = False

    def alloc(self, st: "DevicePlacement") -> None:
        """Work buffers, allocated after the shared ones."""
        st.eta = st.dev.alloc(st.prep.m, st.dtype)
        st.row_p = st.dev.alloc(st.prep.m, st.dtype)
        st.multipliers = Multipliers(st.pi, follows_pivots=True)
        st.etas = 0

    def hosts(self, st: "DevicePlacement", rep) -> dict[str, np.ndarray]:
        """B⁻¹ to upload: the crash basis' identity, or ``rep``'s."""
        binv = np.eye(st.prep.m) if rep is None else rep.binv
        return {"binv": binv.astype(st.dtype)}

    #: The host representation a rebuild or warm start factors into.
    mirror = ExplicitInverseBasis

    def columns(self, prep: PreparedLP, basis: np.ndarray) -> np.ndarray:
        return prep.basis_matrix(basis)

    def install(self, st: "DevicePlacement", hosts: dict[str, np.ndarray]) -> None:
        """Refill B⁻¹ (and what the bounds upload with it) in place."""
        st.region.fill(hosts)
        st.etas = 0

    def solve(self, st: "DevicePlacement", rhs: DeviceArray,
              out: DeviceArray) -> None:
        blas.gemv(st.binv, rhs, out)

    def multiply(self, st: "DevicePlacement") -> None:
        """π := B⁻ᵀc_B, one GEMVᵀ."""
        blas.gemv(st.binv, st.c_b, st.pi, trans=True)

    def ftran(self, st: "DevicePlacement") -> None:
        blas.gemv(st.binv, st.a_q, st.alpha)

    def host_pivot(self, st: "DevicePlacement", p: int) -> float:
        return st.alpha.scalar_to_host(p)

    def admit(self, st: "DevicePlacement", p: int) -> None:
        """The ratio test's pivot already clears ``tol_pivot``."""

    def inverse_row(self, st: "DevicePlacement", p: int) -> DeviceArray:
        """e_pᵀB⁻¹ into a device buffer: row p of B⁻¹ read directly."""
        K.extract_row(st.dev, st.binv, p, st.row_p)
        return st.row_p

    def update(
        self,
        st: "DevicePlacement",
        p: int,
        pivot: float,
        stores: K.ScalarStores = K.ScalarStores(),
        d_q: "float | None" = None,
    ) -> None:
        """B⁻¹ ← E·B⁻¹; with ``d_q``, π follows from the pre-GER row p."""
        K.eta_kernel(st.dev, st.alpha, p, pivot, st.eta, stores)
        K.extract_row(st.dev, st.binv, p, st.row_p)
        if d_q is not None:
            blas.axpy(d_q / pivot, st.row_p, st.pi)
            st.multipliers.update()
        blas.ger(st.eta, st.row_p, st.binv)
        st.etas += 1

    def updates(self, st: "DevicePlacement") -> int:
        return st.etas

    def needs_rebuild(self, st: "DevicePlacement") -> bool:
        return False


class DeviceLU:
    """Basis strategy: sparse LU factors plus an eta file on the device.

    The device holds a byte buffer standing for the packed LU factors
    (``st.factor_buf``) and one small buffer per sparse eta
    (``st.eta_bufs``).  The triangular solves launch as device kernels
    whose modeled cost scales with ``nnz(L)+nnz(U)+nnz(etas)``; their
    numerics are mirrored by the host ``st.rep`` (uncharged — the
    functional backing store of the device factors, as dense device
    arrays are backed by host ndarrays).  Refactorisation is host work —
    sparse LU pivoting is sequential and branchy — and the fresh factors
    are uploaded over PCIe, which the model charges.  π is solved through
    the factors at every pricing.
    """

    #: A rebuild recomputes β through the fresh factors; the phase
    #: objective is re-read from it.
    resyncs_objective = True

    def alloc(self, st: "DevicePlacement") -> None:
        st.rep = SparseLUBasis(st.prep.m, recorder=None)
        st.eta_bufs = []
        # the region of the rebuilt factors; None while the first factors
        # sit in the placement's region (their slot there stays allocated
        # until the solve ends)
        st.factor_region = None
        st.multipliers = Multipliers(st.pi, follows_pivots=False)

    def hosts(self, st: "DevicePlacement", rep) -> dict[str, np.ndarray]:
        """The packed factors to upload: the crash basis' identity factors,
        or ``rep``'s, which become the mirror.  Refactorisation is host
        work, so fresh factors are a real HtoD transfer in the model."""
        if rep is not None:
            st.rep = rep
        nbytes = max(1, st.rep.lu_nnz * (st.width + INDEX_BYTES))
        return {"factor_buf": np.zeros(nbytes, dtype=np.uint8)}

    #: The host factor mirror a rebuild or warm start factors into.
    mirror = SparseLUBasis

    def columns(self, prep: PreparedLP, basis: np.ndarray):
        return basis_columns_csc(prep, basis)

    def install(self, st: "DevicePlacement", hosts: dict[str, np.ndarray]) -> None:
        """Place the fresh factors (and what the bounds upload with them)
        in a region of their own; frees the stale factors and etas.

        The first factors' slot in the placement's region cannot be freed
        on its own (a region is one allocation), so after the first rebuild
        the device holds that slot, m·(w+4) bytes for the crash basis'
        identity factors, on top of the fresh factors."""
        for buf in st.eta_bufs:
            buf.free()
        st.eta_bufs = []
        if st.factor_region is not None:
            st.factor_region.free()
        st.factor_region = region = st.dev.place(hosts)
        st.factor_buf = region["factor_buf"]
        if "b_eff" in region:
            st.b_eff = region["b_eff"]

    def solve(self, st: "DevicePlacement", rhs: DeviceArray,
              out: DeviceArray) -> None:
        self.lu_solve(st, "ftran", rhs, out)

    def _lu_solve_cost(self, st: "DevicePlacement") -> OpCost:
        # Vector-style level-scheduled triangular solve (cuSPARSE csrsv2
        # lineage): one thread per stored nonzero, columns of a level in
        # parallel, factor segments streamed contiguously.  Same thread and
        # coalescing convention as the SpMV kernels above it in the stack.
        work = st.rep.lu_nnz + st.rep.eta_nnz
        m, w = st.prep.m, st.width
        return OpCost(
            flops=2.0 * work,
            bytes_read=work * (w + INDEX_BYTES) + m * w,
            bytes_written=m * w,
            threads=max(1, work),
            coalesced_fraction=0.6,
        )

    def lu_solve(self, st: "DevicePlacement", kind: str,
                 src: DeviceArray, dst: DeviceArray) -> dict[str, np.ndarray]:
        """dst := B⁻¹src (``kind`` "ftran") or B⁻ᵀsrc ("btran") through the
        device factors.  Returns a holder whose ``"x"`` is the exact
        float64 result (the mirror's arithmetic), for the eta update; it
        appears when the body *executes* — at section exit inside a
        capturing plan section."""
        holder: dict[str, np.ndarray] = {}

        def body() -> None:
            holder["x"] = x = getattr(st.rep, kind)(src.data.astype(np.float64))
            dst.data[:] = x.astype(st.dtype)

        gpu_plan.emit(
            st.dev, f"sparse.{kind}_lu", body, self._lu_solve_cost(st),
            dtype=st.dtype, reads=(src,), writes=(dst,),
        )
        return holder

    def multiply(self, st: "DevicePlacement") -> None:
        """π := B⁻ᵀc_B through the device factors."""
        self.lu_solve(st, "btran", st.c_b, st.pi)

    # -- solves and updates --------------------------------------------------

    def ftran(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        return self.lu_solve(st, "ftran", st.a_q, st.alpha)

    def host_pivot(self, st: "DevicePlacement", p: int) -> float:
        return float(st.solved["x"][p])

    def admit(self, st: "DevicePlacement", p: int) -> None:
        """Check the pivot against the factor mirror before any update
        launches, so a pivot the eta file rejects never leaves a
        half-swapped device state."""
        pivot = self.host_pivot(st, p)
        if abs(pivot) <= st.tol_piv:
            raise SingularBasisError(f"pivot {pivot!r} below tolerance {st.tol_piv}")

    def inverse_row(self, st: "DevicePlacement", p: int) -> DeviceArray:
        """e_pᵀB⁻¹ into a device buffer: e_p written on the device, one
        sparse BTRAN."""
        K.unit_vector(st.dev, st.tmp_m, p)
        self.lu_solve(st, "btran", st.tmp_m, st.tmp_m)
        return st.tmp_m

    def update(self, st: "DevicePlacement", p: int, pivot: float,
               stores: K.ScalarStores = K.ScalarStores(), d_q=None) -> None:
        """Mirror the pivot into the factor file and charge the device eta
        kernel + its buffer; the swap's stores rode on the β update."""
        before = st.rep.eta_nnz
        st.rep.update(st.solved["x"], p, st.tol_piv)
        added = st.rep.eta_nnz - before
        m, w = st.prep.m, st.width
        # the kernel scans α once and writes the compacted eta column
        gpu_plan.emit(
            st.dev,
            "sparse.eta_append",
            lambda: None,  # numerics live in the host factor mirror
            OpCost(
                flops=float(m),
                bytes_read=m * w,
                bytes_written=added * (w + INDEX_BYTES),
                threads=max(1, m),
                coalesced_fraction=0.6,
            ),
            dtype=st.dtype,
            reads=(st.alpha,),
        )
        st.eta_bufs.append(
            st.dev.alloc(max(1, added * (w + INDEX_BYTES)), np.uint8)
        )

    def updates(self, st: "DevicePlacement") -> int:
        return st.rep.updates_since_refactor

    def needs_rebuild(self, st: "DevicePlacement") -> bool:
        return st.rep.needs_refresh()


class StandardBounds:
    """Bounds strategy: every column rests at its lower bound 0.

    Pricing masks basic columns out, the ratio test is the one-sided map,
    and a pivot's β update carries the basis swap.
    """

    range_bounds_as_rows = True

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
        """Buffers whose row-p entry rides on the ratio readback."""
        return (st.alpha,)

    def step(self, st: "DevicePlacement", q: int, d_q: float, theta: float):
        """(d_q, σ, θ, flip): the signed step the ratio test found."""
        return d_q, 1.0, theta, False

    def pivot(self, st, p, q, c_q, theta, sigma, to_upper) -> None:
        swap = K.basis_swap(st, p, q, c_q, st.prep.n_total)
        K.update_beta_kernel(st.dev, st.beta, st.alpha, theta, p, swap)

    def drive_swap(self, st, p: int, j: int, pivot: float) -> K.ScalarStores:
        """Swap artificial row p for column j and move β; returns stores
        left for the basis update's first launch."""
        theta = st.beta.scalar_to_host(p) / pivot
        swap = K.basis_swap(st, p, j, 0.0, st.prep.n_total)
        K.update_beta_kernel(st.dev, st.beta, st.alpha, theta, p, swap)
        return K.ScalarStores()

    def rhs(self, st: "DevicePlacement") -> DeviceArray:
        return st.b

    def extract(self, st: "DevicePlacement", result: SolveResult) -> None:
        if st.refine:
            beta_host = st.refined_beta(result)
        else:
            beta_host = st.beta.copy_to_host().astype(np.float64)
        attach_standard_solution(result, st.prep, st.basis, beta_host)


class BoxedBounds(BoxedRules):
    """Bounds strategy: finite upper bounds handled natively.

    The device holds σ (−1 for a nonbasic at its upper bound), u_B and the
    ratio map's ``to_upper``.  The ratio readback also brings to_upper[p],
    and the basis swap adds the σ signs and the u_B entry to the stores of
    the update launch.  The flip-or-pivot choice needs θ on the host, so a
    bound flip runs the whole ratio test.
    """

    def alloc(self, st: "DevicePlacement") -> None:
        self.begin(st)
        st.to_upper = st.dev.alloc(st.prep.m, st.dtype)

    def hosts(self, st: "DevicePlacement") -> dict[str, np.ndarray]:
        """σ (every column starts at 0) and u_B of the starting basis."""
        return {
            "sigma": np.ones(st.prep.n_total, dtype=st.dtype),
            "u_basis": st.u[st.basis].astype(st.dtype),
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

    def step(self, st: "DevicePlacement", q: int, signed_dq: float, theta: float):
        """Un-sign d_q, and turn the step into a bound flip when q reaches
        its own upper bound first."""
        sigma = self.sigma(st, q)
        u_q = float(st.u[q])
        flip = bool(np.isfinite(u_q) and u_q <= theta * (1.0 + 1e-12))
        return sigma * signed_dq, sigma, u_q if flip else theta, flip

    def flip(self, st: "DevicePlacement", q: int, sigma: float, theta: float) -> None:
        """Bound flip of nonbasic q: β moves, σ_q's sign is a store."""
        self.toggle(st, q)
        sign = K.ScalarStores(((st.sigma, q, self.sigma(st, q)),))
        K.bounded_update_beta_kernel(
            st.dev, st.beta, st.alpha, -sigma * theta, -1, 0.0, sign
        )

    def pivot(self, st, p, q, c_q, theta, sigma, to_upper) -> None:
        x_q_new = float(st.u[q]) - theta if sigma < 0 else theta
        swap = self._swap(st, p, q, c_q, leaves_at_upper=to_upper)
        K.bounded_update_beta_kernel(
            st.dev, st.beta, st.alpha, -sigma * theta, p, x_q_new, swap
        )

    def drive_swap(self, st, p: int, j: int, pivot: float) -> K.ScalarStores:
        # degenerate swap: no value moves; the new basic takes its current
        # resting value, stored with the swap by the basis update's launch
        value = float(st.u[j]) if st.at_upper[j] else 0.0
        swap = self._swap(st, p, j, 0.0, leaves_at_upper=False)
        return swap + K.ScalarStores(((st.beta, p, value),))

    def _swap(self, st, p: int, q: int, c_q: float,
              leaves_at_upper: bool) -> K.ScalarStores:
        """Basis exchange (see :func:`~repro.core.gpu_kernels.basis_swap`)
        plus the bounded extras: σ signs of the entering and leaving
        variables and the u_B entry of row p."""
        n = st.prep.n_total
        leaving = int(st.basis[p])
        stores = K.basis_swap(st, p, q, c_q, n)
        goes_up = self.swap(st, leaving, q, leaves_at_upper)
        extra = [(st.sigma, q, 1.0)]
        if leaving < n:
            extra.append((st.sigma, leaving, -1.0 if goes_up else 1.0))
        # +inf is fine in fp32
        extra.append((st.u_basis, p, float(st.u[q])))
        return stores + K.ScalarStores(tuple(extra))

    def rhs(self, st: "DevicePlacement") -> DeviceArray:
        return st.b_eff

    def extract(self, st: "DevicePlacement", result: SolveResult) -> None:
        self.attach(st, result, st.beta.copy_to_host().astype(np.float64))


class DevicePlacement:
    """Device-resident solver state plus the host-side basis bookkeeping.

    The work buffers are allocated here, uninitialised: each is written
    before it is read.  :meth:`start` then places the data in one region.
    Each strategy adds its own buffers (``alloc``) and uploads
    (``hosts``).  A failed allocation (device OOM) releases whatever was
    already allocated before re-raising.
    """

    def __init__(self, backend: "GpuRevisedSimplex", prep: PreparedLP,
                 dtype: np.dtype):
        self.prep = prep
        self.dev = dev = backend.dev
        self.plan = backend.plan
        self.dtype = dtype
        self.width = int(np.dtype(dtype).itemsize)
        self.options = backend.options
        self.basis_rep = basis_rep = backend.basis_rep
        self.bounds = bounds = backend.bounds
        self.tol_rc, self.tol_piv = backend._tol_rc, backend._tol_piv
        self.refine = backend._policy.refine
        self.tracing = backend.hooks.enabled
        self.fill_every = backend._fill_every
        self.fill_curve: list[tuple[int, float]] = []
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
            basis_rep.alloc(self)
        except Exception:
            self.free()
            raise

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
        β, the mask and basis keys, the bounds' σ and u_B, and last the
        basis representation — B⁻¹ or the factors of the crash basis, or a
        warm start's ``rep`` with its ``beta``.

        Every buffer the region holds becomes an attribute of the
        placement.  It also reserves, uninitialised, a leading run for each
        phase's costs (c over the real columns, then c_B; :meth:`load_costs`)
        and a trailing run for what the bounds upload with a rebuild, so
        each of those later uploads is one copy too.
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
        hosts.update(self.basis_rep.hosts(self, rep))
        layout = {"c_real": ((n,), dtype), "c_b": ((m,), dtype)}
        layout.update({k: (h.shape, h.dtype) for k, h in hosts.items()})
        layout.update(self.bounds.rebuild_layout(self))
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

    def new_basis(self):
        """Host factors are uncharged: the upload is what the model prices."""
        return self.basis_rep.mirror(self.prep.m)

    def columns(self, basis: np.ndarray):
        return self.basis_rep.columns(self.prep, basis)

    def install(self, rep) -> None:
        """Upload a rebuilt basis representation solved on the host, and
        with boxed bounds the effective rhs, as one copy."""
        hosts = self.basis_rep.hosts(self, rep)
        hosts.update(self.bounds.rebuild_hosts(self))
        with self.dev.timed_section("transfer"):
            self.basis_rep.install(self, hosts)

    # -- the loop's steps ------------------------------------------------

    @property
    def updates(self) -> int:
        return self.basis_rep.updates(self)

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
                self.basis_rep.multiply(self)
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
                self.solved = self.basis_rep.ftran(self)

    def ratio(self) -> Step:
        """Bland-compatible ratio test: ties break to the lowest
        basic-variable index via a second keyed reduction.  The map's
        arg-min stays on the device, the tie pass reads θ from it, and one
        readback returns (q, d_q, p, θ, α_p, …); for m ≤ 2·DEFAULT_BLOCK all
        of it is one launch."""
        dev = self.dev
        with dev.timed_section("ratio"), self.plan.section("ratio") as sec:
            self.bounds.ratio_map(self)
            sec.argmin_to_device(self.ratios, self.ratio_min)
            K.tie_break_key_kernel(
                dev, self.ratios, self.ratio_min, self.basis_keys, self.tmp_m
            )
            q, d_q, p, theta, gathered = sec.ratio_readback(
                self.choice, self.tmp_m, self.ratio_min, self.bounds.gathered(self)
            )
        if q == NO_INDEX:
            return Step(-1)
        d_q, sigma, theta, flip = self.bounds.step(self, q, d_q, theta)
        ties = 0
        if self.tracing and not flip:
            # uncharged diagnostic peek at the functional backing store
            ties = int(np.count_nonzero(self.ratios.data <= K.tie_cut(theta)))
        return Step(
            int(q), d_q, sigma, -1 if flip else int(p), theta, gathered[0],
            ties, len(gathered) > 1 and gathered[1] != 0.0,
        )

    def update(self, r: Step, c_q: float) -> None:
        """β, basis representation, π; the basis swap's device stores ride
        on the β-update launch."""
        if not r.flip:
            self.basis_rep.admit(self, r.row)
        with self.dev.timed_section("update"), self.plan.section("update"):
            if r.flip:
                self.bounds.flip(self, r.q, r.sigma, r.theta)
            else:
                self.bounds.pivot(
                    self, r.row, r.q, c_q, r.theta, r.sigma, r.to_upper
                )
                self.basis_rep.update(self, r.row, r.pivot, d_q=r.d_q)
        self.steps += 1
        if self.fill_every and self.steps % self.fill_every == 0:
            # diagnostic peek at the functional backing store (uncharged)
            frac = float(np.mean(np.abs(self.binv.data) > 1e-7))
            self.fill_curve.append((self.steps, frac))

    def needs_rebuild(self) -> bool:
        return self.basis_rep.needs_rebuild(self)

    def refresh_beta(self) -> None:
        self.basis_rep.solve(self, self.bounds.rhs(self), self.beta)
        K.clamp_nonneg_kernel(self.dev, self.beta)

    def resync(self, z: float) -> float:
        if self.basis_rep.resyncs_objective:
            return blas.dot(self.c_b, self.beta)
        return z

    def phase1_objective(self, z: float) -> float:
        return blas.dot(self.c_b, self.beta)

    # -- drive-out (host-driven, device-computed) --------------------------

    def transformed_row(self, p: int) -> np.ndarray:
        """e_pᵀB⁻¹A over the real columns: row p of B⁻¹ from the basis
        representation, one GEMVᵀ/SpMVᵀ, one download."""
        self.multiply_at(self.basis_rep.inverse_row(self, p), self.tmp_n)
        return self.tmp_n.copy_to_host().astype(np.float64)

    def column_pivot(self, j: int, p: int) -> float:
        self.load_column(j)
        self.solved = self.basis_rep.ftran(self)
        return self.basis_rep.host_pivot(self, p)

    def swap_in(self, p: int, j: int, pivot: float) -> None:
        stores = self.bounds.drive_swap(self, p, j, pivot)
        self.basis_rep.update(self, p, pivot, stores)

    # -- finish ------------------------------------------------------------

    def extras(self, result: SolveResult) -> None:
        if self.fill_every:
            result.extra["binv_fill"] = list(self.fill_curve)

    def extract(self, result: SolveResult) -> None:
        self.bounds.extract(self, result)

    def refined_beta(self, result: SolveResult) -> np.ndarray:
        """Mixed-precision extraction (:func:`refine_basic_solution`): the
        fp32 correction solves run on the device (dx = B⁻¹r via the resident
        inverse).  Every round trip is transfer-costed and the fp32↔fp64
        conversions run as :func:`repro.gpu.blas.cast` kernels."""
        dev, m = self.dev, self.prep.m
        x64 = self.beta.copy_to_host().astype(np.float64)
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
            return refine_basic_solution(result, self.prep, self.basis, x64, correction)
        finally:
            for buf in (r64, r32, dx32):
                buf.free()

    def free(self) -> None:
        """Release every device allocation; tolerates partially-constructed
        state (OOM during ``__init__``)."""
        for value in list(vars(self).values()):
            for arr in value if isinstance(value, list) else (value,):
                live = isinstance(arr, (DeviceArray, DeviceRegion))
                if live and not arr.is_freed:
                    arr.free()


def refine_basic_solution(result: SolveResult, prep: PreparedLP,
                          basis: np.ndarray, x64: np.ndarray,
                          correction) -> np.ndarray:
    """fp64 iterative refinement of an fp32 basic solution, the classic
    mixed-precision scheme: fp64 residuals r = b − Bx on the host, up to
    three corrections x += ``correction(B, r)`` ≈ B⁻¹r accumulated in fp64,
    until ‖r‖∞ ≤ 1e-12·(1 + ‖b‖∞).  Records the step count and the final
    residual in ``result.extra``."""
    m = prep.m
    basis_matrix = np.asarray(prep.basis_matrix(basis), dtype=np.float64)
    b64 = np.asarray(prep.b, dtype=np.float64)
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
    basis_rep = ExplicitInverse()
    bounds = StandardBounds()

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


class GpuBoundedRevisedSimplex(GpuRevisedSimplex):
    """Two-phase bounded-variable revised simplex on the simulated device;
    compared to ``gpu-revised`` on a fully boxed problem it keeps the basis
    at m instead of m + #bounds (the A5 ablation)."""

    name = "gpu-revised-bounded"
    accepts_warm_start = False
    bounds = BoxedBounds()

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
        self.bounds.check(self.options)


class GpuSparseRevisedSimplex(GpuRevisedSimplex):
    """Two-phase sparse revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint is factorised sparsely on the host and the factors are
    uploaded with the data, in the begin's one copy.  A singular or
    primal-infeasible hint falls back to the cold crash basis.  Dense
    inputs are converted to CSC on entry — this method always runs the
    sparse data path.
    """

    name = "gpu-revised-sparse"
    sparse_data = True
    basis_rep = DeviceLU()

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
