"""Sparse revised simplex on the (simulated) GPU.

The device loop of :mod:`repro.core.gpu_revised_simplex` with the
:class:`DeviceLU` basis strategy, following the explicit-sparse-memory
design of Gahrouei & Ghatee (arXiv:1803.04378) rather than the paper's
dense layout: the constraint matrix stays on the device in CSC form,
pricing is one ``spmv_csc_t`` launch (the CSC of A *is* the CSR of Aᵀ, so
one thread per column prices every nonbasic variable), and the dense m×m
basis inverse — the allocation that capped the dense solver's problem
size — is replaced by sparse LU factors plus a sparse eta file whose
device footprint scales with their nonzeros.

Factor placement follows the hybrid scheme real sparse-simplex GPU codes
use: the triangular solves (FTRAN/BTRAN) launch as device kernels whose
modeled cost scales with ``nnz(L)+nnz(U)+nnz(etas)``, while the *numerics*
of those solves are mirrored by a host-side
:class:`~repro.simplex.sparse_basis.SparseLUBasis` (uncharged — it is the
functional backing store of the device factors, exactly as dense device
arrays are backed by host ndarrays).  Refactorisation happens on the host
— sparse LU pivoting is sequential and branchy, the classic CPU-side step
— and the fresh factors are uploaded over PCIe, which the model charges.

π is solved fresh through the factors at every pricing, so a terminal
verdict always stands.  The pivot is checked against the host factor
mirror before the update launches, so a pivot the eta file rejects never
leaves a half-swapped device state: the factors are rebuilt and the
iteration retried.  Besides ``refactor_period``, fill in the eta file
triggers a rebuild.
"""

from __future__ import annotations

import numpy as np

from repro.core import gpu_kernels as K
from repro.core.gpu_revised_simplex import GpuRevisedSimplex
from repro.errors import SingularBasisError
from repro.gpu import plan as gpu_plan
from repro.gpu.device import Device
from repro.gpu.memory import DeviceArray
from repro.gpu.sparse_kernels import INDEX_BYTES
from repro.perfmodel.gpu_model import GpuModelParams
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.result import SolveResult
from repro.simplex.common import PreparedLP, as_sparse_prep
from repro.simplex.options import SolverOptions
from repro.simplex.sparse_basis import SparseLUBasis, basis_columns_csc


class DeviceLU:
    """Basis strategy: sparse LU factors plus an eta file on the device.

    The device holds a byte buffer standing for the packed LU factors
    (``st.factor_buf``) and one small buffer per sparse eta
    (``st.eta_bufs``); the host mirrors the factor *numerics* in
    ``st.lu`` (the functional backing store).
    """

    #: A rebuild recomputes β through the fresh factors; the phase
    #: objective is re-read from it.
    resyncs_objective = True

    def prepared(self, prep: PreparedLP) -> PreparedLP:
        """Dense inputs are converted to CSC: this strategy always runs the
        sparse data path."""
        return as_sparse_prep(prep)

    def arm_meta(self, prep: PreparedLP) -> dict:
        return {"nnz": prep.nnz}

    def place(self, st) -> None:
        st.lu = SparseLUBasis(st.prep.m, recorder=None)
        st.factor_buf = None
        st.eta_bufs = []

    def alloc(self, st) -> None:
        self.upload_factor(st)  # identity factors of the crash basis

    def factor_warm(self, st, warm: np.ndarray):
        """Host trial factorisation of a warm-start basis (the backing store
        of the device factors; the upload is what the model charges)."""
        lu = SparseLUBasis(st.prep.m, recorder=None)
        try:
            lu.refactorize(basis_columns_csc(st.prep, warm))
            beta = lu.ftran(st.prep.b)
        except SingularBasisError:
            return None

        def upload(beta_dev: np.ndarray) -> None:
            st.lu = lu
            self.upload_factor(st)
            with st.dev.timed_section("transfer"):
                st.beta.copy_from_host(beta_dev)

        return beta, upload

    # -- factor placement ----------------------------------------------------

    @staticmethod
    def _width(st) -> int:
        return int(np.dtype(st.dtype).itemsize)

    def upload_factor(self, st) -> None:
        """(Re)place the packed factors on the device; frees stale etas.

        The upload is a real HtoD transfer in the model — refactorisation
        is host work and the fresh factors must cross PCIe.
        """
        self._free_factors(st)
        nbytes = max(1, st.lu.lu_nnz * (self._width(st) + INDEX_BYTES))
        with st.dev.timed_section("transfer"):
            st.factor_buf = st.dev.to_device(np.zeros(nbytes, dtype=np.uint8))

    def _lu_solve_cost(self, st) -> OpCost:
        # Vector-style level-scheduled triangular solve (cuSPARSE csrsv2
        # lineage): one thread per stored nonzero, columns of a level in
        # parallel, factor segments streamed contiguously.  Same thread and
        # coalescing convention as the SpMV kernels above it in the stack.
        work = st.lu.lu_nnz + st.lu.eta_nnz
        m = st.prep.m
        w = self._width(st)
        return OpCost(
            flops=2.0 * work,
            bytes_read=work * (w + INDEX_BYTES) + m * w,
            bytes_written=m * w,
            threads=max(1, work),
            coalesced_fraction=0.6,
        )

    def ftran_lu(
        self, st, src: DeviceArray, dst: DeviceArray
    ) -> dict[str, np.ndarray]:
        """dst := B⁻¹ src through the device factors.

        Returns a holder dict whose ``"x"`` entry is the exact float64
        result (the factor mirror's arithmetic) for the eta update.  The
        entry appears when the kernel body *executes* — inside a capturing
        plan section that is at section exit, so read it after the section
        closes.
        """
        holder: dict[str, np.ndarray] = {}

        def body() -> None:
            x = st.lu.ftran(src.data.astype(np.float64))
            holder["x"] = x
            dst.data[:] = x.astype(st.dtype)

        gpu_plan.emit(
            st.dev, "sparse.ftran_lu", body, self._lu_solve_cost(st),
            dtype=st.dtype, reads=(src,), writes=(dst,),
        )
        return holder

    def btran_lu(self, st, src: DeviceArray, dst: DeviceArray) -> None:
        """dst := B⁻ᵀ src through the device factors."""

        def body() -> None:
            pi = st.lu.btran(src.data.astype(np.float64))
            dst.data[:] = pi.astype(st.dtype)

        gpu_plan.emit(
            st.dev, "sparse.btran_lu", body, self._lu_solve_cost(st),
            dtype=st.dtype, reads=(src,), writes=(dst,),
        )

    # -- π: solved fresh at every pricing ------------------------------------

    def invalidate(self, st) -> None:
        pass

    def refresh_pi(self, st) -> None:
        self.btran_lu(st, st.c_b, st.pi)

    def confirms(self, st) -> bool:
        return True

    # -- solves and updates --------------------------------------------------

    def ftran(self, st) -> dict[str, np.ndarray]:
        return self.ftran_lu(st, st.a_q, st.alpha)

    def host_pivot(self, st, solved, p: int) -> float:
        return float(solved["x"][p])

    def rejects(self, solved, p: int, tol_piv: float) -> bool:
        """Whether the pivot is too small for the factors."""
        return abs(solved["x"][p]) <= tol_piv

    def inverse_row(self, st, p: int) -> DeviceArray:
        """e_pᵀB⁻¹ into a device buffer: e_p uploaded, one sparse BTRAN."""
        e_p = np.zeros(st.prep.m)
        e_p[p] = 1.0
        with st.dev.timed_section("transfer"):
            st.tmp_m.copy_from_host(e_p.astype(st.dtype))
        self.btran_lu(st, st.tmp_m, st.tmp_m)
        return st.tmp_m

    def update(self, st, p: int, pivot: float, solved, tol_piv: float,
               stores: K.ScalarStores = K.ScalarStores(), d_q=None) -> None:
        """Mirror the pivot into the factor file and charge the device eta
        kernel + its buffer.  The pivot was checked against ``tol_piv``
        (the factor update raises below it); the swap's stores rode on the
        β update."""
        alpha64 = solved["x"]
        before = st.lu.eta_nnz
        st.lu.update(alpha64, p, tol_piv)
        added = st.lu.eta_nnz - before
        m = st.prep.m
        w = self._width(st)
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

    def eta_count(self, st) -> int:
        return st.lu.eta_count

    def refactor_due(self, st, iters: int, period: int) -> bool:
        """Periodic *or* fill-triggered."""
        return (bool(period) and iters % period == 0) or st.lu.needs_refresh()

    def refactor(self, st) -> None:
        """Host refactorisation from the basis' CSC columns, PCIe upload,
        and a device β refresh through the fresh factors."""
        st.lu.refactorize(basis_columns_csc(st.prep, st.basis))
        self.upload_factor(st)
        self.ftran_lu(st, st.b, st.beta)
        K.clamp_nonneg_kernel(st.dev, st.beta)

    def extras(self, st, result: SolveResult) -> None:
        result.extra["a_nnz"] = st.prep.nnz
        result.extra["lu_nnz"] = st.lu.lu_nnz
        result.extra["eta_nnz"] = st.lu.eta_nnz
        result.extra["fill_ratio"] = st.lu.fill_ratio

    @staticmethod
    def _free_factors(st) -> None:
        for buf in (*getattr(st, "eta_bufs", ()), getattr(st, "factor_buf", None)):
            if buf is not None and not buf.is_freed:
                buf.free()
        st.eta_bufs = []

    def free(self, st) -> None:
        self._free_factors(st)


class GpuSparseRevisedSimplex(GpuRevisedSimplex):
    """Two-phase sparse revised simplex on the simulated SIMT device.

    ``solve(problem, initial_basis_hint=...)`` warm-starts from a previous
    basis: the hint is factorised sparsely on the host and the factors are
    uploaded (one PCIe round trip).  A singular or primal-infeasible hint
    falls back to the cold crash basis.  Dense inputs are converted to CSC
    on entry — this method always runs the sparse data path.
    """

    name = "gpu-revised-sparse"
    basis_rep = DeviceLU()

    def __init__(
        self,
        options: SolverOptions | None = None,
        device: Device | None = None,
        gpu_params: GpuModelParams = GTX280_PARAMS,
    ):
        super().__init__(options, device, gpu_params)
