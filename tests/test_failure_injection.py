"""Failure injection: the library must fail loudly and cleanly.

Covers: device out-of-memory mid-solve, singular bases, malformed inputs,
iteration exhaustion on every solver, and resource cleanup on error paths.
"""

import numpy as np
import pytest

from repro import solve
from repro.errors import (
    DeviceArrayError,
    DeviceMemoryError,
    LPDimensionError,
    SingularBasisError,
)
from repro.gpu.device import Device
from repro.lp.generators import random_dense_lp
from repro.lp.problem import Bounds, LPProblem
from repro.perfmodel.gpu_model import GpuModelParams
from repro.status import SolveStatus


class TestDeviceOom:
    def test_solver_raises_on_undersized_device(self):
        """A 256x256 fp64 solve cannot fit a 256 KiB card; the allocation
        failure surfaces as DeviceMemoryError, not a silent wrong answer."""
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.simplex.options import SolverOptions

        tiny = GpuModelParams(global_mem_bytes=256 * 1024)
        solver = GpuRevisedSimplex(
            SolverOptions(dtype=np.float64), gpu_params=tiny
        )
        with pytest.raises(DeviceMemoryError):
            solver.solve(random_dense_lp(256, 256, seed=0))

    def test_tableau_solver_oom(self):
        from repro.core.gpu_tableau_simplex import GpuTableauSimplex
        from repro.simplex.options import SolverOptions

        tiny = GpuModelParams(global_mem_bytes=64 * 1024)
        solver = GpuTableauSimplex(SolverOptions(dtype=np.float64),
                                   gpu_params=tiny)
        with pytest.raises(DeviceMemoryError):
            solver.solve(random_dense_lp(128, 128, seed=0))

    #: Per device method, a card (KiB) that holds some of its device state
    #: for a 180x180 fp64 LP but not all of it.
    OOM_CARD_KIB = {
        "gpu-revised": 600,
        "gpu-revised-sparse": 400,
        # fails on the region holding the tableau, after the work buffers
        "gpu-tableau": 528,
        "gpu-pdlp": 800,
    }

    @pytest.mark.parametrize("method", sorted(OOM_CARD_KIB))
    def test_partial_allocations_released_after_oom(self, method):
        """Whatever was allocated before the OOM is freed by the cleanup."""
        from repro.engine.registry import METHODS
        from repro.simplex.options import SolverOptions

        options = SolverOptions(dtype=np.float64)
        backend_cls = type(METHODS[method].factory(options, None))
        card = GpuModelParams(global_mem_bytes=self.OOM_CARD_KIB[method] * 1024)
        solver = backend_cls(options, gpu_params=card)
        with pytest.raises(DeviceMemoryError):
            solver.solve(random_dense_lp(180, 180, seed=0))
        assert solver.device is not None
        assert solver.device.stats.allocations > 0
        assert solver.device.stats.bytes_in_use == 0

    def test_fits_exactly_when_fp32(self):
        """fp32 halves the footprint: a card too small for fp64 can fit."""
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.simplex.options import SolverOptions

        lp = random_dense_lp(100, 100, seed=1)
        params = GpuModelParams(global_mem_bytes=200 * 1024)
        with pytest.raises(DeviceMemoryError):
            GpuRevisedSimplex(SolverOptions(dtype=np.float64),
                              gpu_params=params).solve(lp)
        r = GpuRevisedSimplex(SolverOptions(dtype=np.float32),
                              gpu_params=params).solve(lp)
        assert r.status is SolveStatus.OPTIMAL


class TestSingularBases:
    def test_warm_start_with_singular_columns_recovers(self):
        """Duplicate-direction columns make B singular; solver falls back."""
        lp = LPProblem.minimize(
            c=[1.0, 1.0, 1.0],
            a_ub=[[1.0, 2.0, 2.0], [0.0, 1.0, 1.0]],
            b_ub=[4.0, 2.0],
        )
        # columns 1 and 2 are linearly dependent
        r = solve(lp, method="revised", initial_basis=np.array([1, 2]))
        assert r.status is SolveStatus.OPTIMAL

    def test_bounded_failed_update_keeps_phase1_objective(self, monkeypatch):
        """A basis update that fails leaves the objective at the old basis:
        the recovery rebuilds x_B for the unchanged basis, so a step that
        did not happen must not reach the phase-1 feasibility verdict."""
        import dataclasses

        from repro.lp.generators import transportation_lp
        from repro.simplex.basis import ExplicitInverseBasis
        from repro.simplex.revised_cpu import RevisedSimplexSolver

        lp = transportation_lp(4, 5, seed=1)
        n = lp.num_vars
        boxed = dataclasses.replace(
            lp, bounds=Bounds(np.zeros(n), np.full(n, 1e4))
        )
        update = ExplicitInverseBasis.update
        calls = []

        def failing_second_update(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SingularBasisError("injected")
            return update(self, *args, **kwargs)

        phase1 = []
        objective = RevisedSimplexSolver.phase1_objective

        def record_phase1(self):
            phase1.append(objective(self))
            return phase1[-1]

        monkeypatch.setattr(ExplicitInverseBasis, "update", failing_second_update)
        monkeypatch.setattr(
            RevisedSimplexSolver, "phase1_objective", record_phase1
        )
        r = solve(boxed, method="revised")
        assert r.extra["basis"].size == boxed.num_constraints  # bounds kept out of the rows
        assert len(calls) > 2
        # a sum of artificials: never negative, zero for a feasible LP
        assert phase1 == [pytest.approx(0.0, abs=1e-9)]
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(solve(lp, method="revised").objective)

    def test_certificate_raises_on_singular_basis(self):
        from repro.lp.postsolve import certificate_from_basis
        from repro.simplex.common import prepare

        lp = LPProblem.minimize(
            c=[1.0, 1.0], a_ub=[[1.0, 1.0], [2.0, 2.0]], b_ub=[2.0, 4.0]
        )
        prep = prepare(lp)
        with pytest.raises(SingularBasisError):
            # both rows are multiples: structural columns 0,1 of row-duplicated
            # A cannot form a basis... build an explicitly singular one
            certificate_from_basis(prep, np.array([0, 0]), np.zeros(prep.n_total))


class TestMalformedInput:
    def test_nan_in_costs(self):
        with pytest.raises(LPDimensionError):
            LPProblem.minimize(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])

    def test_inf_in_rhs(self):
        with pytest.raises(LPDimensionError):
            LPProblem.minimize(c=[1.0], a_ub=[[1.0]], b_ub=[np.inf])

    def test_contradictory_bounds(self):
        from repro.errors import LPBoundsError

        with pytest.raises(LPBoundsError):
            LPProblem.minimize(c=[1.0], a_ub=[[1.0]], b_ub=[1.0],
                               bounds=[(3.0, 1.0)])

    def test_freed_array_in_kernel(self, device):
        from repro.gpu import blas

        x = device.to_device(np.ones(4))
        y = device.to_device(np.ones(4))
        x.free()
        with pytest.raises(DeviceArrayError):
            blas.axpy(1.0, x, y)


class TestIterationExhaustion:
    @pytest.mark.parametrize(
        "method", ["tableau", "revised", "gpu-revised", "gpu-tableau"]
    )
    def test_every_solver_reports_limit(self, method):
        lp = random_dense_lp(20, 30, seed=5)
        r = solve(lp, method=method, max_iterations=2)
        assert r.status is SolveStatus.ITERATION_LIMIT
        assert r.x is None
        assert np.isnan(r.objective)

    def test_gpu_memory_released_on_limit(self):
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.simplex.options import SolverOptions

        solver = GpuRevisedSimplex(SolverOptions(max_iterations=2))
        solver.solve(random_dense_lp(20, 30, seed=5))
        assert solver.device.stats.bytes_in_use == 0
