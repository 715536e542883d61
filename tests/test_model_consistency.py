"""Regression net for the claims EXPERIMENTS.md records.

These are the *shape* invariants of the reproduction — small, fast versions
of the benchmark assertions, run with the unit suite so a refactor that
silently breaks the paper-shaped behaviour fails here first.
"""

import numpy as np
import pytest

from repro import solve
from repro.bench.harness import dense_sweep, find_crossover, speedup_series
from repro.lp.generators import random_dense_lp


@pytest.fixture(scope="module")
def small_sweep():
    return dense_sweep((64, 192, 384), methods=("revised", "gpu-revised"),
                       seed=42, dtype=np.float32)


class TestHeadlineShape:
    def test_cpu_wins_small_gpu_wins_large(self, small_sweep):
        sp = speedup_series(small_sweep["revised"], small_sweep["gpu-revised"])
        assert sp[0] < 1.0
        assert sp[-1] > 1.0

    def test_crossover_inside_sweep(self, small_sweep):
        sp = speedup_series(small_sweep["revised"], small_sweep["gpu-revised"])
        crossover = find_crossover([64, 192, 384], sp)
        assert crossover is not None
        assert 64 < crossover < 384

    def test_iteration_parity(self, small_sweep):
        for rc, rg in zip(small_sweep["revised"], small_sweep["gpu-revised"]):
            assert rc.iterations == rg.iterations

    def test_gpu_per_iteration_flatter_than_cpu(self, small_sweep):
        cpu = [r.per_iteration_us for r in small_sweep["revised"]]
        gpu = [r.per_iteration_us for r in small_sweep["gpu-revised"]]
        assert cpu[-1] / cpu[0] > gpu[-1] / gpu[0]


class TestGpuCostStructure:
    def test_pricing_dominates_phases(self):
        """Pricing is the largest of the sections that walk a matrix.  At
        this size the latency-bound ratio test leads overall: it is one
        launch plus the iteration's readback, which the column-major
        pricing pass no longer outweighs (F3: pricing leads at 512)."""
        lp = random_dense_lp(256, 256, seed=42)
        r = solve(lp, method="gpu-revised", dtype=np.float32)
        bd = r.timing.kernel_breakdown
        phases = {k: v for k, v in bd.items() if k != "transfer"}
        assert max(phases, key=phases.get) == "ratio"
        assert bd["pricing"] == max(bd["pricing"], bd["ftran"], bd["update"])

    def test_transfer_fraction_decreases_with_size(self):
        fracs = []
        for size in (64, 256):
            lp = random_dense_lp(size, size, seed=42)
            r = solve(lp, method="gpu-revised", dtype=np.float32)
            fracs.append(r.timing.transfer_seconds / r.timing.modeled_seconds)
        assert fracs[1] < fracs[0]

    def test_fp64_costs_more_but_far_below_flop_ratio(self):
        lp = random_dense_lp(128, 128, seed=42)
        t32 = solve(lp, method="gpu-revised", dtype=np.float32).timing.modeled_seconds
        t64 = solve(lp, method="gpu-revised", dtype=np.float64).timing.modeled_seconds
        assert 1.0 < t64 / t32 < 4.0  # bandwidth-bound, nowhere near 12x

    def test_gemv_t_is_top_kernel_at_scale(self):
        """The fused pricing pass, which holds d = c − Aᵀπ's GEMVᵀ, is the
        top kernel; π = B⁻ᵀc_B's own GEMVᵀ runs only when π is stale."""
        lp = random_dense_lp(256, 256, seed=42)
        r = solve(lp, method="gpu-revised", dtype=np.float32)
        by_kernel = r.extra["by_kernel"]
        top = max(by_kernel, key=by_kernel.get)
        assert top == "fused[copy+gemv_t+mask_min+argmin]"
        assert by_kernel["blas.gemv_t"] < 0.1 * by_kernel[top]


class TestExtensionClaims:
    def test_bounded_beats_rows_encoding(self):
        from repro.lp.problem import Bounds, LPProblem

        rng = np.random.default_rng(0)
        base = random_dense_lp(48, 48, seed=42)
        lp = LPProblem(c=base.c, a=base.a_dense(), senses=base.senses,
                       b=base.b, bounds=Bounds(np.zeros(48), rng.uniform(0.3, 2.0, 48)),
                       maximize=True)
        rows = solve(lp, method="revised")
        bnd = solve(lp, method="revised-bounded")
        assert bnd.objective == pytest.approx(rows.objective, rel=1e-8)
        assert bnd.timing.modeled_seconds < rows.timing.modeled_seconds

    def test_dual_warm_beats_cold_on_rhs_change(self):
        from repro.lp.problem import LPProblem

        lp = random_dense_lp(48, 64, seed=13)
        first = solve(lp, method="revised")
        lp2 = LPProblem(c=lp.c, a=lp.a_dense(), senses=lp.senses,
                        b=lp.b * np.linspace(0.85, 1.1, 48),
                        bounds=lp.bounds, maximize=lp.maximize)
        cold = solve(lp2, method="revised")
        warm = solve(lp2, method="dual", initial_basis=first.extra["basis"])
        assert warm.objective == pytest.approx(cold.objective, rel=1e-8)
        assert warm.iterations.total_iterations <= cold.iterations.total_iterations

    def test_binv_fills_in_on_sparse_instances(self):
        from repro.core.gpu_revised_simplex import GpuRevisedSimplex
        from repro.lp.generators import random_sparse_lp
        from repro.simplex.options import SolverOptions

        lp = random_sparse_lp(96, 96, density=0.05, seed=42)
        solver = GpuRevisedSimplex(SolverOptions(dtype=np.float64),
                                   fill_stats_every=10)
        r = solver.solve(lp)
        curve = r.extra["binv_fill"]
        assert curve[-1][1] > 2 * curve[0][1]
