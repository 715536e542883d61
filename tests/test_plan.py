"""Launch-plan layer tests: OpCost.fuse, grouping, capture rules, precision.

The plan layer's two load-bearing promises are checked here at every level:

- **unit**: :meth:`OpCost.fuse` composition algebra, the
  :func:`repro.gpu.plan._group_captured` grouping rules (prologue/epilogue
  fusion, the one-heavy-per-group invariant, dtype splits), the capture
  guard rails (no transfers inside a capture), and the terminal
  reductions: one that a thread block finishes keeps the launch open,
  a wider one splits the section;
- **property**: a fused fp64 solve is bit-identical to the unfused solve —
  status, objective and solution vector — across all five GPU backends on
  the generator families, while launching strictly fewer kernels;
- **integration**: precision policies (fp32 / fp64 / mixed refinement),
  the engine registry capability flags, the solve() façade validation, and
  the recorded pricing inputs the lockstep batch schedule merges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceArrayError, InvalidLaunchError, SolverError
from repro.gpu import blas
from repro.gpu import plan as gpu_plan
from repro.gpu.device import CapturedLaunch, Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.reduce import NO_INDEX
from repro.lp.generators import (
    random_dense_lp,
    random_sparse_lp,
)
from repro.lp.problem import LPProblem
from repro.perfmodel.ops import OpCost
from repro.perfmodel.presets import GTX280_PARAMS
from repro.solve import solve


def make_device() -> Device:
    return Device(GTX280_PARAMS)


# ---------------------------------------------------------------------------
# OpCost.fuse
# ---------------------------------------------------------------------------


class TestOpCostFuse:
    def test_sums_work_and_traffic(self):
        a = OpCost(flops=10, bytes_read=100, bytes_written=40, threads=64)
        b = OpCost(flops=6, bytes_read=50, bytes_written=10, threads=256)
        f = OpCost.fuse(a, b)
        assert f.flops == 16
        assert f.bytes_read == 150
        assert f.bytes_written == 50
        assert f.threads == 256  # grid covers the widest op

    def test_shared_reads_counted_once(self):
        a = OpCost(bytes_read=100)
        b = OpCost(bytes_read=80)
        f = OpCost.fuse(a, b, shared_read_bytes=80)
        assert f.bytes_read == 100
        # dedup can never push traffic negative
        g = OpCost.fuse(a, b, shared_read_bytes=1e9)
        assert g.bytes_read == 0.0

    def test_fraction_weighting(self):
        a = OpCost(bytes_read=100, coalesced_fraction=1.0)
        b = OpCost(bytes_read=300, coalesced_fraction=0.5)
        f = OpCost.fuse(a, b)
        assert f.coalesced_fraction == pytest.approx(
            (100 * 1.0 + 300 * 0.5) / 400
        )
        c = OpCost(flops=10, divergent_fraction=0.2)
        d = OpCost(flops=30, divergent_fraction=0.6)
        g = OpCost.fuse(c, d)
        assert g.divergent_fraction == pytest.approx(
            (10 * 0.2 + 30 * 0.6) / 40
        )

    def test_zero_traffic_and_zero_flops_guards(self):
        # no traffic -> coalesced defaults to 1; no flops -> divergence 0
        f = OpCost.fuse(OpCost(), OpCost())
        assert f.coalesced_fraction == 1.0
        assert f.divergent_fraction == 0.0

    def test_single_and_empty(self):
        a = OpCost(flops=5, bytes_read=7, threads=32)
        assert OpCost.fuse(a) == a
        with pytest.raises(ValueError):
            OpCost.fuse()
        with pytest.raises(ValueError):
            OpCost.fuse(a, shared_read_bytes=-1.0)
        with pytest.raises(TypeError):
            OpCost.fuse(a, "not-a-cost")

    def test_add_operator_is_fuse(self):
        a = OpCost(flops=1, bytes_read=2, threads=8)
        b = OpCost(flops=3, bytes_written=4, threads=16)
        assert a + b == OpCost.fuse(a, b)

    @pytest.mark.parametrize("seed", range(20))
    def test_fuse_is_order_invariant_without_sharing(self, seed):
        rng = np.random.default_rng(seed)
        costs = [
            OpCost(
                flops=float(rng.integers(0, 1000)),
                bytes_read=float(rng.integers(0, 1000)),
                bytes_written=float(rng.integers(0, 1000)),
                threads=int(rng.integers(1, 4096)),
                coalesced_fraction=float(rng.uniform(0, 1)),
                divergent_fraction=float(rng.uniform(0, 1)),
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        f = OpCost.fuse(*costs)
        perm = [costs[i] for i in rng.permutation(len(costs))]
        g = OpCost.fuse(*perm)
        assert f.flops == pytest.approx(g.flops)
        assert f.bytes_total == pytest.approx(g.bytes_total)
        assert f.threads == g.threads
        assert f.coalesced_fraction == pytest.approx(g.coalesced_fraction)
        assert f.divergent_fraction == pytest.approx(g.divergent_fraction)
        # fused work never exceeds the sum of the parts
        assert f.bytes_read <= sum(c.bytes_read for c in costs)


# ---------------------------------------------------------------------------
# grouping rules
# ---------------------------------------------------------------------------


def _op(
    name,
    *,
    fusable,
    reads=(),
    writes=(),
    dtype=np.float32,
    block=DEFAULT_BLOCK,
    operand_bytes=None,
):
    return CapturedLaunch(
        name=name,
        body=lambda: None,
        cost=OpCost(flops=1),
        dtype=np.dtype(dtype),
        block=block,
        fusable=fusable,
        reads=tuple(reads),
        writes=tuple(writes),
        operand_bytes=dict(operand_bytes or {}),
    )


def _names(groups):
    return [[op.name for op in g] for g in groups]


class TestGrouping:
    def test_fusable_run_chains(self):
        ops = [
            _op("a", fusable=True, writes=(1,)),
            _op("b", fusable=True, reads=(1,), writes=(2,)),
            _op("c", fusable=True, reads=(2,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["a", "b", "c"]]

    def test_prologue_fusion(self):
        # copy -> gemv(beta=1): the heavy op reads the run's output
        ops = [
            _op("copy", fusable=True, writes=(1,)),
            _op("gemv", fusable=False, reads=(1, 2), writes=(3,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["copy", "gemv"]]

    def test_heavy_without_data_flow_stays_alone(self):
        ops = [
            _op("copy", fusable=True, writes=(1,)),
            _op("gemv", fusable=False, reads=(5,), writes=(6,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["copy"], ["gemv"]]

    def test_epilogue_fusion(self):
        # SpMV -> elementwise update consuming its output
        ops = [
            _op("spmv", fusable=False, reads=(1,), writes=(2,)),
            _op("update", fusable=True, reads=(2,), writes=(3,)),
            _op("reduce", fusable=True, reads=(3,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [
            ["spmv", "update", "reduce"]
        ]

    def test_epilogue_requires_consumption(self):
        ops = [
            _op("spmv", fusable=False, reads=(1,), writes=(2,)),
            _op("axpy", fusable=True, reads=(8,), writes=(9,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["spmv"], ["axpy"]]

    def test_middle_heavy_fused_pricing_kernel(self):
        # copy -> gemvT -> mask -> reduce: one heavy mid-group, producers
        # before it and consumers after it
        ops = [
            _op("copy", fusable=True, writes=(1,)),
            _op("gemv_t", fusable=False, reads=(1, 2), writes=(1,)),
            _op("mask", fusable=True, reads=(1, 4), writes=(5,)),
            _op("argmin", fusable=True, reads=(5,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [
            ["copy", "gemv_t", "mask", "argmin"]
        ]

    def test_one_heavy_per_group(self):
        # a second heavy cannot join a group that already has one, even
        # when it consumes the group's output
        ops = [
            _op("copy", fusable=True, writes=(1,)),
            _op("gemv1", fusable=False, reads=(1,), writes=(2,)),
            _op("scale", fusable=True, reads=(2,), writes=(2,)),
            _op("gemv2", fusable=False, reads=(2,), writes=(3,)),
        ]
        groups = _names(gpu_plan._group_captured(ops))
        assert groups == [["copy", "gemv1", "scale"], ["gemv2"]]
        for g in gpu_plan._group_captured(ops):
            assert sum(1 for op in g if not op.fusable) <= 1

    def test_back_to_back_heavies_stay_single(self):
        ops = [
            _op("gemv1", fusable=False, reads=(1,), writes=(2,)),
            _op("gemv2", fusable=False, reads=(2,), writes=(3,)),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["gemv1"], ["gemv2"]]

    def test_dtype_mismatch_splits(self):
        ops = [
            _op("a", fusable=True, writes=(1,), dtype=np.float32),
            _op("b", fusable=True, reads=(1,), dtype=np.float64),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["a"], ["b"]]

    def test_block_mismatch_splits(self):
        ops = [
            _op("a", fusable=True, writes=(1,), block=128),
            _op("b", fusable=True, reads=(1,), block=256),
        ]
        assert _names(gpu_plan._group_captured(ops)) == [["a"], ["b"]]

    def test_order_is_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ops = [
                _op(
                    f"k{i}",
                    fusable=bool(rng.integers(0, 2)),
                    reads=tuple(
                        int(t) for t in rng.integers(0, 6, size=2)
                    ),
                    writes=(int(rng.integers(0, 6)),),
                )
                for i in range(int(rng.integers(1, 10)))
            ]
            flat = [
                op.name
                for g in gpu_plan._group_captured(ops)
                for op in g
            ]
            assert flat == [op.name for op in ops]

    def test_shared_read_bytes(self):
        ops = [
            _op("a", fusable=True, reads=(1,), writes=(2,),
                operand_bytes={1: 40, 2: 8}),
            _op("b", fusable=True, reads=(1, 2), writes=(3,),
                operand_bytes={1: 40, 2: 8, 3: 8}),
        ]
        # b re-reads operand 1 (read by a) and operand 2 (written by a)
        assert gpu_plan._shared_read_bytes(ops) == 48.0

    def test_reread_credited_as_charged(self):
        """GEMVᵀ over a column-major 64×16 A runs two warps per 64-word
        column, so a block holds 4 columns and reads β·y in 4-lane runs,
        a segment per 4 outputs: 256 B for 16 fp32 outputs, four times
        their 64 bytes.  Fused after the copy that writes y, the read it
        keeps in registers is credited at what it was charged."""
        from repro.gpu.memory import COLUMN_MAJOR

        def run(fusion):
            dev = make_device()
            dev.record_timeline()
            region = dev.region(
                {"a": ((64, 16), np.float32)}, column_major=("a",)
            )
            region.fill({"a": np.ones((64, 16), np.float32)})
            assert region["a"].layout == COLUMN_MAJOR
            c = dev.to_device(np.ones(16, np.float32))
            pi = dev.to_device(np.ones(64, np.float32))
            d = dev.alloc(16, np.float32)
            with gpu_plan.LaunchPlan(dev, fusion=fusion).section("pricing"):
                blas.copy(c, d)
                blas.gemv(region["a"], pi, d, -1.0, 1.0, trans=True)
            return [e for e in dev.timeline if e.kind == "kernel"]

        copy, gemv = (e.cost for e in run(False))
        (fused,) = run(True)
        assert fused.name == "fused[copy+gemv_t]"
        assert gemv.threads == 16 * 32 * 2
        gemv_y_read = 4 * GTX280_PARAMS.transaction_bytes
        assert fused.cost.bytes_read == (
            copy.bytes_read + gemv.bytes_read - gemv_y_read
        )


# ---------------------------------------------------------------------------
# capture guard rails
# ---------------------------------------------------------------------------


class TestCaptureRules:
    def test_transfer_inside_capture_raises(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        x = dev.to_device(np.ones(8), np.float32)
        with pytest.raises(InvalidLaunchError):
            with plan.section("bad"):
                blas.scal(2.0, x)
                x.copy_to_host()

    def test_memset_inside_capture_raises(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        with pytest.raises(InvalidLaunchError):
            with plan.section("bad"):
                dev.zeros(8, np.float32)

    def test_nested_capture_raises(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        with pytest.raises(InvalidLaunchError):
            with plan.section("outer"):
                with plan.section("inner"):
                    pass

    def test_fusion_off_is_passthrough(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=False)
        x = dev.to_device(np.arange(8, dtype=np.float32))
        out = dev.alloc(2, np.float32)
        with plan.section("s") as sec:
            blas.scal(2.0, x)
            sec.argmin_to_device(x, out)
        assert list(out.copy_to_host()) == [0.0, 0.0]
        assert plan.fused_launches == 0
        assert dev._capture is None

    def test_fused_section_results_and_stats(self):
        def run(fusion):
            dev = make_device()
            plan = gpu_plan.LaunchPlan(dev, fusion=fusion)
            x = dev.to_device(np.arange(1, 9, dtype=np.float32))
            y = dev.to_device(np.ones(8, dtype=np.float32))
            out = dev.alloc(2, np.float32)
            with plan.section("s") as sec:
                blas.axpy(-0.5, x, y)
                sec.argmin_to_device(y, out)
            return (dev, plan, x.copy_to_host(), y.copy_to_host(),
                    out.copy_to_host())

        d0, p0, x0, y0, o0 = run(False)
        d1, p1, x1, y1, o1 = run(True)
        assert np.array_equal(x0, x1) and np.array_equal(y0, y1)
        assert np.array_equal(o0, o1)
        assert p1.fused_launches >= 1 and p1.fused_ops > p1.fused_launches
        assert p1.saved_seconds > 0.0
        assert d1.stats.kernel_launches < d0.stats.kernel_launches
        # the fused solve is modeled strictly faster (saved overhead)
        assert d1.clock < d0.clock

    def test_exception_inside_section_ends_capture(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        with pytest.raises(RuntimeError):
            with plan.section("s"):
                raise RuntimeError("boom")
        assert dev._capture is None

    def test_timed_attribution(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        x = dev.to_device(np.ones(64), np.float32)
        with plan.section("s", timed="spmv"):
            blas.scal(2.0, x)
            blas.scal(0.5, x)
        assert dev.stats.sections.get("spmv", 0.0) > 0.0


# ---------------------------------------------------------------------------
# terminal reductions: block-resident or grid-wide
# ---------------------------------------------------------------------------


def _kernels(fusion, build):
    """Lower one plan section on a fresh device with its timeline on.
    ``build(dev)`` allocates the buffers and returns ``(issue, stored)``:
    ``issue(sec)`` issues the section's kernels, ``stored`` are the buffers
    whose contents the caller compares.  Returns the section's kernel
    events and host copies of ``stored``."""
    dev = make_device()
    plan = gpu_plan.LaunchPlan(dev, fusion=fusion)
    issue, stored = build(dev)
    dev.record_timeline()
    with plan.section("s") as sec:
        issue(sec)
    events = [e for e in dev.timeline if e.kind == "kernel"]
    return events, [list(buf.data) for buf in stored]


class TestBlockResidentReductions:
    @staticmethod
    def ratio_test(m):
        """The ratio test's map, arg-min, tie-break map and keyed arg-min
        over ``m`` rows, storing two (index, value) pairs."""
        from repro.core import gpu_kernels as K

        def build(dev):
            rng = np.random.default_rng(m)
            beta = dev.to_device(rng.integers(0, 4, size=m).astype(float))
            alpha = dev.to_device(rng.integers(-1, 3, size=m).astype(float))
            keys = dev.to_device(rng.permutation(m).astype(float))
            ratios, tie = dev.zeros(m, np.float64), dev.zeros(m, np.float64)
            best, row = dev.alloc(2, np.float64), dev.alloc(2, np.float64)

            def issue(sec):
                K.ratio_kernel(dev, beta, alpha, ratios, 1e-9)
                sec.argmin_to_device(ratios, best)
                K.tie_break_key_kernel(dev, ratios, best, keys, tie)
                sec.argmin_to_device(tie, row)

            return issue, (best, row)

        return build

    def test_two_one_block_reductions_lower_to_one_launch(self):
        build = self.ratio_test(2 * DEFAULT_BLOCK)
        plain, stored = _kernels(False, build)
        fused, fused_stored = _kernels(True, build)
        assert len(plain) == 4
        assert [e.name for e in fused] == [
            "fused[ratio+argmin+tie_break+argmin]"
        ]
        # the tie-break map read the first arg-min's store: capture order
        assert fused_stored == stored
        assert stored[1][0] != NO_INDEX

    def test_block_resident_launch_is_one_block(self):
        (launch,) = _kernels(True, self.ratio_test(2 * DEFAULT_BLOCK))[0]
        assert launch.cost.threads == DEFAULT_BLOCK

        # a fused group whose reduction ends the launch keeps its grid
        def build(dev):
            x = dev.to_device(np.linspace(1.0, -1.0, 2 * DEFAULT_BLOCK + 1))
            out = dev.alloc(2, np.float64)

            def issue(sec):
                blas.scal(2.0, x)
                sec.argmin_to_device(x, out)

            return issue, (out,)

        first = _kernels(True, build)[0][0]
        assert first.name == "fused[scal+argmin]"
        assert first.cost.threads == 2 * DEFAULT_BLOCK + 1

    def test_wide_reduction_splits_the_section(self):
        """A reduction over 2·DEFAULT_BLOCK + 1 elements needs a grid-wide
        barrier: the section lowers at it, charges its second tree pass,
        reopens, and the next reduction's launch follows."""
        n = 2 * DEFAULT_BLOCK + 1

        def build(dev):
            x = dev.to_device(np.linspace(3.0, -1.0, n))
            y = dev.to_device(np.linspace(-2.0, 2.0, 64))
            a, b = dev.alloc(2, np.float64), dev.alloc(2, np.float64)

            def issue(sec):
                blas.scal(2.0, x)
                sec.argmin_to_device(x, a)
                blas.scal(0.5, y)
                sec.first_below_to_device(y, 0.0, b)

            return issue, (a, b)

        plain, stored = _kernels(False, build)
        fused, fused_stored = _kernels(True, build)
        assert [e.name for e in plain] == [
            "blas.scal", "reduce.argmin", "reduce.argmin",
            "blas.scal", "reduce.first_below",
        ]
        assert [e.name for e in fused] == [
            "fused[scal+argmin]", "reduce.argmin", "fused[scal+first_below]",
        ]
        # the remaining pass is charged exactly as op by op
        assert fused[1].cost == plain[2].cost
        assert fused_stored == stored == [[n - 1.0, -2.0], [0.0, -1.0]]

    def test_heavy_op_after_an_open_reduction_launches_apart(self):
        """Ops after a block-resident reduction that do not fit one block
        start a new launch; the reduction's launch goes first."""

        def build(dev):
            a = dev.to_device(np.arange(12.0).reshape(3, 4))
            x = dev.to_device(np.array([2.0, -1.0, 0.5]))
            y, out = dev.zeros(4, np.float64), dev.alloc(2, np.float64)

            def issue(sec):
                blas.scal(2.0, x)
                sec.argmin_to_device(x, out)
                blas.gemv(a, x, y, trans=True)

            return issue, (out, y)

        plain, stored = _kernels(False, build)
        fused, fused_stored = _kernels(True, build)
        assert [e.name for e in fused] == ["fused[scal+argmin]", "blas.gemv_t"]
        assert fused_stored == stored


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


class TestEmit:
    def test_emit_outside_section_launches(self):
        dev = make_device()
        x = dev.to_device(np.zeros(4), np.float32)

        def body():
            x.data[:] = 7.0

        gpu_plan.emit(
            dev, "custom.fill", body, OpCost(bytes_written=16),
            dtype=x.dtype, fusable=True, writes=(x,),
        )
        assert np.all(x.copy_to_host() == 7.0)

    def test_emit_inside_fused_section_is_captured(self):
        dev = make_device()
        plan = gpu_plan.LaunchPlan(dev, fusion=True)
        x = dev.to_device(np.zeros(4), np.float32)

        def body():
            x.data[:] = 7.0

        with plan.section("s"):
            gpu_plan.emit(
                dev, "custom.fill", body, OpCost(bytes_written=16),
                dtype=x.dtype, fusable=True, writes=(x,),
            )
            # deferred: the body has not executed during capture
            assert np.all(x.data == 0.0)
        assert np.all(x.copy_to_host() == 7.0)


# ---------------------------------------------------------------------------
# blas.cast and the strict dtype rule
# ---------------------------------------------------------------------------


class TestCast:
    def test_cast_roundtrip(self):
        dev = make_device()
        x64 = dev.to_device(np.linspace(-3, 3, 17), np.float64)
        x32 = dev.alloc(17, np.float32)
        blas.cast(x64, x32)
        assert x32.copy_to_host().dtype == np.float32
        np.testing.assert_array_equal(
            x32.copy_to_host(),
            np.linspace(-3, 3, 17).astype(np.float32),
        )

    def test_cast_same_dtype_rejected(self):
        dev = make_device()
        a = dev.to_device(np.ones(4), np.float32)
        b = dev.alloc(4, np.float32)
        with pytest.raises(DeviceArrayError):
            blas.cast(a, b)

    def test_mixed_dtype_axpy_still_raises(self):
        # regression: the cast kernel must not have loosened _prep
        dev = make_device()
        x = dev.to_device(np.ones(4), np.float32)
        y = dev.to_device(np.ones(4), np.float64)
        with pytest.raises(DeviceArrayError):
            blas.axpy(1.0, x, y)

    def test_cast_charges_traffic(self):
        dev = make_device()
        x = dev.to_device(np.ones(1024), np.float64)
        out = dev.alloc(1024, np.float32)
        before = dev.clock
        blas.cast(x, out)
        assert dev.clock > before
        assert "blas.cast" in dev.stats.by_kernel


# ---------------------------------------------------------------------------
# RATIO_INF dtype preservation
# ---------------------------------------------------------------------------


class TestRatioInfDtype:
    def test_ratio_kernel_keeps_fp32(self):
        from repro.core import gpu_kernels as K

        dev = make_device()
        beta = dev.to_device(np.array([1.0, 2.0, 3.0]), np.float32)
        alpha = dev.to_device(np.array([0.5, -1.0, 1e-9]), np.float32)
        ratios = dev.zeros(3, np.float32)
        K.ratio_kernel(dev, beta, alpha, ratios, 1e-7)
        out = ratios.copy_to_host()
        assert out.dtype == np.float32
        assert out[0] == np.float32(2.0)
        assert np.isinf(out[1]) and np.isinf(out[2])


# ---------------------------------------------------------------------------
# property: fused == unfused, bit for bit, across the GPU backends
# ---------------------------------------------------------------------------


def _bounded_lp(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return LPProblem.minimize(
        c=rng.normal(size=n),
        a_ub=np.abs(rng.normal(size=(n // 2, n))),
        b_ub=np.full(n // 2, 5.0),
        bounds=[(0.0, 3.0)] * n,
    )


FUSION_CASES = [
    ("gpu-revised", lambda s: random_dense_lp(16, 24, seed=s)),
    ("gpu-revised", lambda s: random_dense_lp(24, 24, seed=s)),
    ("gpu-revised", lambda s: random_sparse_lp(24, 32, density=0.2, seed=s)),
    ("gpu-tableau", lambda s: random_dense_lp(12, 18, seed=s)),
    # boxed: gpu-revised keeps the bounds out of the rows (bound flips)
    ("gpu-revised", lambda s: _bounded_lp(8, seed=s)),
    ("gpu-revised-sparse",
     lambda s: random_sparse_lp(32, 48, density=0.12, seed=s)),
    ("gpu-pdlp", lambda s: random_sparse_lp(24, 36, density=0.15, seed=s)),
]


class TestFusedBitIdentity:
    @pytest.mark.parametrize("method,gen", FUSION_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fused_solve_bit_identical_fp64(self, method, gen, seed):
        lp = gen(seed)

        def run(**kw):
            dev = make_device()
            dev.record_timeline()
            r = solve(lp, method=method, device=dev, dtype=np.float64, **kw)
            launches = sum(
                1 for ev in dev.timeline if ev.kind == "kernel"
            )
            return r, launches

        r0, n0 = run(fusion=False)
        r1, n1 = run()  # fused lowering is the default
        assert r1.status == r0.status
        assert r1.objective == r0.objective  # bit-identical, not approx
        if r0.x is not None:
            assert np.array_equal(r1.x, r0.x)
        assert r1.iterations.total_iterations == r0.iterations.total_iterations
        assert n1 < n0
        assert r1.extra["fused_launches"] > 0
        assert r1.extra["fused_ops"] > r1.extra["fused_launches"]
        assert r1.extra["fusion_saved_seconds"] > 0.0
        assert r1.timing.modeled_seconds < r0.timing.modeled_seconds


# ---------------------------------------------------------------------------
# precision policies
# ---------------------------------------------------------------------------


class TestPrecision:
    def test_policy_resolution(self):
        from repro.simplex.options import SolverOptions

        P = gpu_plan.PrecisionPolicy
        # precision=None defers to options.dtype (fp64 by default)
        default = P.from_options(SolverOptions())
        assert default.compute_dtype == np.float64 and not default.refine
        p32 = P.from_options(SolverOptions(dtype=np.float32))
        assert p32.compute_dtype == np.float32 and not p32.refine
        p64 = P.from_options(SolverOptions(dtype=np.float64))
        assert p64.compute_dtype == np.float64 and not p64.refine
        pmx = P.from_options(SolverOptions(precision="mixed"))
        assert pmx.compute_dtype == np.float32 and pmx.refine

    @pytest.mark.parametrize("method", ["gpu-revised", "gpu-tableau"])
    def test_mixed_recovers_fp64_objective(self, method):
        lp = random_dense_lp(20, 30, seed=3)
        r64 = solve(lp, method=method, dtype=np.float64)
        rmx = solve(lp, method=method, precision="mixed")
        rel = abs(rmx.objective - r64.objective) / max(1.0, abs(r64.objective))
        assert rel < 1e-9
        assert rmx.extra["refinement_steps"] <= 3
        assert rmx.extra["residual_after_refinement"] < 1e-8

    def test_mixed_beats_plain_fp32_accuracy(self):
        lp = random_dense_lp(48, 64, seed=9)
        r64 = solve(lp, method="gpu-revised", dtype=np.float64)
        r32 = solve(lp, method="gpu-revised", dtype=np.float32)
        rmx = solve(lp, method="gpu-revised", precision="mixed")
        x64 = r64.x

        def err(r):
            return float(np.max(np.abs(r.x - x64))) if r.x is not None else 0.0

        assert err(rmx) <= err(r32)

    def test_fp64_precision_equals_dtype_fp64(self):
        lp = random_dense_lp(16, 24, seed=4)
        a = solve(lp, method="gpu-revised", dtype=np.float64)
        b = solve(lp, method="gpu-revised", precision=None)
        assert a.objective == b.objective

    @pytest.mark.parametrize("method", ["gpu-revised-sparse", "gpu-pdlp"])
    def test_unsupported_mixed_raises(self, method):
        lp = random_sparse_lp(16, 24, density=0.2, seed=0)
        with pytest.raises(SolverError):
            solve(lp, method=method, precision="mixed")

    @pytest.mark.parametrize("method", ["gpu-revised-sparse", "gpu-pdlp"])
    def test_unsupported_mixed_raises_on_direct_construction(self, method):
        # the device preamble rejects it without going through the façade
        from repro.engine.registry import METHODS
        from repro.simplex.options import SolverOptions

        lp = random_sparse_lp(16, 24, density=0.2, seed=0)
        solver = METHODS[method].factory(SolverOptions(precision="mixed"), None)
        with pytest.raises(SolverError, match="does not support mixed precision"):
            solver.solve(lp)


# ---------------------------------------------------------------------------
# registry flags and façade validation
# ---------------------------------------------------------------------------


class TestCapabilityFlags:
    def test_registry_flags(self):
        from repro.engine.registry import (
            METHODS,
            device_methods,
            mixed_precision_methods,
        )

        assert device_methods() == {
            "gpu-revised", "gpu-revised-sparse", "gpu-tableau", "gpu-pdlp",
        }
        assert mixed_precision_methods() == {"gpu-revised", "gpu-tableau"}
        # mixed precision is a device-method capability
        for name in mixed_precision_methods():
            assert METHODS[name].supports_device

    def test_fusion_on_host_method_ignored(self):
        # host methods ignore fusion, as simplex methods ignore tol_kkt
        lp = random_dense_lp(8, 12, seed=0)
        on = solve(lp, method="revised", fusion=True)
        off = solve(lp, method="revised", fusion=False)
        assert on.objective == off.objective
        assert on.timing.modeled_seconds == off.timing.modeled_seconds

    def test_precision_on_host_method_raises(self):
        lp = random_dense_lp(8, 12, seed=0)
        with pytest.raises(SolverError, match="host"):
            solve(lp, method="revised", precision="mixed")

    def test_unknown_precision_rejected(self):
        from repro.simplex.options import SolverOptions

        with pytest.raises(SolverError):
            SolverOptions(precision="fp16")
        # the dtype aliases are gone: dtype sets the arithmetic
        with pytest.raises(SolverError):
            SolverOptions(precision="fp32")


# ---------------------------------------------------------------------------
# batch: what the lockstep schedule prices from
# ---------------------------------------------------------------------------


class TestBatchGemv:
    @pytest.mark.parametrize("fusion", [True, False])
    def test_timeline_events_reprice_to_their_seconds(self, fusion):
        """Each recorded event carries what the device priced it from, and
        the shared pricing rule gives back exactly the seconds charged."""
        from repro.gpu.device import event_seconds

        dev = make_device()
        dev.record_timeline()
        solve(random_dense_lp(12, 18, seed=0), method="gpu-revised",
              device=dev, fusion=fusion)
        kinds = {ev.kind for ev in dev.timeline}
        assert {"kernel", "htod", "dtoh"} <= kinds
        for ev in dev.timeline:
            if ev.kind == "kernel":
                assert ev.cost is not None and ev.block > 0
            seconds = event_seconds(
                dev.model, ev.kind, ev.name, nbytes=ev.nbytes,
                cost=ev.cost, dtype=ev.dtype, block=ev.block,
            )
            assert seconds == ev.seconds, ev

    def test_memset_event_reprices(self):
        from repro.gpu.device import event_seconds

        dev = make_device()
        dev.record_timeline()
        dev.zeros(1000, np.float64)
        (ev,) = dev.timeline
        assert (ev.kind, ev.name, ev.nbytes) == ("kernel", "memset", 8000)
        assert ev.dtype == np.float64
        assert event_seconds(
            dev.model, ev.kind, ev.name, nbytes=ev.nbytes, cost=ev.cost,
            dtype=ev.dtype, block=ev.block,
        ) == ev.seconds

    def test_stack_sums_threads_and_work(self):
        a = OpCost(flops=10, bytes_read=100, bytes_written=40, threads=64,
                   coalesced_fraction=0.5)
        b = OpCost(flops=6, bytes_read=60, bytes_written=0, threads=256)
        s = OpCost.stack(a, b)
        assert (s.flops, s.bytes_read, s.bytes_written) == (16, 160, 40)
        assert s.threads == 320  # side by side, not the widest op
        assert s.coalesced_fraction == OpCost.fuse(a, b).coalesced_fraction

    @pytest.mark.parametrize("threads", [1, 96, 4096, 60_000])
    def test_stacked_launch_costs_less_than_its_parts(self, threads):
        """One launch over B problems pays one overhead and fills the
        device at least as well as each part."""
        model = make_device().model
        part = OpCost(flops=2.0 * threads, bytes_read=8.0 * threads,
                      bytes_written=4.0 * threads, threads=threads)
        for b in (2, 8):
            whole = model.kernel_time(OpCost.stack(*[part] * b), np.float32)
            assert whole < b * model.kernel_time(part, np.float32)

    def test_serve_config_plumbs_fusion(self):
        from repro.serve import LPServer, ServeConfig

        cfg = ServeConfig(
            n_devices=1, n_streams=2, method="gpu-revised", fusion=True,
        )
        server = LPServer(cfg)
        for s in range(4):
            server.submit(random_dense_lp(10, 14, seed=s))
        report = server.run()
        assert len(report.completed) == 4
        plain = LPServer(ServeConfig(n_devices=1, n_streams=2,
                                     method="gpu-revised"))
        for s in range(4):
            plain.submit(random_dense_lp(10, 14, seed=s))
        rep2 = plain.run()
        objs = sorted(j.result.objective for j in report.completed)
        objs2 = sorted(j.result.objective for j in rep2.completed)
        assert objs == objs2
