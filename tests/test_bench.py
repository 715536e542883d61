"""Tests for the benchmark harness and report rendering."""

import numpy as np
import pytest

from repro.bench.harness import (
    SweepRecord,
    dense_sweep,
    find_crossover,
    relative_error,
    run_method,
    scipy_reference,
    sparse_sweep,
    speedup_series,
)
from repro.bench.tables import Report, Table, ascii_series
from repro.lp.generators import random_dense_lp


class TestTable:
    def test_render_alignment(self):
        t = Table(["name", "value"])
        t.add_row("a", 1.5)
        t.add_row("bb", 23456.789)
        out = t.render()
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_row_width_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_csv(self):
        t = Table(["x", "y"])
        t.add_row(1, 2.5)
        assert t.to_csv() == "x,y\n1,2.5\n"

    def test_column_access(self):
        t = Table(["x", "y"])
        t.add_row(1, "a")
        t.add_row(2, "b")
        assert t.column("y") == ["a", "b"]

    def test_formatting_rules(self):
        t = Table(["v"])
        t.add_row(None)
        t.add_row(float("nan"))
        t.add_row(0.0)
        t.add_row(1e-9)
        t.add_row(123456.0)
        rendered = t.render()
        assert "-" in rendered and "nan" in rendered and "1e-09" in rendered

    def test_report_render(self):
        r = Report("T9", "demo")
        t = r.add_table(Table(["a"]))
        t.add_row(1)
        r.add_note("hello")
        out = r.render()
        assert "[T9] demo" in out
        assert "note: hello" in out

    def test_ascii_series(self):
        out = ascii_series([1, 2], [1.0, 2.0], width=10, label="lbl")
        assert "lbl" in out
        assert out.count("#") == 5 + 10  # half bar + full bar


class TestHarness:
    def test_run_method_record(self, textbook_lp):
        rec = run_method(textbook_lp, "revised")
        assert isinstance(rec, SweepRecord)
        assert rec.status == "optimal"
        assert rec.m == 3 and rec.n == 2
        assert rec.modeled_seconds > 0
        assert rec.per_iteration_us > 0

    def test_dense_sweep_shares_instances(self):
        sweeps = dense_sweep((16, 24), methods=("revised", "gpu-revised"),
                             dtype=np.float64)
        assert len(sweeps["revised"]) == 2
        for rc, rg in zip(sweeps["revised"], sweeps["gpu-revised"]):
            assert rc.objective == pytest.approx(rg.objective, rel=1e-8)

    def test_sparse_sweep(self):
        sweeps = sparse_sweep((20,), density=0.2, methods=("revised",),
                              dtype=np.float64)
        assert sweeps["revised"][0].status == "optimal"

    def test_speedup_series(self):
        sweeps = dense_sweep((16,), methods=("revised", "gpu-revised"))
        sp = speedup_series(sweeps["revised"], sweeps["gpu-revised"])
        assert len(sp) == 1 and sp[0] > 0

    def test_speedup_length_mismatch(self):
        with pytest.raises(ValueError):
            speedup_series([], [None])  # type: ignore[list-item]

    def test_speedup_size_mismatch_rejected(self):
        # Regression: pairing is positional, so sweeps over different
        # instance sizes used to produce silently garbage ratios.
        base = [run_method(random_dense_lp(12, 16, seed=0), "revised")]
        other = [run_method(random_dense_lp(16, 20, seed=0), "gpu-revised")]
        with pytest.raises(ValueError, match="12x16.*16x20"):
            speedup_series(base, other)

    def test_speedup_same_size_different_method_ok(self):
        lp = random_dense_lp(12, 16, seed=0)
        base = [run_method(lp, "revised")]
        other = [run_method(lp, "gpu-revised")]
        assert speedup_series(base, other)[0] > 0

    def test_sweep_record_phase_seconds_from_trace(self, textbook_lp):
        rec = run_method(textbook_lp, "gpu-revised", trace=True)
        assert rec.phase_seconds  # populated from the trace
        assert rec.phase_seconds == rec.result.trace.phase_seconds()
        plain = run_method(textbook_lp, "gpu-revised")
        # without a trace it falls back to the aggregate kernel breakdown
        assert plain.phase_seconds == dict(plain.result.timing.kernel_breakdown)

    def test_find_crossover_interpolates(self):
        assert find_crossover([100, 200], [0.5, 1.5]) == pytest.approx(150.0)

    def test_find_crossover_none(self):
        assert find_crossover([100, 200], [1.5, 2.5]) is None

    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.5, 0.0) == pytest.approx(0.5)

    def test_scipy_reference(self, textbook_lp, infeasible_lp):
        assert scipy_reference(textbook_lp) == pytest.approx(36.0)
        assert scipy_reference(infeasible_lp) is None


class TestExperimentsSmoke:
    """Each experiment runs end-to-end at toy sizes and renders."""

    def test_t1(self):
        from repro.bench.experiments import t1_device_table

        out = t1_device_table().render()
        assert "GTX 280" in out

    def test_f1_f2_small(self):
        from repro.bench.experiments import f1_time_vs_size, f2_speedup

        assert "cpu ms" in f1_time_vs_size(sizes=(16, 32)).render()
        assert "speedup" in f2_speedup(sizes=(16, 32)).render()

    def test_f3_small(self):
        from repro.bench.experiments import f3_kernel_breakdown

        out = f3_kernel_breakdown(size=48).render()
        assert "pricing" in out and "ftran" in out

    def test_f4_small(self):
        from repro.bench.experiments import f4_precision

        assert "fp64/fp32" in f4_precision(sizes=(24,)).render()

    def test_f5_small(self):
        from repro.bench.experiments import f5_transfer_overhead

        assert "transfer %" in f5_transfer_overhead(sizes=(24,)).render()

    def test_a2_small(self):
        from repro.bench.experiments import a2_basis_update

        out = a2_basis_update(size=32).render()
        assert "pfi" in out and "explicit" in out

    def test_f6_small(self):
        from repro.bench.experiments import f6_sparse

        out = f6_sparse(sizes=(32,), density=0.1).render()
        assert "nnz" in out
        assert "cpu-sp ms" in out and "gpu ms" in out

    def test_s1_small(self):
        from repro.bench.experiments import s1_serving_fleet

        out = s1_serving_fleet(n_jobs=8, fleet_sizes=(1, 2)).render()
        assert "1 dev, sequential" in out
        assert "2 dev x4 streams" in out
        assert "cache hits" in out

    def test_o1_small(self):
        from repro.bench.experiments import o1_attribution

        out = o1_attribution(
            n_jobs=6, fleet_sizes=(1,), sweep_sizes=(24,)
        ).render()
        assert "1 dev x4 streams" in out
        assert "launch %" in out and "queue %" in out

    def test_dispatcher_unknown(self, capsys):
        from repro.bench.experiments import main

        assert main(["zz9"]) == 2

    def test_dispatcher_help(self, capsys):
        from repro.bench.experiments import main

        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_dispatcher_runs_one(self, capsys):
        from repro.bench.experiments import main

        assert main(["t1"]) == 0
        assert "GTX 280" in capsys.readouterr().out
