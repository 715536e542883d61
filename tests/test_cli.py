"""Tests for the command-line interface."""

import numpy as np
import pytest

from conftest import badly_scaled
from repro.cli import main
from repro.lp.generators import random_dense_lp
from repro.lp.mps import write_mps
from repro.trace import PIVOT_EVENTS


@pytest.fixture
def mps_file(tmp_path):
    path = tmp_path / "instance.mps"
    write_mps(random_dense_lp(12, 16, seed=1), path)
    return str(path)


class TestSolve:
    def test_solve_default(self, mps_file, capsys):
        assert main(["solve", mps_file]) == 0
        out = capsys.readouterr().out
        assert "status=optimal" in out
        assert "objective:" in out

    @pytest.mark.parametrize("method", ["tableau", "revised", "gpu-tableau"])
    def test_solve_methods(self, method, mps_file, capsys):
        assert main(["solve", mps_file, "--method", method]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_solve_fp32(self, mps_file, capsys):
        assert main(["solve", mps_file, "--dtype", "float32"]) == 0

    def test_solve_badly_scaled(self, tmp_path, capsys):
        path = str(tmp_path / "hostile.mps")
        write_mps(badly_scaled(random_dense_lp(12, 16, seed=1), seed=1), path)
        assert main(["info", path]) == 0
        assert "scaled automatically" in capsys.readouterr().out
        assert main(["solve", path, "--dtype", "float32"]) == 0
        assert "status=optimal" in capsys.readouterr().out

    def test_removed_flag_rejected(self, mps_file, capsys):
        for option in ("presolve", "scale"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", mps_file, f"--{option}"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_fusion_flag(self, mps_file, capsys):
        # fused lowering is the default; --no-fusion is the op-by-op baseline
        assert main(["solve", mps_file]) == 0
        assert "fusion:" in capsys.readouterr().out
        assert main(["solve", mps_file, "--no-fusion"]) == 0
        assert "fusion:" not in capsys.readouterr().out
        assert main(["solve", mps_file, "--method", "revised", "--fusion"]) == 0

    def test_print_solution(self, mps_file, capsys):
        assert main(["solve", mps_file, "--print-solution"]) == 0
        out = capsys.readouterr().out
        assert " = " in out  # at least one variable line

    def test_infeasible_exit_code(self, tmp_path, capsys):
        from repro.lp.problem import LPProblem

        lp = LPProblem.minimize(c=[1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])
        path = tmp_path / "inf.mps"
        write_mps(lp, path)
        assert main(["solve", str(path)]) == 1
        assert "infeasible" in capsys.readouterr().out

    def test_iteration_limit_flag(self, mps_file, capsys):
        assert main(["solve", mps_file, "--max-iterations", "1"]) == 1
        assert "iteration_limit" in capsys.readouterr().out


class TestInfo:
    def test_info(self, mps_file, capsys):
        assert main(["info", mps_file]) == 0
        out = capsys.readouterr().out
        assert "12 rows x 16 cols" in out
        assert "senses" in out


class TestGenerate:
    def test_generate_dense(self, tmp_path, capsys):
        out = tmp_path / "g.mps"
        assert main(["generate", "dense", "8", "10", "--out", str(out)]) == 0
        assert out.exists()

    def test_generate_sparse(self, tmp_path):
        out = tmp_path / "s.mps"
        assert main(["generate", "sparse", "10", "30", "--density", "0.2",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_generate_transport(self, tmp_path):
        out = tmp_path / "t.mps"
        assert main(["generate", "transport", "3", "4", "--out", str(out)]) == 0
        assert out.exists()

    def test_generate_klee_minty(self, tmp_path):
        out = tmp_path / "k.mps"
        assert main(["generate", "klee-minty", "5", "--out", str(out)]) == 0
        assert out.exists()

    def test_generated_file_solves(self, tmp_path, capsys):
        out = tmp_path / "roundtrip.mps"
        main(["generate", "dense", "10", "12", "--out", str(out)])
        assert main(["solve", str(out), "--method", "revised"]) == 0

    def test_dense_requires_n(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "dense", "8", "--out", str(tmp_path / "x.mps")])


class TestOtherCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        assert "GTX 280" in capsys.readouterr().out

    def test_bench_t1(self, capsys):
        assert main(["bench", "t1"]) == 0
        assert "Modeled hardware" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "zz"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeCommand:
    def test_serve_default_trace(self, capsys):
        assert main(["serve", "--jobs", "8", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 8/8 jobs" in out
        assert "dev0" in out and "dev1" in out
        assert "cache:" in out

    def test_serve_jobs_table(self, capsys):
        assert main(["serve", "--jobs", "6", "--jobs-table"]) == 0
        out = capsys.readouterr().out
        assert "latency ms" in out
        assert "optimal" in out

    def test_serve_metrics_exposition(self, capsys):
        assert main(["serve", "--jobs", "6", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_jobs_submitted_total" in out
        assert "repro_serve_latency_quantile_seconds" in out
        # the exposition is valid Prometheus text
        from repro.metrics import validate_prometheus_text

        exposition = out[out.index("# HELP"):]
        assert validate_prometheus_text(exposition) > 0

    def test_serve_fusion_flag(self, capsys):
        assert main(["serve", "--jobs", "4", "--metrics"]) == 0
        assert "repro_gpu_fused_launches_total" in capsys.readouterr().out
        assert main(["serve", "--jobs", "4", "--metrics", "--no-fusion"]) == 0
        assert "repro_gpu_fused_launches_total" not in capsys.readouterr().out

    def test_serve_cpu_method(self, capsys):
        assert main(["serve", "--jobs", "4", "--method", "revised"]) == 0
        assert "cpu x4" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_mps_file(self, mps_file, capsys):
        assert main(["trace", mps_file, "--method", "gpu-revised"]) == 0
        out = capsys.readouterr().out
        assert "status=optimal" in out
        assert "time by solver section" in out

    def test_trace_writes_valid_chrome_json(self, mps_file, tmp_path, capsys):
        import json

        target = tmp_path / "merged.json"
        assert main(["trace", mps_file, "--method", "gpu-revised",
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "solver-phase" in cats
        assert "kernel" in cats or "transfer" in cats

    def test_trace_random_cpu_method(self, capsys):
        assert main(["trace", "--random", "--rows", "10", "--cols", "14",
                     "--method", "revised"]) == 0
        assert "revised-cpu" in capsys.readouterr().out

    def test_trace_needs_input(self):
        with pytest.raises(SystemExit):
            main(["trace"])


class TestTraceOption:
    """The trace SolverOptions flag (exercised here with the library API)."""

    def test_trace_recorded(self):
        from repro import solve

        lp = random_dense_lp(10, 14, seed=2)
        r = solve(lp, method="revised", trace=True)
        pivots = [rec for rec in r.trace if rec.event in PIVOT_EVENTS]
        # each phase's final iteration only detects optimality (no pivot)
        total = r.iterations.total_iterations
        assert total - 2 <= len(pivots) < total
        phases = {rec.phase for rec in pivots}
        assert phases <= {1, 2}
        # the objective is monotone non-increasing in phase 2 (minimisation
        # of the negated objective)
        z_values = [rec.objective for rec in pivots if rec.phase == 2]
        assert all(b <= a + 1e-9 for a, b in zip(z_values, z_values[1:]))

    def test_trace_gpu_matches_cpu(self):
        from repro import solve

        lp = random_dense_lp(12, 16, seed=3)
        rc = solve(lp, method="revised", trace=True, dtype=np.float64)
        rg = solve(lp, method="gpu-revised", trace=True, dtype=np.float64)
        # identical pivot sequences: same (entering, leaving-row) pairs
        def pivots(r):
            return [
                (rec.entering, rec.leaving_row)
                for rec in r.trace if rec.event in PIVOT_EVENTS
            ]

        assert pivots(rc) == pivots(rg)

    def test_trace_off_by_default(self):
        from repro import solve

        lp = random_dense_lp(8, 8, seed=4)
        r = solve(lp, method="revised")
        assert "trace" not in r.extra
