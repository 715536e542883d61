"""Harness tests for the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load(name: str):
    """Import a benchmark module by path (``trace`` would otherwise
    resolve to the standard library module)."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tmp: Path, *args: str, cwd: Path = ROOT) -> dict:
    out = tmp / "runs.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--out", str(out),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return {
        "seconds": time.perf_counter() - start,
        "returncode": proc.returncode,
        "lines": proc.stdout.strip().splitlines(),
        "stderr": proc.stderr,
        "runs": json.loads(out.read_text())["runs"] if out.exists() else [],
    }


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("smoke0"), "--smoke", "--seed", "0")


@pytest.fixture(scope="module")
def smoke_traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("trace0"), "--smoke", "--seed", "0",
                "--trace")


@pytest.fixture(scope="module")
def smoke_seed1(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("smoke1"), "--smoke", "--seed", "1")


def _modeled(result) -> dict:
    return {
        r["workload"]: (
            r["samples"]["modeled_s"],
            {k: v for k, v in r["e2e"].items() if k.startswith("modeled")},
        )
        for r in result["runs"]
    }


def test_smoke_is_fast_and_correct(smoke):
    assert smoke["returncode"] == 0, smoke["stderr"]
    assert smoke["seconds"] < 60
    final = json.loads(smoke["lines"][-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] == 4 * 8


def test_same_seed_reproduces_modeled_metrics(smoke, smoke_traced):
    assert smoke_traced["returncode"] == 0, smoke_traced["stderr"]
    assert _modeled(smoke) == _modeled(smoke_traced)


def test_different_seed_changes_inputs(smoke, smoke_seed1):
    wl = _load("workloads")
    for name in wl.NAMES:
        assert wl._seeds(name, 0, 4) != wl._seeds(name, 1, 4)
    a = wl.build("dense-paper", 0, smoke=True).problems[0]
    b = wl.build("dense-paper", 1, smoke=True).problems[0]
    assert not np.array_equal(a.a, b.a)
    first, second = _modeled(smoke), _modeled(smoke_seed1)
    for name in wl.NAMES:
        assert first[name][0] != second[name][0], name


def test_nearest_rank_handles_inf():
    wl = _load("workloads")
    values = [0.003, 0.001, math.inf, 0.002, math.inf]
    assert wl.nearest_rank(values, 0.5) == 0.003
    assert wl.nearest_rank(values, 0.9) == math.inf
    finite = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    for q in (0.1, 0.5, 0.9, 1.0):
        assert wl.nearest_rank(finite, q) == np.quantile(
            finite, q, method="inverted_cdf"
        )


def test_oracle_rejects_wrong_answers():
    import dataclasses

    from repro import solve
    from repro.lp.generators import random_dense_lp
    from repro.status import SolveStatus

    wl = _load("workloads")
    lp = random_dense_lp(12, 12, seed=5)
    good = solve(lp, method="revised")
    ref = good.objective
    assert wl.check_solve(lp, good, ref) is None
    off = dataclasses.replace(good, objective=ref * (1 + 1e-4))
    assert "objective" in wl.check_solve(lp, off, ref)
    infeasible = dataclasses.replace(good, x=good.x * 2.0)
    assert "infeasibility" in wl.check_solve(lp, infeasible, ref)
    stopped = dataclasses.replace(good, status=SolveStatus.ITERATION_LIMIT)
    assert "status" in wl.check_solve(lp, stopped, ref)


def test_benchmark_json_names_units_and_caps(smoke, smoke_traced):
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in e2e + layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)
    printed = {tuple(line.split()[:2]) for line in smoke["lines"][:-1]}
    for workload in SPEC["workloads"]:
        for m in e2e:
            assert (workload["name"], m["name"]) in printed
    # Every per-layer metric is measured by at least one workload; the
    # host-clock ones are measured on every run.
    produced = {k for r in smoke_traced["runs"] for k in (*r["layer"], *r["e2e"])}
    assert {m["name"] for m in layer} <= produced


def test_traced_run_keeps_results_and_covers_requests(smoke_traced):
    assert json.loads(smoke_traced["lines"][-1])["correct"]
    for run in smoke_traced["runs"]:
        assert run["errors"] == []
        assert run["layer"]["trace.coverage_min"] >= 0.95
        assert "trace.overhead_frac" in run["layer"]


def test_tracer_restores_every_patch():
    trace = _load("trace")
    from repro.core.gpu_revised_simplex import GpuRevisedSimplex
    from repro.gpu.device import Device
    from repro.lp.generators import random_dense_lp

    facade = sys.modules["repro.solve"]
    patched = (
        lambda: facade.solve, lambda: Device.launch,
        lambda: GpuRevisedSimplex.begin, lambda: GpuRevisedSimplex.run_phase,
    )
    before = [get() for get in patched]
    with trace.tracing() as tracer:
        facade.solve(random_dense_lp(8, 8, seed=3), method="gpu-revised")
        assert all(get() is not b for get, b in zip(patched, before))
    assert [get() for get in patched] == before
    assert tracer.totals["solve.facade"][0] == 1
    assert tracer.totals["gpu.launch"][0] > 0


def test_compare_verdicts():
    compare = _load("compare")
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "no-worse"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    result = _run(tmp_path, "--workload", "dense-paper", "--seconds", "1",
                  cwd=tmp_path)
    assert result["returncode"] != 0
    assert not any(line.startswith("{") for line in result["lines"])
