"""Pytest wrapper around the backend-import architecture lint.

``make lint`` runs ``tools/lint_backend_imports.py`` standalone; this
wrapper makes the same check part of the tier-1 suite, so a backend that
reaches around the engine observer (importing :mod:`repro.trace` or
:mod:`repro.metrics` directly) — or a serve module that touches the
metrics layer outside the ``repro.metrics.instrument`` façade — fails CI
even when the Makefile target is skipped.
"""

from __future__ import annotations

import ast
import os
import sys
import textwrap

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import lint_backend_imports as lint  # noqa: E402


def test_backends_do_not_import_trace_or_metrics():
    violations = lint.run()
    assert violations == []


def test_lint_catches_direct_import(tmp_path):
    bad = tmp_path / "bad_backend.py"
    bad.write_text(
        textwrap.dedent(
            """
            import repro.trace

            def f():
                from repro.metrics.instrument import record_solve
                return record_solve
            """
        )
    )
    violations = lint.check_file(bad)
    assert len(violations) == 2


def test_lint_allows_engine_and_docstrings(tmp_path):
    ok = tmp_path / "ok_backend.py"
    ok.write_text(
        textwrap.dedent(
            '''
            """Mentions repro.trace in prose only."""
            from repro.engine import SolverBackend
            from repro.tracefoo import unrelated  # prefix, not the package
            '''
        )
    )
    assert lint.check_file(ok) == []


def test_forbidden_prefix_matching():
    assert lint._is_forbidden("repro.trace")
    assert lint._is_forbidden("repro.metrics.instrument")
    assert not lint._is_forbidden("repro.tracefoo")
    assert not lint._is_forbidden("repro.engine.hooks")


def test_serve_rule_allows_instrument_facade_only(tmp_path):
    ok = tmp_path / "ok_serve.py"
    ok.write_text(
        textwrap.dedent(
            """
            from repro.metrics.instrument import record_job_submitted
            from repro.batch.scheduler import ConcurrentSchedule
            """
        )
    )
    assert lint.check_file(ok, serve=True) == []

    bad = tmp_path / "bad_serve.py"
    bad.write_text(
        textwrap.dedent(
            """
            from repro.metrics import enable          # registry internals
            from repro.metrics import instrument      # module is repro.metrics
            from repro.metrics.registry import Counter
            import repro.trace

            def f():
                import repro.metrics
            """
        )
    )
    violations = lint.check_file(bad, serve=True)
    assert len(violations) == 5
    assert all("serve module" in v for v in violations)


def test_serve_forbidden_predicate():
    assert not lint._is_forbidden_for_serve("repro.metrics.instrument")
    assert lint._is_forbidden_for_serve("repro.metrics")
    assert lint._is_forbidden_for_serve("repro.metrics.registry")
    assert lint._is_forbidden_for_serve("repro.trace")
    assert not lint._is_forbidden_for_serve("repro.batch.scheduler")


def test_obs_is_forbidden_everywhere(tmp_path):
    # the span recorder is façade-only: neither backends nor serve modules
    # may import repro.obs directly
    assert lint._is_forbidden("repro.obs")
    assert lint._is_forbidden("repro.obs.span")
    assert lint._is_forbidden_for_serve("repro.obs")
    assert lint._is_forbidden_for_serve("repro.obs.span")
    bad = tmp_path / "bad_obs.py"
    bad.write_text("from repro.obs import observing\n")
    assert len(lint.check_file(bad)) == 1
    assert len(lint.check_file(bad, serve=True)) == 1


def test_serve_modules_are_scanned_and_clean():
    scanned = {
        os.path.basename(p)
        for d in lint.SERVE_DIRS
        for p in map(str, (lint.REPO / d).glob("*.py"))
    }
    for module in (
        "service.py", "queue.py", "cache.py", "fleet.py",
        "job.py", "traces.py",
    ):
        assert module in scanned, module


def test_every_backend_module_is_scanned():
    scanned = {
        os.path.basename(p)
        for d in lint.BACKEND_DIRS
        for p in map(str, (lint.REPO / d).glob("*.py"))
    }
    # every solver module — including the sparse backends and their
    # basis/pricing support modules — must be in scope of the lint
    for module in (
        "tableau.py", "revised.py", "revised_cpu.py",
        "sparse_basis.py", "sparse_pricing.py",
        "gpu_revised_simplex.py", "gpu_tableau_simplex.py",
        "pdlp.py", "placement.py",
    ):
        assert module in scanned, module


def test_launch_rule_catches_direct_launch(tmp_path):
    bad = tmp_path / "bad_gpu_backend.py"
    bad.write_text(
        textwrap.dedent(
            """
            def hot_loop(dev, body, cost):
                dev.launch("my_kernel", body, cost)
            """
        )
    )
    violations = lint.check_launches(bad)
    assert len(violations) == 1
    assert "Device.launch" in violations[0]


def test_launch_rule_allows_plan_emit(tmp_path):
    ok = tmp_path / "ok_gpu_backend.py"
    ok.write_text(
        textwrap.dedent(
            """
            from repro.gpu import plan as gpu_plan

            def hot_loop(dev, body, cost):
                gpu_plan.emit(dev, "my_kernel", body, cost)
            """
        )
    )
    assert lint.check_launches(ok) == []


def test_launch_rule_covers_every_gpu_backend():
    names = {os.path.basename(p) for p in map(str, lint.launch_rule_modules())}
    for module in (
        "gpu_revised_simplex.py", "gpu_tableau_simplex.py",
        "pdlp.py", "placement.py",
    ):
        assert module in names, module
    # the shared kernel modules are the one exemption
    assert "gpu_kernels.py" not in names
    for p in lint.SHARED_KERNEL_MODULES:
        assert (lint.REPO / p).exists(), p


def test_launch_rule_catches_a_new_backend_module(tmp_path, monkeypatch):
    # a backend module nobody listed anywhere is still checked
    tree = tmp_path / "src" / "repro" / "firstorder"
    tree.mkdir(parents=True)
    (tree / "new_backend.py").write_text(
        textwrap.dedent(
            """
            def hot_loop(dev, body, cost):
                dev.launch("my_kernel", body, cost)
            """
        )
    )
    monkeypatch.setattr(lint, "REPO", tmp_path)
    violations = lint.run()
    assert len(violations) == 1
    assert "new_backend.py" in violations[0]
    assert "Device.launch" in violations[0]
