#!/usr/bin/env python
"""Lint: architectural import rules, enforced as CI failures.

Two rules, one mechanism (an AST walk over the module trees):

**Backend rule.**  Solver backend modules must not import ``repro.trace``,
``repro.metrics`` or ``repro.obs`` at all.  The engine's observer layer
(:mod:`repro.engine.hooks` for trace records and obs spans,
:mod:`repro.engine.lifecycle` for metrics emission) is the *only* place
solver events leave a backend; a direct import would bypass the observer
protocol and reintroduce the per-solver instrumentation clones the engine
refactor removed.

Checked trees: ``src/repro/simplex/*.py`` (CPU methods),
``src/repro/core/*.py`` (GPU methods) and ``src/repro/firstorder/*.py``
(the PDHG backend and its placements).

**Launch rule.**  Backend modules must issue device work through the
launch-plan layer — :mod:`repro.gpu.blas`, the shared kernel modules, or
:func:`repro.gpu.plan.emit` for backend-owned kernels — never by calling
``Device.launch`` directly.  A direct launch would be invisible to the
planner (no capture, no fusion, no plan-level accounting), silently
splitting the execution path the launch-plan refactor unified.  The rule
covers every module of the backend trees, so a new backend is checked
the moment it exists; only the shared kernel modules listed in
``SHARED_KERNEL_MODULES`` (the kernels the plan layer wraps) are exempt.

**Serve rule.**  Serving modules (``src/repro/serve/*.py``) may not import
``repro.trace`` or ``repro.obs``, and may touch the metrics (and span)
layer only through the instrumentation façade ``repro.metrics.instrument``
— never the registry internals or the span recorder directly.  The façade's hooks are no-ops when collection is off, which is
what keeps the serving loop zero-cost by default; importing
``repro.metrics`` itself (or the registry/exporters) from serve code would
couple the service to registry internals and dodge that gate.  Note that
``from repro.metrics import instrument`` also trips the rule: the module
imported there is ``repro.metrics``.  Use
``from repro.metrics.instrument import <hook>``.

Both ``import X`` and ``from X import ...`` forms are rejected, at any
nesting depth (the AST walk sees function-local imports too).  Exit
status 0 = clean, 1 = violations (one line each).

Run via ``make lint`` or ``python tools/lint_backend_imports.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Module prefixes backends may not import (the observer owns them).
FORBIDDEN = ("repro.trace", "repro.metrics", "repro.obs")

#: Directories holding solver backend modules.
BACKEND_DIRS = ("src/repro/simplex", "src/repro/core", "src/repro/firstorder")

#: Directories holding serving modules (metrics via the façade only).
SERVE_DIRS = ("src/repro/serve",)

#: Shared kernel modules: the only backend-tree modules that may call
#: Device.launch directly (every other module emits through the plan layer).
SHARED_KERNEL_MODULES = ("src/repro/core/gpu_kernels.py",)

#: The one metrics module serve code may import from.
SERVE_ALLOWED = "repro.metrics.instrument"


def _is_forbidden(module: str) -> bool:
    return any(
        module == pfx or module.startswith(pfx + ".") for pfx in FORBIDDEN
    )


def _is_forbidden_for_serve(module: str) -> bool:
    """Serve modules: repro.trace is out entirely; repro.metrics only via
    the repro.metrics.instrument façade."""
    if module == SERVE_ALLOWED or module.startswith(SERVE_ALLOWED + "."):
        return False
    return _is_forbidden(module)


def check_file(path: Path, *, serve: bool = False) -> list[str]:
    """Return one violation message per forbidden import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO)
    except ValueError:
        shown = path
    forbidden = _is_forbidden_for_serve if serve else _is_forbidden
    role = "serve module" if serve else "backend"
    hint = (
        "import hooks from 'repro.metrics.instrument' instead"
        if serve
        else "use the engine observer hooks instead"
    )
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if forbidden(alias.name):
                    violations.append(
                        f"{shown}:{node.lineno}: "
                        f"{role} imports {alias.name!r} ({hint})"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0 and forbidden(node.module):
                violations.append(
                    f"{shown}:{node.lineno}: "
                    f"{role} imports from {node.module!r} ({hint})"
                )
    return violations


def check_launches(path: Path) -> list[str]:
    """Return one violation per direct ``*.launch(...)`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO)
    except ValueError:
        shown = path
    violations = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "launch"
        ):
            violations.append(
                f"{shown}:{node.lineno}: GPU backend calls Device.launch "
                "directly (emit through repro.gpu.plan.emit or the shared "
                "kernel modules so the planner sees it)"
            )
    return violations


def launch_rule_modules() -> list[Path]:
    """Every backend module the launch rule applies to."""
    exempt = {REPO / p for p in SHARED_KERNEL_MODULES}
    return [
        path
        for dirname in BACKEND_DIRS
        for path in sorted((REPO / dirname).glob("*.py"))
        if path not in exempt
    ]


def run() -> list[str]:
    violations: list[str] = []
    for dirname in BACKEND_DIRS:
        for path in sorted((REPO / dirname).glob("*.py")):
            violations.extend(check_file(path))
    for dirname in SERVE_DIRS:
        for path in sorted((REPO / dirname).glob("*.py")):
            violations.extend(check_file(path, serve=True))
    for path in launch_rule_modules():
        violations.extend(check_launches(path))
    return violations


def main() -> int:
    violations = run()
    for line in violations:
        print(line)
    if violations:
        print(f"lint: {len(violations)} forbidden import(s)")
        return 1
    n_files = sum(
        len(list((REPO / d).glob("*.py")))
        for d in BACKEND_DIRS + SERVE_DIRS
    )
    print(f"lint: ok ({n_files} modules clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
