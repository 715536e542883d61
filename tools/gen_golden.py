#!/usr/bin/env python
"""Regenerate the engine golden fixture (tests/golden/engine_golden.json).

The fixture pins the *exact* behaviour of every registered solve method on a
small seeded problem suite: termination status, objective value, the full
pivot sequence (phase, iteration, entering column, leaving row, event) and
the modeled machine seconds.  Floats are stored in ``float.hex()`` form so
the comparison is bit-level, not approximate.

Each method is pinned at its defaults (``problems``).  The options that
only one method runs are pinned in ``variants``, one cell per (problem,
variant): the tableau's other pricing rules, and ``gpu-tableau`` in fp32
and mixed precision.  The ``warm`` section pins the
re-optimisation the ``dual`` method exists for: each problem is solved with
``revised``, its b is shifted by fixed seeded factors, and ``dual`` is
pinned started from that optimal basis (``WARM_METHODS``).

``tests/test_engine_golden.py`` replays the suite and asserts equality; the
fixture therefore guards any refactor of the solver lifecycle (the
``repro.engine`` layer) against silent behaviour drift.

Run from the repo root::

    PYTHONPATH=src python tools/gen_golden.py

and commit the diff only when a behaviour change is intended.  With
``--diff`` it writes nothing and prints each cell that differs from the
committed fixture instead: a cell added or removed, or the fields that
moved, ``modeled_seconds`` old → new (%), and whether the pivot sequence
moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.lp.generators import (
    degenerate_lp,
    random_dense_lp,
    random_sparse_lp,
    transportation_lp,
)
from repro.lp.problem import Bounds, LPProblem
from repro.solve import available_methods, solve

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "engine_golden.json"
)


def boxed_lp() -> LPProblem:
    """A small boxed problem: finite upper bounds exercise bound flips."""
    rng = np.random.default_rng(42)
    m, n = 6, 9
    a = rng.uniform(0.1, 1.1, size=(m, n))
    b = rng.uniform(n / 2.0, float(n), size=m)
    c = rng.uniform(0.1, 1.1, size=n)
    upper = rng.uniform(0.5, 4.0, size=n)
    return LPProblem(
        c=c, a=a, senses=["<="] * m, b=b,
        bounds=Bounds(np.zeros(n), upper), maximize=True, name="golden-boxed",
    )


def equality_lp() -> LPProblem:
    """Equality rows force phase 1 and the artificial drive-out path."""
    rng = np.random.default_rng(7)
    m, n = 5, 8
    a = rng.uniform(0.1, 1.1, size=(m, n))
    x_feas = rng.uniform(0.2, 1.0, size=n)
    b = a @ x_feas
    c = rng.uniform(0.1, 1.1, size=n)
    senses = ["=", "=", "<=", ">=", "="]
    b = b + np.array([0.0, 0.0, 1.0, -0.5, 0.0])
    return LPProblem(
        c=c, a=a, senses=senses, b=b,
        bounds=Bounds.nonnegative(n), maximize=False, name="golden-equality",
    )


def hostile_lp() -> LPProblem:
    """``transportation_lp(5, 7, seed=4)`` with rows and columns scaled by
    seeded factors over six decades (A' = diag(r)·A·diag(k), b' = r∘b,
    c' = c∘k): its spread pins the path on which ``solve()`` equilibrates."""
    base = transportation_lp(5, 7, seed=4)
    rng = np.random.default_rng(4)
    m, n = base.a.shape
    r = 10 ** rng.uniform(-3, 3, m)
    k = 10 ** rng.uniform(-3, 3, n)
    return dataclasses.replace(
        base, a=r[:, None] * base.a * k[None, :], b=r * base.b, c=base.c * k,
        name="golden-hostile",
    )


def suite() -> list[LPProblem]:
    return [
        random_dense_lp(8, 12, seed=3, name="golden-dense-8x12"),
        random_dense_lp(14, 10, seed=21, name="golden-dense-14x10"),
        random_sparse_lp(10, 16, density=0.3, seed=11, name="golden-sparse"),
        degenerate_lp(7, 9, seed=5),
        boxed_lp(),
        equality_lp(),
        hostile_lp(),
    ]


#: Non-default option sets, each a (method, option overrides) pair.
VARIANTS = {
    "tableau:dantzig": ("tableau", {"pricing": "dantzig"}),
    "tableau:bland": ("tableau", {"pricing": "bland"}),
    "tableau:devex": ("tableau", {"pricing": "devex"}),
    "tableau:steepest-edge": ("tableau", {"pricing": "steepest-edge"}),
    "gpu-tableau:fp32": ("gpu-tableau", {"dtype": np.float32}),
    "gpu-tableau:mixed": ("gpu-tableau", {"precision": "mixed"}),
}


#: Methods pinned in the ``warm`` section, started from the base optimum.
WARM_METHODS = ("dual",)


def shifted(problem: LPProblem) -> LPProblem:
    """``problem`` with b scaled row by row by fixed seeded factors in
    [0.85, 1.15]: the previous optimal basis stays dual feasible."""
    factors = np.random.default_rng(2009).uniform(0.85, 1.15, problem.b.size)
    return dataclasses.replace(problem, b=problem.b * factors)


def warm_cells(problem: LPProblem) -> dict:
    """The ``warm`` cells of one problem: each of ``WARM_METHODS`` on the
    shifted b, started from ``revised``'s optimal basis of the original."""
    basis = solve(problem, method="revised", dtype=np.float64).extra["basis"]
    return {
        method: run_one(shifted(problem), method, initial_basis=basis)
        for method in WARM_METHODS
    }


def hexf(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    return value.hex()


def run_one(problem: LPProblem, method: str, **options) -> dict:
    options = {"dtype": np.float64, **options}
    result = solve(problem, method=method, trace=True, **options)
    pivots = []
    if result.trace is not None:
        for rec in result.trace:
            pivots.append(
                [rec.phase, rec.iteration, rec.event, rec.entering, rec.leaving_row]
            )
    cell = {
        "solver": result.solver,
        "status": result.status.value,
        "objective": hexf(result.objective),
        "phase1_iterations": result.iterations.phase1_iterations,
        "phase2_iterations": result.iterations.phase2_iterations,
        "degenerate_steps": result.iterations.degenerate_steps,
        "refactorizations": result.iterations.refactorizations,
        "modeled_seconds": hexf(result.timing.modeled_seconds),
        "pivots": pivots,
    }
    if "kkt_score" in result.extra:
        # first-order cells: pin the terminal KKT residual and the restart
        # count alongside the objective (they have no pivot sequence to pin)
        cell["kkt_residual"] = hexf(result.extra["kkt_score"])
        cell["restarts"] = result.extra["restarts"]
    if "refinement_steps" in result.extra:
        cell["refinement_steps"] = result.extra["refinement_steps"]
    return cell


def fixture_diff(old: dict, new: dict) -> list[str]:
    """One line per (problem, method or variant) cell that differs between
    ``old`` and ``new``: a cell only one of them holds, or the fields that
    moved, ``modeled_seconds`` old → new (%), and whether the pivot
    sequence moved."""
    lines = []
    for section in ("problems", "variants", "warm"):
        lines += _section_diff(old.get(section, {}), new.get(section, {}))
    return lines


def _section_diff(old_problems: dict, new_problems: dict) -> list[str]:
    lines = []
    for problem in sorted(set(old_problems) | set(new_problems)):
        cells = new_problems.get(problem, {})
        old_cells = old_problems.get(problem, {})
        for method in sorted(set(old_cells) | set(cells)):
            before, cell = old_cells.get(method), cells.get(method)
            if before is None or cell is None:
                lines.append(f"{problem} {method}: "
                             f"{'new' if before is None else 'removed'} cell")
                continue
            fields = sorted(k for k in set(cell) | set(before)
                            if cell.get(k) != before.get(k))
            if not fields:
                continue
            line = f"{problem} {method}: {', '.join(fields)}"
            if "modeled_seconds" in fields:
                t0 = float.fromhex(before["modeled_seconds"])
                t1 = float.fromhex(cell["modeled_seconds"])
                pct = 100.0 * (t1 - t0) / t0 if t0 else float("inf")
                line += f"; modeled_seconds {t0:.6g} -> {t1:.6g} ({pct:+.2f}%)"
            moved = "pivots" in fields
            line += f"; pivots {'moved' if moved else 'unchanged'}"
            lines.append(line)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="print the cells that differ from the committed fixture; write nothing",
    )
    args = parser.parse_args()
    fixture: dict = {"problems": {}, "variants": {}, "warm": {}}
    for problem in suite():
        fixture["problems"][problem.name] = {
            method: run_one(problem, method) for method in available_methods()
        }
        fixture["variants"][problem.name] = {
            label: run_one(problem, method, **options)
            for label, (method, options) in VARIANTS.items()
        }
        fixture["warm"][problem.name] = warm_cells(problem)
    if args.diff:
        with open(FIXTURE) as fh:
            lines = fixture_diff(json.load(fh), fixture)
        print("\n".join(lines) if lines else "no cell differs")
        return
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n = len(fixture["problems"]) * (
        len(available_methods()) + len(VARIANTS) + len(WARM_METHODS)
    )
    print(f"wrote {FIXTURE}: {n} (problem, method) cells")


if __name__ == "__main__":
    main()
