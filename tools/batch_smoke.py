#!/usr/bin/env python
"""Smoke check for the lockstep batched simplex (``make batch-smoke``).

Solves 8 ``random_dense_lp(24, 32)`` as one lockstep batch
(``solve_batch(..., schedule="concurrent", batch_gemv=True)``) and asserts:

- every LP's objective is bit-identical to its solo ``solve()``;
- a one-LP lockstep batch's makespan equals that LP's solo device clock;
- the lockstep makespan is below the stream-interleaved
  (``batch_gemv=False``) makespan of the same batch.
"""

from __future__ import annotations

from repro.batch import solve_batch
from repro.lp.generators import random_dense_lp
from repro.solve import solve

METHOD = "gpu-revised"


def main() -> None:
    lps = [random_dense_lp(24, 32, seed=s) for s in range(8)]
    solo = [solve(lp, method=METHOD) for lp in lps]
    lockstep = solve_batch(
        lps, method=METHOD, schedule="concurrent", batch_gemv=True
    )
    for item, ref in zip(lockstep.items, solo):
        assert item.objective == ref.objective, (item.name, item.objective,
                                                 ref.objective)

    one = solve_batch(
        lps[:1], method=METHOD, schedule="concurrent", batch_gemv=True
    )
    clock = solo[0].timing.modeled_seconds
    assert one.outcome.makespan_seconds == clock, (
        one.outcome.makespan_seconds, clock,
    )

    interleaved = solve_batch(lps, method=METHOD, schedule="concurrent")
    ls, il = (
        lockstep.outcome.makespan_seconds, interleaved.outcome.makespan_seconds
    )
    assert ls < il, (ls, il)
    print(
        f"batch-smoke ok: 8 LPs bit-identical, lockstep {ls * 1e3:.3f} ms "
        f"< interleaved {il * 1e3:.3f} ms, "
        f"{lockstep.outcome.batched_launches_saved} launches merged"
    )


if __name__ == "__main__":
    main()
