"""Canonical metric workloads: deterministic runs behind the CLI and gate.

The regression gate only works if the workload that produced the baseline
is reproduced exactly at check time.  :func:`smoke_workload` is that
workload — small, fast, fully seeded, touching every instrumented layer
(GPU and CPU solvers, a concurrent batch, a warm-start chain, one traced
solve) — shared by ``python -m repro metrics``, ``make metrics-smoke`` /
``make gate``, the M1 experiment and the committed baseline under
``benchmarks/baselines/``.

Everything recorded is modeled time or exact counts, so two runs of the
same workload on any machine produce byte-identical snapshots.
"""

from __future__ import annotations

from typing import Any

#: Name recorded in baselines produced from :func:`smoke_workload`.
#: v2 added a fused solve that pins the kernel-fusion counters in the gate
#: baseline; v3, with fused lowering the default, turned that solve into
#: the op-by-op (``fusion=False``) one, so the gate pins both lowerings.
SMOKE_WORKLOAD = "repro.metrics.workloads.smoke_workload/v3"


def smoke_workload() -> None:
    """Run the canonical deterministic workload into the active registry.

    Composition (all seeded, all modeled-time only):

    - a 4-LP batch of 24x32 dense LPs on ``gpu-revised`` (fp32) under the
      concurrent schedule — exercises device kernels, transfers, the batch
      scheduler and stream-utilization gauges;
    - a 3-step warm-start chain of 16x24 LPs on the CPU ``revised``
      solver — exercises the chain schedule and CPU section counters;
    - one traced ``gpu-tableau`` solve — exercises the ratio-test-tie
      counter and a second GPU solver;
    - one ``gpu-revised`` solve with ``fusion=False`` — pins the op-by-op
      lowering every other GPU solve here skips (fused is the default);
    - one ``revised-bounded`` solve of a box-bounded LP — exercises the
      bounded solver family;
    - a 6-job served trace with the ``repro.obs`` span recorder on at a
      0.5 head-sampling rate — exercises the span sampling counters with
      both kept *and* dropped traces, pinning them in the gate baseline.
    """
    import numpy as np

    from repro.lp.generators import random_dense_lp
    from repro.lp.problem import Bounds, LPProblem
    from repro.obs import SamplingPolicy, observing
    from repro.serve import ServeConfig, serve_trace, synthetic_trace
    from repro.solve import solve, solve_batch, solve_batch_chain

    batch_lps = [random_dense_lp(24, 32, seed=s) for s in range(4)]
    solve_batch(
        batch_lps, method="gpu-revised", schedule="concurrent",
        dtype=np.float32,
    )

    chain_lps = [random_dense_lp(16, 24, seed=100 + s) for s in range(3)]
    solve_batch_chain(chain_lps, method="revised")

    solve(random_dense_lp(12, 18, seed=7), method="gpu-tableau", trace=True)

    solve(random_dense_lp(14, 20, seed=11), method="gpu-revised", fusion=False)

    bounded = LPProblem.minimize(
        c=[-2.0, -3.0, 1.0],
        a_ub=[[1.0, 2.0, 1.0], [2.0, 1.0, 3.0]],
        b_ub=[8.0, 10.0],
        bounds=Bounds(
            np.array([0.0, 0.0, 0.0]), np.array([3.0, 2.5, 4.0])
        ),
    )
    solve(bounded, method="revised-bounded")

    policy = SamplingPolicy(head_rate=0.5, tail_slowest_quantile=1.0)
    with observing(policy=policy):
        serve_trace(
            synthetic_trace(n_jobs=6, seed=3),
            ServeConfig(n_devices=1, n_streams=2),
        )


#: Gate tolerance policy committed with smoke baselines.  The workload is
#: deterministic, so counters sit at "both/zero-slack"; modeled seconds get
#: a hair of relative slack for cross-platform float-formatting safety.
SMOKE_TOLERANCES: dict[str, Any] = {
    "default": {"rel": 0.001, "abs": 1e-12, "direction": "both"},
    "repro_gpu_kernel_seconds_total": {"rel": 0.01, "direction": "up"},
    "repro_gpu_transfer_seconds_total": {"rel": 0.01, "direction": "up"},
    "repro_solver_modeled_seconds_total": {"rel": 0.01, "direction": "up"},
    "repro_solver_section_seconds_total": {"rel": 0.01, "direction": "up"},
    "repro_batch_makespan_seconds_total": {"rel": 0.01, "direction": "up"},
    "repro_batch_stream_utilization": {"rel": 0.01, "direction": "down"},
    "repro_batch_bound_seconds": {"rel": 0.01, "direction": "up"},
    "repro_gpu_kernel_occupancy": {"rel": 0.01, "direction": "both"},
    "repro_gpu_kernel_coalesced_fraction": {"rel": 0.01, "direction": "both"},
    "repro_batch_lp_wall_share": {"rel": 0.01, "direction": "both"},
}
