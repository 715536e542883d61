"""Serving: an always-on LP service with a device fleet and warm starts.

The batch layer answers a fixed list of LPs; a *service* faces LPs that
arrive over time with priorities and deadlines.  This script runs the
``repro.serve`` stack end to end on the simulated clock: a mixed-priority
arrival trace (including perturbed resubmissions — the re-optimization
traffic real LP services mostly see) is replayed through a single-device
server and a 4-device fleet, showing admission control, bin-packed
placement, warm-start cache hits, and the modeled latency distribution.

Run:  python examples/serving.py
"""

from repro.serve import (
    LPServer,
    PRIORITY_HIGH,
    ServeConfig,
    serve_trace,
    synthetic_trace,
)
from repro.lp.generators import random_dense_lp


def main() -> None:
    # -- a hand-driven server: submit, run, inspect -----------------------
    server = LPServer(ServeConfig(n_devices=1, n_streams=2))
    rush = server.submit(
        random_dense_lp(32, 48, seed=1), at=0.0, priority=PRIORITY_HIGH
    )
    background = server.submit(
        random_dense_lp(48, 72, seed=2), at=0.0005, timeout=1.0
    )
    report = server.run()
    assert rush.is_optimal and background.is_optimal
    print("hand-driven server:")
    print(f"  {rush!r} latency={rush.latency_seconds * 1e3:.3f}ms")
    print(f"  {background!r} latency={background.latency_seconds * 1e3:.3f}ms")
    print()

    # -- the canonical trace, sequential vs fleet -------------------------
    trace = synthetic_trace(n_jobs=32, seed=0)
    resubmissions = sum(1 for e in trace if e.resubmit_of is not None)
    print(
        f"trace: {len(trace)} jobs over "
        f"{trace[-1].at * 1e3:.1f}ms, {resubmissions} perturbed resubmissions"
    )
    sequential = serve_trace(
        trace, ServeConfig(n_devices=1, n_streams=1, cache_capacity=1)
    )
    fleet = serve_trace(trace, ServeConfig(n_devices=4))
    print(f"  sequential: {sequential.summary()}")
    print(f"  fleet:      {fleet.summary()}")
    print()
    print("fleet detail:")
    print(fleet.render())

    # the fleet serves the identical trace with a strictly shorter tail
    # (both spans end one job after the last arrival, so they may tie),
    # and the structural fingerprints of resubmitted LPs land warm-start
    # hits
    assert fleet.latency_quantile(0.95) < sequential.latency_quantile(0.95)
    assert fleet.span_seconds <= sequential.span_seconds
    assert fleet.cache_hits >= 1
    assert fleet.all_optimal


if __name__ == "__main__":
    main()
