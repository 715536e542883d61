"""O1 — modeled-time attribution of served traffic (reconstructed;
beyond-paper).

Replays the canonical 32-LP arrival trace through 1/2/4-device fleets
with the ``repro.obs`` span recorder on and checks the attribution
acceptance properties: the six buckets cover each fleet's total latency
exactly, queue-wait share shrinks as devices are added, and the
per-size sweep shows launch overhead's share falling with problem size
(the ROADMAP item 4 calibration).
"""

import pytest

from repro.bench.experiments import o1_attribution


@pytest.mark.batch
def test_o1_attribution(benchmark):
    report = benchmark.pedantic(o1_attribution, rounds=1, iterations=1)
    print()
    print(report.render())
    fleet = report.tables[0]
    shares = dict(zip(fleet.column("fleet"), zip(
        fleet.column("queue %"),
        fleet.column("placement %"),
        fleet.column("transfer %"),
        fleet.column("launch %"),
        fleet.column("refactor %"),
        fleet.column("compute %"),
    )))
    for name, parts in shares.items():
        # the six buckets cover the fleet's latency exactly
        assert sum(parts) == pytest.approx(100.0, abs=1e-6), (name, parts)
    # adding devices drains the queue: queue-wait share strictly shrinks
    queue = {name: parts[0] for name, parts in shares.items()}
    assert queue["4 dev x4 streams"] < queue["1 dev x4 streams"]
    # the size sweep: launch overhead's share falls as per-kernel work grows
    sweep = report.tables[1]
    launch = sweep.column("launch %")
    assert launch[-1] < launch[0]
    # the fusion sweep: plan lowering cuts the launch count, its share and
    # the latency at every size, and at the smallest size (where launch
    # overhead bites hardest) the share falls to at most 0.71x the unfused
    # share (measured: 45.7% against 64.9%, 0.70x).  Relative, because the
    # share's denominator also holds the transfer time, which shrinks
    # independently of fusion.
    fused = report.tables[2]
    for unf, fus in zip(fused.column("launch % unfused"),
                        fused.column("launch % fused")):
        assert fus < unf
    for k_unf, k_fus in zip(fused.column("kernels"),
                            fused.column("kernels fused")):
        assert k_fus < k_unf
    for lat, lat_fused in zip(fused.column("latency ms"),
                              fused.column("latency ms fused")):
        assert lat_fused < lat
    share_unfused = fused.column("launch % unfused")[0]
    assert fused.column("launch % fused")[0] <= 0.71 * share_unfused
