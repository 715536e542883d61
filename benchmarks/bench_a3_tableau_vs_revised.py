"""A3 — GPU tableau simplex vs GPU revised simplex."""

from repro.bench.experiments import a3_tableau_vs_revised
from repro.perfmodel.presets import GTX280_PARAMS

#: Kernel launches of one fused simplex iteration on either GPU method.
FUSED_ITERATION_LAUNCHES = 4


def test_a3_tableau_vs_revised(benchmark, sweep_sizes):
    sizes = tuple(s for s in sweep_sizes if s <= 384)
    report = benchmark.pedantic(
        a3_tableau_vs_revised, kwargs={"sizes": sizes}, rounds=1, iterations=1
    )
    print()
    print(report.render())
    table = report.tables[0]
    rows = list(zip(table.column("instance"), table.column("method"),
                    table.column("status"), table.column("us/iter")))
    assert all(status == "optimal" for _i, _m, status, _ in rows)
    # Finding (matches the follow-up literature on GT200-class hardware):
    # at these sizes BOTH formulations are launch/latency-bound, so the
    # tableau's few large perfectly-parallel kernels are competitive with
    # revised's many small BLAS-2 launches.  The floor is the fixed cost of
    # one fused iteration of either method: four launches (pricing, column
    # load/FTRAN, ratio test, update) and the one readback.
    p = GTX280_PARAMS
    floor_us = 1e6 * (FUSED_ITERATION_LAUNCHES * p.launch_overhead + p.pcie_latency)
    per_iter = [us for *_x, us in rows]
    assert all(floor_us < us < 2000.0 for us in per_iter), (floor_us, per_iter)
    # The revised method's structural advantage is *memory traffic*: on the
    # sparse wide instance it must move far fewer bytes per iteration.
    bytes_per_iter = report.extra_traffic  # {method: bytes/iter} on sparse
    assert bytes_per_iter["gpu-revised"] < 0.7 * bytes_per_iter["gpu-tableau"]
