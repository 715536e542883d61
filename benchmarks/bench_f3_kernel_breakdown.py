"""F3 — per-iteration GPU kernel/phase time breakdown."""

from repro.bench.experiments import f3_kernel_breakdown


def test_f3_kernel_breakdown(benchmark, breakdown_size):
    report = benchmark.pedantic(
        f3_kernel_breakdown, kwargs={"size": breakdown_size}, rounds=1, iterations=1
    )
    print()
    print(report.render())
    phases = report.tables[0]
    fracs = dict(zip(phases.column("phase"), phases.column("% of total")))
    # pricing (d = c − Aᵀπ over the column-major A, and π = B⁻ᵀc_B when
    # stale) is the largest phase, as in the paper's revised simplex
    # profile: 34.9% at 512, and 26.0% at 256, where the ratio test led
    # while it carried every iteration's readback (it reads back once per
    # batch of iterations now, timed as a transfer)
    assert max(fracs, key=fracs.get) == "pricing"
    assert abs(sum(fracs.values()) - 100.0) < 20.0  # phases cover the solve
