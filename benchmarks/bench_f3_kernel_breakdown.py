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
    # stale) is the largest of the sections that walk a matrix, as in the
    # paper's revised simplex profile; it leads the iteration at 512
    # (27.1%), while at 256 the ratio test, one launch plus the iteration's
    # readback, leads (25.5% against pricing's 22.4%)
    assert fracs["pricing"] == max(fracs[k] for k in ("pricing", "ftran", "update"))
    top = max(fracs, key=fracs.get)
    assert top == ("pricing" if breakdown_size >= 512 else "ratio")
    assert abs(sum(fracs.values()) - 100.0) < 20.0  # phases cover the solve
