"""F10 — simplex vs first-order (PDLP) modeled-time crossover."""

import pytest

from repro.bench.experiments import f10_firstorder_crossover


@pytest.fixture(scope="session")
def f10_sizes(request) -> tuple[int, ...]:
    if request.config.getoption("--full-sweep"):
        return (128, 192, 256, 320, 384, 512)
    # the quick sweep must reach past the crossover (m+n ≈ 679 against
    # gpu-revised: simplex/pdlp 0.51 at m = 256, 3.20 at m = 384)
    return (128, 192, 256, 384)


def test_f10_firstorder_crossover(benchmark, f10_sizes):
    report = benchmark.pedantic(
        f10_firstorder_crossover, kwargs={"sizes": f10_sizes},
        rounds=1, iterations=1,
    )
    print()
    print(report.render())
    table = report.tables[0]
    statuses = table.column("status")
    assert all(s == "optimal" for s in statuses)
    assert all(table.column("objectives agree"))
    # both regimes appear inside the sweep: simplex wins the smallest size,
    # the first-order method the largest
    rows = zip(table.column("method"), table.column("speedup (simplex/pdlp)"))
    by_method: dict[str, list[float]] = {}
    for method, ratio in rows:
        if ratio != "":
            by_method.setdefault(method, []).append(ratio)
    assert set(by_method) == {"gpu-revised"}
    for ratios in by_method.values():
        assert ratios[0] < 1.0
        assert ratios[-1] > 1.0
