"""A5 — native bounds vs the bounds-as-rows encoding, on both machines."""

from repro.bench.experiments import a5_bounded_variables


def test_a5_bounded_variables(benchmark):
    report = benchmark.pedantic(a5_bounded_variables, rounds=1, iterations=1)
    print()
    print(report.render())
    table = report.tables[0]
    assert all(table.column("objectives agree"))
    rows = list(zip(table.column("size"), table.column("method"),
                    table.column("basis m"), table.column("ms")))
    for size in sorted({s for s, *_r in rows}):
        by = {m: (bm, ms) for s, m, bm, ms in rows if s == size}
        for method in ("revised", "gpu-revised"):
            basis_rows, t_rows = by[f"{method} (rows)"]
            basis_bnd, t_bnd = by[method]
            # native bounds halve the basis and are no slower on modeled time
            assert basis_bnd == size and basis_rows == 2 * size
            assert t_bnd <= t_rows
