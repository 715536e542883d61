"""A4 — scaling follows the data: the coefficient-spread ladder around the
limit past which ``solve()`` equilibrates."""

from repro.bench.experiments import a4_scaling

#: The spread past which ``solve()`` scales (``repro.lp.scaling``).
LIMIT = 1e4


def test_a4_scaling(benchmark):
    report = benchmark.pedantic(a4_scaling, rounds=1, iterations=1)
    print()
    print(report.render())
    table = report.tables[0]
    rows = list(zip(table.column("spread"), table.column("scaled"),
                    table.column("status"), table.column("obj relerr vs oracle")))
    assert all(st == "optimal" for _s, _sc, st, _e in rows)
    # the rule: scaled exactly when the spread passes the limit
    assert all(sc == (float(s) > LIMIT) for s, sc, _st, _e in rows)
    # scaled fp32 solves reach the oracle at every spread past the limit
    assert all(e < 1e-6 for _s, sc, _st, e in rows if sc)
    # below the limit fp32 runs the data as given: the 7.9e3 rung reads
    # 9.4e-6, which only an fp64 check of the final basis would tighten
    assert all(e < 1e-4 for _s, sc, _st, e in rows if not sc)
