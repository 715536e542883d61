"""F6 — sparse LPs: dense vs sparse revised backends."""

from repro.bench.experiments import f6_sparse


def test_f6_sparse(benchmark, sweep_sizes):
    sizes = tuple(s for s in sweep_sizes if 128 <= s <= 512)
    report = benchmark.pedantic(
        f6_sparse, kwargs={"sizes": sizes}, rounds=1, iterations=1
    )
    print()
    print(report.render())
    table = report.tables[0]
    nnz = table.column("nnz")
    size = table.column("size")
    # the instances really are sparse
    for s, z in zip(size, nnz):
        assert z < 0.2 * s * s
    # both machines produce times; speedup series is finite
    assert all(s > 0 for s in table.column("speedup"))
    # the sparse CPU backend prices sections of CSC columns instead of the
    # whole matrix: it must beat the dense CPU comparator on every instance
    for dense_ms, sparse_ms in zip(table.column("cpu ms"), table.column("cpu-sp ms")):
        assert sparse_ms < dense_ms
