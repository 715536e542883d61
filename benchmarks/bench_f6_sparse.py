"""F6 — sparse LPs: dense vs sparse revised backends, and the crossover."""

from repro.bench.experiments import f6_sparse

#: Band size from which the sparse GPU backend beats the dense one (the
#: measured crossover lies between 640 and 704).
CROSSOVER_BAND = 680


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
    # dense-vs-sparse GPU crossover on banded instances (density ≲3%):
    # beyond band size ≈ 680 the sparse backend's nnz-proportional basis
    # solves beat the dense backend's m² kernels (measured 0.79× at 512,
    # 0.95× at 640, 1.03× at 704, 1.14× at 768), and the sparse speedup
    # rises with size
    crossover = report.tables[1]
    band_sizes = crossover.column("band size")
    speedups = crossover.column("sparse speedup")
    assert any(b >= CROSSOVER_BAND for b in band_sizes), band_sizes
    for band_size, speedup in zip(band_sizes, speedups):
        if band_size >= CROSSOVER_BAND:
            assert speedup > 1.0, (band_size, speedup)
        else:
            assert speedup < 1.0, (band_size, speedup)
    assert all(a < b for a, b in zip(speedups, speedups[1:])), speedups
