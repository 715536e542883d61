"""Every dense kernel's charged traffic equals its SIMT twin's transactions.

The block-level kernels charge the 64-byte segments their thread mapping
touches in the layout of the matrix they read (``repro.gpu.transactions``).
Here each kernel runs on the device and its twin in ``repro.gpu.simt`` runs
thread by thread, with the launch configuration the device derived from
the charge, over arrays whose accesses ``SimtEngine.memory`` counts.  The
twin's counted bytes must equal the charged ``bytes_read + bytes_written``
exactly, with every charged byte coalesced: no kernel needs a tolerance,
because the charge is the same per-instruction segment count taken in
closed form, including the partial segments of unaligned shapes and the
vectors read once through the texture cache.  The twins also compute the
kernel's result, which is checked against the device's.

Shapes: 16×32 keeps every row and column on segment boundaries in both
word sizes; 7×9 and 24×36 put rows and columns off them.  64×96 and
130×70 have lines of 64 words or more, so the line-walking GEMV splits
each line over k > 1 warps; 130×70's lines of 70 words and 130 words
are not a multiple of 32.  Every kernel's
operands are placed in one region, directly (``lead`` 0: the first on a
segment boundary) or after 40 bytes of padding, so the matrix and the
vectors behind it start mid-segment, as a solver's region places a
buffer behind an odd-length one; the twin's arrays sit at the same byte
offsets.
"""

import numpy as np
import pytest

from repro.core import gpu_kernels as K
from repro.gpu import blas
from repro.gpu.device import Device
from repro.gpu.kernel import DEFAULT_BLOCK
from repro.gpu.memory import COLUMN_MAJOR, ROW_MAJOR
from repro.gpu.simt import (
    SimtEngine,
    simt_extract_row,
    simt_gemv_tiled,
    simt_gemv_split_line,
    simt_ger,
    simt_load_column,
    simt_write_row,
)

SHAPES = [(7, 9), (16, 32), (24, 36), (64, 96), (130, 70)]
DTYPES = [np.float32, np.float64]
LAYOUTS = [ROW_MAJOR, COLUMN_MAJOR]
LEADS = [0, 40]


@pytest.fixture
def device():
    dev = Device()
    dev.record_timeline()
    return dev


@pytest.fixture
def engine():
    return SimtEngine()


def _place(device, layout, lead, **hosts):
    """The named host arrays placed in one region after ``lead`` bytes,
    the matrix ``a`` in ``layout``; returns the device views."""
    spec = {"pad": ((lead,), np.int8)} if lead else {}
    spec.update({k: (h.shape, h.dtype) for k, h in hosts.items()})
    region = device.region(
        spec, column_major=("a",) if layout == COLUMN_MAJOR else ()
    )
    region.fill(hosts)
    return [region[k] for k in hosts]


def _memory(host, layout):
    """The host matrix laid out in memory as ``layout`` has it, for the
    twin."""
    order = np.asfortranarray if layout == COLUMN_MAJOR else np.ascontiguousarray
    return order(host.copy())


def _twin(engine, name, host, placed, **kw):
    """``host`` as the twin's global array at ``placed``'s offset."""
    return engine.memory.array(name, host, offset=placed.offset, **kw)


def _charged(device, launch):
    launch()
    return device.timeline[-1].cost


def _run(engine, kernel, cost, *args):
    grid = -(-cost.threads // DEFAULT_BLOCK)
    return engine.run(kernel, grid, DEFAULT_BLOCK, *args)


def _assert_counted(cost, stats):
    assert cost.coalesced_fraction == 1.0
    assert cost.bytes_read + cost.bytes_written == sum(stats.memory_bytes.values())


def _grid(test):
    """Run ``test`` over every shape, word size, layout and lead."""
    for name, values in (("lead", LEADS), ("layout", LAYOUTS),
                         ("dtype", DTYPES), ("shape", SHAPES)):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@_grid
@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_gemv(device, engine, rng, shape, dtype, layout, lead, trans, beta):
    m, n = shape
    out_len, in_len = (n, m) if trans else (m, n)
    ah = rng.normal(size=shape).astype(dtype)
    xh = rng.normal(size=in_len).astype(dtype)
    yh = rng.normal(size=out_len).astype(dtype)
    a, x, y = _place(device, layout, lead, a=ah, x=xh, y=yh)
    cost = _charged(device, lambda: blas.gemv(a, x, y, -1.0, beta, trans=trans))

    a_view = _twin(engine, "A", _memory(ah, layout), a)
    y_twin = yh.copy()
    args = (_twin(engine, "x", xh, x, cached=True),
            _twin(engine, "y", y_twin, y), -1.0, beta)
    if trans == (layout == COLUMN_MAJOR):  # k warps per line
        k = blas.warps_per_line(out_len, in_len, device.params)
        assert cost.threads == out_len * 32 * k
        lines = a_view.T if trans else a_view
        stats = _run(engine, simt_gemv_split_line, cost, lines, *args, k)
    else:  # tiles across the lines
        lines = a_view if trans else a_view.T
        stats = _run(engine, simt_gemv_tiled, cost, lines, *args)
        assert cost.threads == -(-out_len // 16) * DEFAULT_BLOCK
    _assert_counted(cost, stats)
    np.testing.assert_allclose(y.data, y_twin, rtol=1e-4, atol=1e-4)


@_grid
def test_extract_row(device, engine, rng, shape, dtype, layout, lead):
    m, n = shape
    ah = rng.normal(size=shape).astype(dtype)
    a, out = _place(device, layout, lead, a=ah, out=np.zeros(n, dtype))
    for i in (0, m - 1):
        cost = _charged(device, lambda: K.extract_row(device, a, i, out))
        twin = np.zeros(n, dtype)
        stats = _run(engine, simt_extract_row, cost,
                     _twin(engine, "A", _memory(ah, layout), a), i,
                     _twin(engine, "out", twin, out))
        _assert_counted(cost, stats)
        np.testing.assert_array_equal(twin, out.data)


@_grid
def test_extract_column(device, engine, rng, shape, dtype, layout, lead):
    m, n = shape
    ah = rng.normal(size=shape).astype(dtype)
    a, out = _place(device, layout, lead, a=ah, out=np.zeros(m, dtype))
    for j in (0, n - 1):
        cost = _charged(device, lambda: K.extract_column(device, a, j, out))
        twin = np.zeros(m, dtype)
        stats = _run(engine, simt_extract_row, cost,
                     _twin(engine, "A", _memory(ah, layout), a).T, j,
                     _twin(engine, "out", twin, out))
        _assert_counted(cost, stats)
        np.testing.assert_array_equal(twin, out.data)


@_grid
def test_write_row(device, engine, rng, shape, dtype, layout, lead):
    m, n = shape
    ah = rng.normal(size=shape).astype(dtype)
    rowh = rng.normal(size=n).astype(dtype)
    a, row = _place(device, layout, lead, a=ah, row=rowh)
    a_mem = _memory(ah, layout)
    for i in (0, m - 1):
        cost = _charged(device, lambda: K.write_row_kernel(device, a, i, row))
        stats = _run(engine, simt_write_row, cost, _twin(engine, "A", a_mem, a),
                     i, _twin(engine, "row", rowh, row))
        _assert_counted(cost, stats)
    np.testing.assert_array_equal(a_mem, a.data)


@_grid
def test_load_entering_column(device, engine, rng, shape, dtype, layout, lead):
    """q is read on the device, so the charge is the costliest column's."""
    m, n = shape
    ah = rng.normal(size=shape).astype(dtype)
    a, choice, out = _place(device, layout, lead, a=ah,
                            choice=np.array([0.0, -1.0], dtype),
                            out=np.zeros(m, dtype))
    cost = _charged(device, lambda: K.load_entering_column(
        device, choice, out, n_real=n, dense=a))
    counted = []
    a_mem = _memory(ah, layout)
    for q in range(n):
        twin = np.zeros(m, dtype)
        stats = _run(engine, simt_load_column, cost,
                     _twin(engine, "choice", np.array([q, -1.0], dtype), choice,
                           cached=True),
                     _twin(engine, "A", a_mem, a), _twin(engine, "out", twin, out))
        counted.append(sum(stats.memory_bytes.values()))
        np.testing.assert_array_equal(twin, ah[:, q])
    assert cost.coalesced_fraction == 1.0
    assert cost.bytes_read + cost.bytes_written == max(counted)


@_grid
@pytest.mark.parametrize("kernel", ["blas.ger", "kernel.tableau_ger"])
def test_ger(device, engine, rng, shape, dtype, layout, lead, kernel):
    m, n = shape
    ah = rng.normal(size=shape).astype(dtype)
    xh = rng.normal(size=m).astype(dtype)
    yh = rng.normal(size=n).astype(dtype)
    a, x, y = _place(device, layout, lead, a=ah, x=xh, y=yh)
    if kernel == "blas.ger":
        cost = _charged(device, lambda: blas.ger(x, y, a, alpha=-1.0))
    else:
        cost = _charged(device, lambda: K.ger_column_major(device, x, y, a, -1.0))
    assert device.timeline[-1].name == kernel
    a_mem = _memory(ah, layout)
    stats = _run(engine, simt_ger, cost, _twin(engine, "A", a_mem, a),
                 _twin(engine, "x", xh, x, cached=True),
                 _twin(engine, "y", yh, y, cached=True), -1.0)
    _assert_counted(cost, stats)
    np.testing.assert_allclose(a_mem, a.data, rtol=1e-5, atol=1e-5)


class TestWarpsPerLine:
    """The line-walking GEMV's k: the fewest warps per line that fill the
    device, so long as no lane is left without a word and a line never
    spans two blocks."""

    @pytest.mark.parametrize("lines", [1, 7, 64, 130, 256, 959, 960, 4000])
    @pytest.mark.parametrize("length", [1, 31, 63, 64, 70, 96, 128, 255, 256, 900])
    def test_rule(self, device, lines, length):
        p = device.params
        k = blas.warps_per_line(lines, length, p)
        assert k >= 1 and k & (k - 1) == 0
        assert k == 1 or 32 * k <= length  # every lane reads a word
        assert DEFAULT_BLOCK % (32 * k) == 0  # whole lines in a block
        # minimal: half as many warps would leave the device unfilled
        assert k == 1 or lines * 32 * (k // 2) < p.concurrent_threads
        # and only the fill or a cap stops it growing
        assert (lines * 32 * k >= p.concurrent_threads
                or 64 * k > min(length, DEFAULT_BLOCK))

    def test_solver_sizes(self, device):
        p = device.params
        assert p.concurrent_threads == 30720
        assert blas.warps_per_line(128, 128, p) == 4
        assert blas.warps_per_line(256, 128, p) == 4
        assert blas.warps_per_line(64, 64, p) == 2
        assert blas.warps_per_line(512, 256, p) == 2
        assert blas.warps_per_line(960, 256, p) == 1
        assert blas.warps_per_line(100, 63, p) == 1  # a line under 64 words


def test_mid_segment_matrix_pays_for_the_straddle(device):
    """A region aligns a buffer only to its item size.  A 16×16 fp32
    column-major A has one segment per column; placed 40 bytes into a
    segment, each column straddles two."""
    ah = np.ones((16, 16), np.float32)
    xh = np.ones(16, np.float32)
    costs = []
    for lead in LEADS:
        a, x, y = _place(device, COLUMN_MAJOR, lead, a=ah, x=xh, y=xh)
        assert a.offset == lead
        costs.append(_charged(device, lambda: blas.gemv(a, x, y, trans=True)))
    aligned, straddling = costs
    # an extra segment for each column, and one for x behind A
    assert straddling.bytes_read - aligned.bytes_read == 16 * 64 + 64


class TestRecorder:
    def test_strided_access_pays_a_segment_per_word(self, engine):
        # 16 threads read one column of a 16×16 row-major fp64 matrix:
        # 128-byte stride, 16 segments for one instruction
        a = np.zeros((16, 16))

        def column(t, a):
            a[t.thread_idx, 0]
            return
            yield  # pragma: no cover

        stats = engine.run(column, 1, 16, engine.memory.array("A", a))
        assert stats.memory_bytes == {"A": 16 * 64}
        stats = engine.run(column, 1, 16,
                           engine.memory.array("A", np.asfortranarray(a)))
        assert stats.memory_bytes == {"A": 2 * 64}  # 128 contiguous bytes

    def test_cached_array_fetches_each_segment_once(self, engine):
        x = np.zeros(10)  # 80 bytes: two segments

        def every_thread_reads_all(t, x):
            for i in range(10):
                x[i]
            return
            yield  # pragma: no cover

        stats = engine.run(every_thread_reads_all, 2, 64,
                           engine.memory.array("x", x, cached=True))
        assert stats.memory_bytes == {"x": 2 * 64}

    def test_write_through_cache_rejected(self, engine):
        def write(t, x):
            x[0] = 1.0
            return
            yield  # pragma: no cover

        with pytest.raises(Exception, match="read-only"):
            engine.run(write, 1, 1, engine.memory.array("x", np.zeros(1), cached=True))
