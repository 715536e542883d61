"""B1 — batched-LP throughput vs batch size (reconstructed; beyond-paper).

Batched vs looped solo solving of many small dense LPs on the shared
simulated device, after Gurung & Ray (arXiv:1802.08557, arXiv:1609.08114).
"""

import pytest

from repro.bench.experiments import b1_batch_throughput


@pytest.mark.batch
def test_b1_batch_throughput(benchmark, batch_sizes):
    report = benchmark.pedantic(
        b1_batch_throughput, kwargs={"batch_sizes": batch_sizes},
        rounds=1, iterations=1,
    )
    print()
    print(report.render())
    table = report.tables[0]
    seq_ms = table.column("batch seq ms")
    conc_ms = table.column("batch conc ms")
    solo_ms = table.column("solo loop ms")
    conc_lps = table.column("conc LPs/s")
    # stream interleaving strictly beats back-to-back execution at every
    # batch size, and the batch beats the solo loop (context amortization)
    assert all(c < s for c, s in zip(conc_ms, seq_ms))
    assert all(s < o for s, o in zip(seq_ms, solo_ms))
    # throughput grows with batch size: the fixed costs amortize and the
    # device fills up
    assert conc_lps[-1] > conc_lps[0]
    # the lockstep batched simplex beats stream interleaving once the
    # batch is large enough for its shared launches to matter
    lockstep_ms = table.column("batch lockstep ms")
    assert lockstep_ms[-1] < conc_ms[-1]
