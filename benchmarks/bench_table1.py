"""Table 1: one benchmark per row of the paper's categorization.

Parametrised over ``repro.analysis.table1.REGIMES``: each target runs the
row's protocol in its regime (the simulation time is what pytest-benchmark
reports) and asserts that the measured good-case latency is the paper's
tight bound — so a benchmark run doubles as a reproduction check of the
whole table.

    pytest benchmarks/bench_table1.py --benchmark-only
"""
import pytest

from repro.analysis.table1 import REGIMES, format_table, generate_table1

DELTA = 0.25
BIG_DELTA = 1.0
TABLE1 = [regime for regime in REGIMES if regime.witness]


@pytest.mark.parametrize(
    "regime", TABLE1, ids=[regime.protocol.__name__ for regime in TABLE1]
)
def test_table1_row(benchmark, regime):
    """``problem / timing / resilience -> bound``, at the row's (n, f)."""
    value = benchmark(regime.measure, delta=DELTA, big_delta=BIG_DELTA)
    args = (DELTA, BIG_DELTA, regime.n, regime.f)
    # delta = 0.25 sits on every row's sample grid: the bound is hit exactly.
    assert value == pytest.approx(regime.expected(*args))
    assert regime.lower is None or value >= regime.lower(*args)


def test_table1_full_regeneration(benchmark):
    """The whole table in one go (what EXPERIMENTS.md records)."""
    rows = benchmark(lambda: generate_table1(delta=DELTA, big_delta=BIG_DELTA))
    assert len(rows) == 8
    assert all(row.matches for row in rows)
    print()
    print(format_table(rows))
