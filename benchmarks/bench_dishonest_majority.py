"""Table 1 row 8 / Section 5.5: the dishonest-majority regime.

Good-case latency as f/n approaches 1: the measured curve follows the
paper's ~2n/(n-f) * Delta upper-bound shape and stays above the
(floor(n/(n-f)) - 1) * Delta lower bound, with the factor-~2 gap the
paper leaves open.

    pytest benchmarks/bench_dishonest_majority.py --benchmark-only
"""
import pytest

from repro.analysis.latency import measure_sync_good_case
from repro.analysis.sweeps import sweep_dishonest_majority
from repro.protocols.sync.dishonest_majority import (
    WanStyleBb,
    trustcast_rounds,
)

BIG_DELTA = 1.0


@pytest.mark.parametrize("n,f", [(4, 2), (6, 4), (8, 6), (10, 8)])
def test_latency_shape(benchmark, n, f):
    timing = dict(delta=BIG_DELTA, big_delta=BIG_DELTA, skew=0.0)
    meas = benchmark(
        lambda: measure_sync_good_case(
            WanStyleBb, n=n, f=f, **timing, skew_pattern="zero"
        )
    )
    assert meas.time_latency == pytest.approx(
        (1 + trustcast_rounds(n, f)) * BIG_DELTA
    )
    assert meas.time_latency >= (n // (n - f) - 1) * BIG_DELTA


def test_full_ratio_sweep(benchmark):
    records = benchmark(
        lambda: sweep_dishonest_majority(
            configs=[(4, 2), (6, 4), (8, 6), (10, 8)]
        )
    )
    latencies = [r["latency"] for r in records]
    assert latencies == sorted(latencies)
    # The open-problem gap: measured UB within a small constant of the LB.
    for record in records[2:]:
        assert record["latency"] <= 4 * record["lower_bound"]
