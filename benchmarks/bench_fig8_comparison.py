"""Figure 8: (Delta+2delta)-BB of [4] vs the optimal (Delta+1.5delta)-BB.

The paper's intuition figure contrasts the prior protocol's full-Delta
equivocation wait with Figure 9's rank-coupled early voting; here both
run on identical worlds and the 0.5*delta separation is measured.

    pytest benchmarks/bench_fig8_comparison.py --benchmark-only
"""
import pytest

from repro.analysis.latency import measure_sync_good_case
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.protocols.sync.bb_delta_2delta import BbDelta2Delta

BIG_DELTA = 1.0


@pytest.mark.parametrize("delta", [0.2, 0.4, 0.8])
def test_fig8_separation_is_half_delta(benchmark, delta):
    timing = dict(delta=delta, big_delta=BIG_DELTA, skew=0.0)

    def run():
        fast = measure_sync_good_case(
            BbDelta15Delta, n=5, f=2, **timing,
            d_grid=[delta, BIG_DELTA],
        )
        baseline = measure_sync_good_case(
            BbDelta2Delta, n=5, f=2, **timing
        )
        return fast.time_latency, baseline.time_latency

    fast, baseline = benchmark(run)
    assert fast == pytest.approx(BIG_DELTA + 1.5 * delta)
    assert baseline == pytest.approx(BIG_DELTA + 2 * delta)
    assert baseline - fast == pytest.approx(0.5 * delta)


def test_fig8_message_cost_of_optimality(benchmark):
    """The optimum pays O(m n^2) messages vs the baseline's O(n^2)."""
    delta = 0.25
    timing = dict(delta=delta, big_delta=BIG_DELTA, skew=0.0)

    def run():
        fast = measure_sync_good_case(
            BbDelta15Delta, n=5, f=2, **timing, grid_samples=8
        )
        baseline = measure_sync_good_case(
            BbDelta2Delta, n=5, f=2, **timing
        )
        return fast.messages, baseline.messages

    fast_msgs, baseline_msgs = benchmark(run)
    assert fast_msgs > 2 * baseline_msgs
