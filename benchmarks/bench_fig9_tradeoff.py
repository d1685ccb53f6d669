"""Figure 9: the (Delta+1.5delta)-BB protocol and its m-sampling tradeoff.

The paper: the continuous-d protocol is "purely theoretical" (unbounded
messages); sampling m values of d gives ``(1 + 1/(2m))Delta + 1.5delta``
with ``O(m n^2)`` messages.  The sweep measures both sides of that
tradeoff.

    pytest benchmarks/bench_fig9_tradeoff.py --benchmark-only
"""
import pytest

from repro.analysis.latency import measure_sync_good_case
from repro.analysis.sweeps import sweep_fig9_tradeoff
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta

BIG_DELTA = 1.0


@pytest.mark.parametrize("delta", [0.125, 0.25, 0.5, 1.0])
def test_fig9_exact_optimum_on_grid(benchmark, delta):
    timing = dict(delta=delta, big_delta=BIG_DELTA, skew=delta)
    meas = benchmark(
        lambda: measure_sync_good_case(
            BbDelta15Delta, n=5, f=2, **timing, grid_samples=8
        )
    )
    assert meas.time_latency <= BIG_DELTA + 1.5 * delta + 1e-9


def test_fig9_m_sweep_latency(benchmark):
    delta = 0.3
    points = benchmark(
        lambda: sweep_fig9_tradeoff(
            grid_sizes=[1, 2, 4, 8, 16], delta=delta, big_delta=BIG_DELTA
        )
    )
    latencies = [p.latency for p in points]
    assert latencies == sorted(latencies, reverse=True)
    for point in points:
        m = int(point.x)
        assert point.latency <= (1 + 1 / (2 * m)) * BIG_DELTA + 1.5 * delta


@pytest.mark.parametrize("m", [1, 4, 16])
def test_fig9_message_cost_scales_with_m(benchmark, m):
    timing = dict(delta=0.3, big_delta=BIG_DELTA, skew=0.0)
    meas = benchmark(
        lambda: measure_sync_good_case(
            BbDelta15Delta, n=5, f=2, **timing, grid_samples=m
        )
    )
    # O(m n^2): at least m vote multicasts per party.
    assert meas.messages >= m * 5
