"""Section 7: the unauthenticated open-problem gap.

"Under synchrony, unauthenticated BB is solvable if and only if f < n/3,
and there exists a gap between the 2*delta lower bound and a 3*delta
upper bound implied by Bracha's broadcast."  The bench measures both
sides of the gap on identical worlds.

    pytest benchmarks/bench_section7_unauth.py --benchmark-only
"""
import pytest

from repro.analysis.latency import measure_sync_good_case
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_unauth_3delta import BbUnauth3Delta

BIG_DELTA = 1.0


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
def test_unauth_3delta_upper_bound(benchmark, delta):
    timing = dict(delta=delta, big_delta=BIG_DELTA, skew=delta)
    meas = benchmark(
        lambda: measure_sync_good_case(
            BbUnauth3Delta, n=7, f=2, **timing, until=2000.0
        )
    )
    assert meas.time_latency == pytest.approx(3 * delta)


def test_section7_gap(benchmark):
    """The one-delta gap between authenticated and unauthenticated."""
    delta = 0.25
    timing = dict(delta=delta, big_delta=BIG_DELTA, skew=0.0)

    def run():
        auth = measure_sync_good_case(Bb2Delta, n=7, f=2, **timing)
        unauth = measure_sync_good_case(
            BbUnauth3Delta, n=7, f=2, **timing, until=2000.0
        )
        return auth.time_latency, unauth.time_latency

    auth, unauth = benchmark(run)
    assert auth == pytest.approx(2 * delta)
    assert unauth == pytest.approx(3 * delta)
    assert unauth - auth == pytest.approx(delta)
