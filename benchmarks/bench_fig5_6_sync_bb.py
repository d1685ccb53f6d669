"""Figures 5, 6, 10: the synchronous upper-bound protocols.

Latency as a function of the actual delay bound delta, per regime of
``repro.analysis.table1.REGIMES``; plus the Dolev-Strong worst-case
baseline that motivates good-case analysis.

    pytest benchmarks/bench_fig5_6_sync_bb.py --benchmark-only
"""
from dataclasses import replace

import pytest

from repro.analysis.sweeps import sweep_sync_regimes
from repro.analysis.table1 import FIGURES

BIG_DELTA = 1.0


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("figure", ["Fig 10", "Fig 5", "Fig 6"])
def test_sync_upper_bound(benchmark, figure, delta):
    """2*delta below n/3; Delta + delta at n/3 and (sync start) above."""
    regime = FIGURES[figure]
    value = benchmark(regime.measure, delta=delta, big_delta=BIG_DELTA)
    assert value == pytest.approx(
        regime.expected(delta, BIG_DELTA, regime.n, regime.f)
    )


@pytest.mark.parametrize("f", [1, 2, 3])
def test_dolev_strong_worst_case_baseline(benchmark, f):
    """(f+1) * 2*Delta regardless of delta: why good-case latency matters."""
    regime = replace(FIGURES["Dolev-Strong"], n=7, f=f)
    value = benchmark(regime.measure, delta=0.01, big_delta=BIG_DELTA)
    assert value == pytest.approx((f + 1) * 2 * BIG_DELTA)


def test_full_sync_spectrum(benchmark):
    """The whole synchrony story in one sweep (Table 1 rows 4-7)."""
    series = benchmark(lambda: sweep_sync_regimes(deltas=[0.25, 1.0]))
    at_small = {name: pts[0].latency for name, pts in series.items()}
    assert (
        at_small["2delta (f<n/3)"]
        < at_small["Delta+delta (f=n/3)"]
        < at_small["Delta+1.5delta (unsync)"]
        < at_small["Delta+2delta (baseline)"]
        < at_small["DolevStrong (worst-case)"]
    )
