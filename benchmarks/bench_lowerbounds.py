"""Figures 4, 7/11, 12 and Theorems 4, 8, 9: the lower-bound witnesses.

Each benchmark replays an impossibility construction from
``repro.lowerbounds.WITNESSES``, machine-checks the proof's
indistinguishability claims and asserts the agreement violation.

    pytest benchmarks/bench_lowerbounds.py --benchmark-only
"""
import pytest

from repro.lowerbounds import WITNESSES, run_witness


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_witness(benchmark, key):
    report = benchmark(run_witness, key)
    assert report.all_checks_hold
    assert report.violation_found
    if key == "thm10":  # Figure 11: the four claims over E1-E4
        assert len(report.checks) == 4
