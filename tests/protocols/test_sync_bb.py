"""Tests for the synchronous BB protocols (Figures 5, 6, 9, 10 + baselines).

The latency assertions check the *exact* Table 1 bounds: good-case
latency is measured from the broadcaster's start (Definition 6) under the
worst-case-within-model delay assignment (every honest message takes
exactly ``delta``).
"""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.protocols.sync.bb_delta_2delta import BbDelta2Delta
from repro.protocols.sync.bb_delta_delta_n3 import BbDeltaDeltaN3
from repro.protocols.sync.bb_delta_delta_sync import BbDeltaDeltaSync
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay
from repro.sim.runner import run_broadcast
from repro.types import BOTTOM

BIG_DELTA = 1.0


def run_sync(
    cls,
    n,
    f,
    *,
    delta,
    skew=0.0,
    skew_pattern="staggered",
    byzantine=frozenset(),
    behavior_factory=None,
    value="v",
    until=None,
    **protocol_kwargs,
):
    result = run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(
            broadcaster=0,
            input_value=value,
            big_delta=BIG_DELTA,
            **protocol_kwargs,
        ),
        delay_policy=FixedDelay(delta),
        byzantine=byzantine,
        behavior_factory=behavior_factory,
        start_offsets=skewed_offsets(n, skew, pattern=skew_pattern),
        until=until,
    )
    return result


class TestBb2Delta:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_2_delta(self, delta):
        result = run_sync(Bb2Delta, 7, 2, delta=delta)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(2 * delta)

    def test_good_case_latency_with_skew(self):
        # Unsynchronized start (skew <= delta) must not hurt the bound.
        result = run_sync(Bb2Delta, 7, 2, delta=0.5, skew=0.5)
        assert result.latency_from(0.0) <= 2 * 0.5 + 0.5 + 1e-9
        assert result.committed_value() == "v"

    def test_resilience_f_less_n_third(self):
        with pytest.raises(ValueError):
            run_sync(Bb2Delta, 6, 2, delta=0.5)

    def test_crashed_broadcaster_everyone_commits_default(self):
        result = run_sync(
            Bb2Delta, 7, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    def test_equivocating_broadcaster_agreement(self):
        behavior = equivocating_broadcaster(
            make_broadcaster=Bb2Delta.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset({1, 2, 3}),
                "one": frozenset({4, 5, 6}),
            },
        )
        result = run_sync(
            Bb2Delta, 7, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestBbDeltaDeltaN3:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_delta_plus_delta(self, delta):
        # f = n/3 exactly: the regime where this protocol is optimal.
        result = run_sync(BbDeltaDeltaN3, 6, 2, delta=delta)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(BIG_DELTA + delta)

    def test_good_case_with_skew(self):
        result = run_sync(BbDeltaDeltaN3, 6, 2, delta=0.25, skew=0.25)
        assert result.committed_value() == "v"
        # Bound from the broadcaster's start: Delta + delta (validity is
        # per-party; the skew shifts non-broadcaster clocks only).
        assert result.latency_from(0.0) <= BIG_DELTA + 2 * 0.25 + 1e-9

    def test_crashed_broadcaster_agreement(self):
        result = run_sync(
            BbDeltaDeltaN3, 6, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    @pytest.mark.parametrize("split", [(1, 5), (2, 4), (3, 3)])
    def test_equivocating_broadcaster_agreement(self, split):
        left, right = split
        behavior = equivocating_broadcaster(
            make_broadcaster=BbDeltaDeltaN3.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + left)),
                "one": frozenset(range(1 + left, 6)),
            },
        )
        result = run_sync(
            BbDeltaDeltaN3, 6, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestBbDeltaDeltaSync:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_delta_plus_delta(self, delta):
        # n/3 < f < n/2 with synchronized start.
        result = run_sync(
            BbDeltaDeltaSync, 5, 2, delta=delta, skew=0.0
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(BIG_DELTA + delta)

    def test_resilience_minority(self):
        with pytest.raises(ValueError):
            run_sync(BbDeltaDeltaSync, 4, 2, delta=0.5)

    def test_crashed_broadcaster(self):
        result = run_sync(
            BbDeltaDeltaSync, 5, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    @pytest.mark.parametrize("split", [(1, 3), (2, 2)])
    def test_equivocating_broadcaster_agreement(self, split):
        left, right = split
        behavior = equivocating_broadcaster(
            make_broadcaster=BbDeltaDeltaSync.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + left)),
                "one": frozenset(range(1 + left, 5)),
            },
        )
        result = run_sync(
            BbDeltaDeltaSync, 5, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestBbDelta15Delta:
    @pytest.mark.parametrize("delta", [0.125, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_delta_plus_1_5_delta(self, delta):
        # delta on the default 8-point grid: the exact optimum shows up.
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=delta, skew=0.0
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(
            BIG_DELTA + 1.5 * delta
        )

    def test_latency_with_unsynchronized_start(self):
        # The headline result: Delta + 1.5*delta under skew <= delta.
        delta = 0.25
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=delta, skew=delta,
            skew_pattern="max",
        )
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) <= BIG_DELTA + 1.5 * delta + 1e-9

    def test_off_grid_delta_costs_half_grid_step(self):
        # delta strictly between grid points: commit uses the next grid
        # point d > delta, costing (d - delta)/2 extra.
        delta = 0.3  # grid step 0.125 -> next grid point 0.375
        result = run_sync(BbDelta15Delta, 5, 2, delta=delta, skew=0.0)
        # Non-broadcaster parties (t_prop = delta) may already use the
        # grid point d = 0.25 (the commit rule allows
        # t_votes - t_prop <= Delta + 1.5*d); votes for d = 0.25 arrive at
        # 2*delta + Delta - 0.5*d = 1.475, past the equivocation window
        # t_prop + Delta + 0.5*d = 1.425, so the slowest commit is 1.475.
        assert result.latency_from(0.0) == pytest.approx(1.475)
        # Never better than the theoretical optimum Delta + 1.5*delta ...
        assert result.latency_from(0.0) >= BIG_DELTA + 1.5 * delta - 1e-9
        # ... and within the paper's m-sample guarantee.
        assert result.latency_from(0.0) <= (
            (1 + 1 / (2 * 8)) * BIG_DELTA + 1.5 * delta
        )

    @pytest.mark.parametrize("m", [1, 2, 4, 16])
    def test_grid_size_tradeoff_bound(self, m):
        # (1 + 1/2m) * Delta + 1.5 * delta for the m-sample variant.
        delta = 0.3
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=delta, skew=0.0, grid_samples=m
        )
        bound = (1 + 1 / (2 * m)) * BIG_DELTA + 1.5 * delta
        assert result.latency_from(0.0) <= bound + 1e-9

    def test_crashed_broadcaster(self):
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    @pytest.mark.parametrize("split", [(1, 3), (2, 2), (3, 1)])
    def test_equivocating_broadcaster_agreement(self, split):
        left, right = split
        behavior = equivocating_broadcaster(
            make_broadcaster=BbDelta15Delta.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + left)),
                "one": frozenset(range(1 + left, 5)),
            },
        )
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1

    def test_equivocation_with_skew_agreement(self):
        behavior = equivocating_broadcaster(
            make_broadcaster=BbDelta15Delta.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset({1, 2}),
                "one": frozenset({3, 4}),
            },
        )
        result = run_sync(
            BbDelta15Delta, 5, 2, delta=0.5, skew=0.25,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestBbDelta2Delta:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_delta_plus_2_delta(self, delta):
        result = run_sync(BbDelta2Delta, 5, 2, delta=delta, skew=0.0)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(
            BIG_DELTA + 2 * delta
        )

    def test_consistently_slower_than_fig9(self):
        delta = 0.5
        fast = run_sync(BbDelta15Delta, 5, 2, delta=delta, skew=0.0)
        slow = run_sync(BbDelta2Delta, 5, 2, delta=delta, skew=0.0)
        assert fast.latency_from(0.0) < slow.latency_from(0.0)
        assert slow.latency_from(0.0) - fast.latency_from(0.0) == (
            pytest.approx(0.5 * delta)
        )

    def test_equivocating_broadcaster_agreement(self):
        behavior = equivocating_broadcaster(
            make_broadcaster=BbDelta2Delta.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset({1, 2}),
                "one": frozenset({3, 4}),
            },
        )
        result = run_sync(
            BbDelta2Delta, 5, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
            until=100.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
