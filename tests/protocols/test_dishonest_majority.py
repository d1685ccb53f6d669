"""Tests for TrustCast and the dishonest-majority BB (Section 5.5)."""
import math

import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.sync.dishonest_majority import (
    WanStyleBb,
    trustcast_rounds,
)
from repro.sim.delays import FixedDelay
from repro.sim.runner import run_broadcast
from repro.types import BOTTOM

BIG_DELTA = 1.0


def run_wan(n, f, *, delta=None, byzantine=frozenset(),
            behavior_factory=None, value="v", until=None):
    return run_broadcast(
        n=n,
        f=f,
        party_factory=WanStyleBb.factory(
            broadcaster=0, input_value=value, big_delta=BIG_DELTA
        ),
        delay_policy=FixedDelay(delta if delta is not None else BIG_DELTA),
        byzantine=byzantine,
        behavior_factory=behavior_factory,
        until=until,
    )


class TestTrustCastRounds:
    @pytest.mark.parametrize(
        "n,f,expected",
        [(4, 2, 4), (6, 3, 4), (8, 6, 8), (10, 8, 10), (9, 6, 6)],
    )
    def test_rounds_formula(self, n, f, expected):
        assert trustcast_rounds(n, f) == expected
        assert trustcast_rounds(n, f) == math.ceil(2 * n / (n - f))


class TestGoodCase:
    @pytest.mark.parametrize("n,f", [(4, 2), (6, 3), (6, 4), (8, 6)])
    def test_commits_broadcaster_value(self, n, f):
        result = run_wan(n, f)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    @pytest.mark.parametrize("n,f", [(4, 2), (6, 4), (8, 6)])
    def test_good_case_latency_shape(self, n, f):
        # Fast path: 1 direct proposal round + one TrustCast of votes,
        # i.e. (1 + ceil(2n/(n-f))) * Delta — the paper's ~2n/(n-f)*Delta.
        result = run_wan(n, f)
        expected = (1 + trustcast_rounds(n, f)) * BIG_DELTA
        assert result.latency_from(0.0) == pytest.approx(expected)

    def test_latency_grows_with_f_over_n(self):
        lat = {}
        for n, f in [(4, 2), (6, 4), (8, 6), (10, 8)]:
            lat[(n, f)] = run_wan(n, f).latency_from(0.0)
        values = [lat[(4, 2)], lat[(6, 4)], lat[(8, 6)], lat[(10, 8)]]
        assert values == sorted(values)
        # n/(n-f) doubles from (4,2) to (8,6): latency roughly doubles.
        assert values[2] / values[0] == pytest.approx(9 / 5)

    def test_byzantine_followers_cannot_block_fast_path(self):
        # Crashing followers: honest votes still cover h = n - f parties.
        result = run_wan(
            6, 3, byzantine=frozenset({3, 4, 5}),
            behavior_factory=CrashBehavior,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        expected = (1 + trustcast_rounds(6, 3)) * BIG_DELTA
        assert result.latency_from(0.0) == pytest.approx(expected)


class TestFaultyBroadcaster:
    def test_crashed_broadcaster_all_commit_bottom(self):
        result = run_wan(
            4, 2, byzantine=frozenset({0}), behavior_factory=CrashBehavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    def test_equivocating_broadcaster_agreement(self):
        # The split reaches both groups; honest votes cross-deliver the
        # conflicting broadcaster signatures, so nobody fast-commits and
        # everybody lands on BOTTOM.
        behavior = equivocating_broadcaster(
            make_broadcaster=WanStyleBb.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset({1}),
                "one": frozenset({2, 3}),
            },
        )
        result = run_wan(
            4, 2, byzantine=frozenset({0}), behavior_factory=behavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
        assert result.committed_value() is BOTTOM

    def test_cert_adoption_carries_nonvoters(self):
        # Broadcaster proposes only to a quorum; the certificate phase
        # must carry the starved parties to the same value.
        from repro.adversary.behaviors import (
            FilteredHonestBehavior,
            fixed_delay_toward,
        )
        from repro.types import INF

        n, f = 4, 2
        starved = frozenset({3})

        def behavior(world, pid):
            return FilteredHonestBehavior(
                world,
                pid,
                party_factory=lambda w, p: WanStyleBb(
                    w, p, broadcaster=0, input_value="v", big_delta=BIG_DELTA
                ),
                send_filter=fixed_delay_toward(dict.fromkeys(starved, INF)),
            )

        result = run_wan(
            n, f, byzantine=frozenset({0}), behavior_factory=behavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
