"""Deeper view-change and failure-injection tests for (5f-1)-psync-VBB."""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, FunctionDelay
from repro.sim.runner import World, run_broadcast
from repro.types import INF

DELTA = 1.0


def factory(**kwargs):
    kwargs.setdefault("big_delta", DELTA)
    kwargs.setdefault("input_value", "v")
    return PsyncVbb5f1.factory(broadcaster=0, **kwargs)


class TestConsecutiveLeaderFailures:
    def test_two_crashed_leaders_in_a_row(self):
        # Leaders of views 1 and 2 (parties 0 and 1) are both crashed:
        # commit happens in view 3.
        result = run_broadcast(
            n=9,
            f=2,
            party_factory=factory(fallback_value="fb"),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0, 1}),
            behavior_factory=CrashBehavior,
            until=1000.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "fb"
        # Two view changes of 4*Delta each had to elapse first.
        assert min(result.commit_global_times.values()) > 8 * DELTA

    def test_view_progression_is_recorded(self):
        world = World(
            n=9,
            f=2,
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0, 1}),
        )
        world.populate(factory(fallback_value="fb"), CrashBehavior)
        world.run(until=1000.0)
        views = {p.current_view for p in world.honest_parties()}
        assert max(views) >= 3
        # The leader flag follows every view entry: party 2 leads view 3.
        for party in world.honest_parties():
            assert party.leads_current_view == (
                party.leader_of(party.current_view) == party.id
            )
        assert any(p.leads_current_view for p in world.honest_parties())


class TestMessageLoss:
    def test_slow_links_to_minority_do_not_block(self):
        # f parties are behind arbitrarily slow (but finite) links; the
        # quorum of the rest commits in 2 rounds and carries them later.
        slow = {7, 8}

        def delays(sender, recipient, payload, t):
            if recipient in slow or sender in slow:
                return 30.0
            return 0.1

        result = run_broadcast(
            n=9,
            f=2,
            party_factory=factory(),
            delay_policy=FunctionDelay(delays),
            until=200.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        fast_commits = [
            t for p, t in result.commit_global_times.items() if p not in slow
        ]
        assert max(fast_commits) <= 1.0  # the quorum is unaffected

    def test_proposal_lost_to_everyone_triggers_view_change(self):
        # The leader's proposals all vanish: equivalent to a crash.
        def delays(sender, recipient, payload, t):
            if sender == 0 and t < 2.0:
                return INF
            return 0.1

        result = run_broadcast(
            n=9,
            f=2,
            party_factory=factory(fallback_value="fb"),
            delay_policy=FunctionDelay(delays),
            until=1000.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestMaxViewCap:
    def test_max_view_stops_view_churn(self):
        # With every message dropped forever, parties stop at max_view
        # instead of spinning; nobody commits (correct: psync termination
        # is conditional on GST).
        # Delays far beyond the horizon: no message ever arrives.
        world = World(n=9, f=2, delay_policy=FixedDelay(10_000.0))
        world.populate(factory(max_view=5))
        world.run(until=500.0)
        for party in world.honest_parties():
            assert party.current_view <= 5
            assert not party.has_committed


class TestPendingProposalBuffering:
    def test_fast_new_leader_proposal_is_buffered(self):
        # Party 1 (leader of view 2) may send its proposal while some
        # parties are still finishing view 1; they must buffer and vote
        # after entering view 2 rather than dropping it.
        result = run_broadcast(
            n=9,
            f=2,
            party_factory=factory(fallback_value="fb"),
            delay_policy=FixedDelay(0.4),  # slow enough to interleave
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
            until=1000.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1


class TestExternalValidityUnderFaults:
    def test_fallback_must_be_externally_valid(self):
        # The view-change fallback value is subject to F as well.
        result = run_broadcast(
            n=9,
            f=2,
            party_factory=factory(
                fallback_value="good",
                external_validity=lambda v: v in ("v", "good"),
            ),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
            until=1000.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "good"
