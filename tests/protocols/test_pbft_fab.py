"""Tests for the PBFT (3-round) and FaB (2-round, 5f+1) baselines."""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.runner import run_broadcast

DELTA = 1.0


def factory(cls, value="v", **kwargs):
    kwargs.setdefault("big_delta", DELTA)
    return cls.factory(broadcaster=0, input_value=value, **kwargs)


class TestPbftGoodCase:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (13, 4)])
    def test_commits_broadcaster_value(self, n, f):
        result = run_broadcast(
            n=n, f=f, party_factory=factory(PbftPsync),
            delay_policy=FixedDelay(0.1),
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_good_case_latency_is_3_rounds(self, n, f):
        result = run_broadcast(
            n=n, f=f, party_factory=factory(PbftPsync),
            delay_policy=FixedDelay(0.1),
        )
        assert result.round_latency() == 3

    def test_three_rounds_under_heterogeneous_delays(self):
        result = run_broadcast(
            n=7, f=2, party_factory=factory(PbftPsync),
            delay_policy=UniformDelay(0.05, 0.9, seed=5),
        )
        assert result.round_latency() == 3

    def test_resilience_boundary(self):
        with pytest.raises(ValueError):
            run_broadcast(
                n=6, f=2, party_factory=factory(PbftPsync),
                delay_policy=FixedDelay(0.1),
            )


class TestPbftFaults:
    def test_crashed_leader_view_change(self):
        result = run_broadcast(
            n=7, f=2, party_factory=factory(PbftPsync, fallback_value="fb"),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
        assert result.committed_value() == "fb"

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_equivocating_leader_agreement(self, split):
        behavior = equivocating_broadcaster(
            make_broadcaster=PbftPsync.broadcaster_factory(
                broadcaster=0, big_delta=DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + split)),
                "one": frozenset(range(1 + split, 7)),
            },
        )
        result = run_broadcast(
            n=7, f=2, party_factory=factory(PbftPsync),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
            until=500.0,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()

    def test_crashed_followers_unaffected(self):
        result = run_broadcast(
            n=7, f=2, party_factory=factory(PbftPsync),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({5, 6}),
            behavior_factory=CrashBehavior,
        )
        assert result.committed_value() == "v"
        assert result.round_latency() == 3


class TestFabGoodCase:
    @pytest.mark.parametrize("n,f", [(6, 1), (11, 2), (16, 3)])
    def test_commits_in_2_rounds(self, n, f):
        result = run_broadcast(
            n=n, f=f, party_factory=factory(FabPsync),
            delay_policy=FixedDelay(0.1),
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.round_latency() == 2

    def test_resilience_boundary_is_5f_plus_1(self):
        # FaB needs n >= 5f+1; the paper's protocol needs only 5f-1.
        with pytest.raises(ValueError):
            run_broadcast(
                n=10, f=2, party_factory=factory(FabPsync),
                delay_policy=FixedDelay(0.1),
            )


class TestFabFaults:
    def test_crashed_leader_view_change(self):
        result = run_broadcast(
            n=11, f=2, party_factory=factory(FabPsync, fallback_value="fb"),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "fb"

    @pytest.mark.parametrize("split", [2, 5])
    def test_equivocating_leader_agreement(self, split):
        behavior = equivocating_broadcaster(
            make_broadcaster=FabPsync.broadcaster_factory(
                broadcaster=0, big_delta=DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + split)),
                "one": frozenset(range(1 + split, 11)),
            },
        )
        result = run_broadcast(
            n=11, f=2, party_factory=factory(FabPsync),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
            until=500.0,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()
