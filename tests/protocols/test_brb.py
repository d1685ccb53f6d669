"""Tests for 2-round-BRB (Figure 1) and the Bracha baseline."""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.brb_bracha import BrachaBrb
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.runner import run_broadcast
from repro.types import validate_resilience


def run_good_case(cls, n, f, *, policy=None, value="v"):
    return run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(broadcaster=0, input_value=value),
        delay_policy=policy or FixedDelay(1.0),
    )


class TestBrb2RoundGoodCase:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (31, 10)])
    def test_all_commit_broadcaster_value(self, n, f):
        result = run_good_case(Brb2Round, n, f)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (13, 4)])
    def test_good_case_latency_is_2_rounds(self, n, f):
        result = run_good_case(Brb2Round, n, f)
        assert result.round_latency() == 2

    def test_two_rounds_under_heterogeneous_delays(self):
        result = run_good_case(
            Brb2Round, 7, 2, policy=UniformDelay(0.1, 3.0, seed=11)
        )
        assert result.round_latency() == 2
        assert result.committed_value() == "v"

    def test_resilience_boundary_enforced(self):
        with pytest.raises(ValueError):
            validate_resilience(6, 2, requirement="3f+1")
        with pytest.raises(ValueError):
            run_good_case(Brb2Round, 6, 2)

    def test_f_zero_still_works(self):
        result = run_good_case(Brb2Round, 4, 0)
        assert result.committed_value() == "v"


class TestBrb2RoundFaults:
    def test_crashed_broadcaster_no_commit_is_allowed(self):
        # BRB termination is conditional: with a silent broadcaster nobody
        # commits, and that is a correct outcome.
        result = run_broadcast(
            n=4,
            f=1,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=FixedDelay(1.0),
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
        )
        assert result.commits == {}

    def test_crashed_followers_do_not_block(self):
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=FixedDelay(1.0),
            byzantine=frozenset({5, 6}),
            behavior_factory=CrashBehavior,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.round_latency() == 2

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_equivocating_broadcaster_cannot_split(self, n, f):
        half = frozenset(range(1, (n + 1) // 2))
        rest = frozenset(range((n + 1) // 2, n))
        behavior = equivocating_broadcaster(
            make_broadcaster=Brb2Round.broadcaster_factory(broadcaster=0),
            groups={"zero": half, "one": rest},
        )
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="x"),
            delay_policy=FixedDelay(1.0),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
        )
        # Agreement must hold; commits may or may not happen (BRB).
        assert len(set(result.commits.values())) <= 1

    def test_termination_amplification(self):
        # If one honest party commits (via the forwarded quorum), all do —
        # even parties that missed the original votes.  We stage this by
        # delaying all votes to party 3 indefinitely except the forwarded
        # quorum from a committed party.
        from repro.sim.delays import FunctionDelay
        from repro.types import INF

        def delays(sender, recipient, payload, t):
            if recipient == 3 and isinstance(payload, tuple):
                if payload[0] == "vote":
                    return INF
                if payload[0] == "propose":
                    return INF
            return 1.0

        result = run_broadcast(
            n=4,
            f=1,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=FunctionDelay(delays),
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"


class TestBrachaBaseline:
    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_good_case_commits(self, n, f):
        result = run_good_case(BrachaBrb, n, f)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2)])
    def test_good_case_latency_is_3_rounds(self, n, f):
        # One round worse than the authenticated optimum: the gap the
        # paper highlights for the unauthenticated setting (Section 7).
        result = run_good_case(BrachaBrb, n, f)
        assert result.round_latency() == 3

    def test_equivocation_cannot_split(self):
        behavior = equivocating_broadcaster(
            make_broadcaster=BrachaBrb.broadcaster_factory(broadcaster=0),
            groups={
                "zero": frozenset({1, 2, 3}),
                "one": frozenset({4, 5, 6}),
            },
        )
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=BrachaBrb.factory(broadcaster=0, input_value="x"),
            delay_policy=FixedDelay(1.0),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
        )
        assert len(set(result.commits.values())) <= 1

    def test_crashed_followers_do_not_block(self):
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=BrachaBrb.factory(broadcaster=0, input_value="v"),
            delay_policy=FixedDelay(1.0),
            byzantine=frozenset({5, 6}),
            behavior_factory=CrashBehavior,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
