"""Tests for the unauthenticated setting (paper Section 7).

Phase-king BA (no signatures, n > 3f) and the 3delta-BB built on it —
the open-problem upper bound the paper cites (gap to the 2delta lower
bound).
"""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.phase_king import PhaseKingBa
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_unauth_3delta import BbUnauth3Delta
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast
from repro.types import BOTTOM

BIG_DELTA = 1.0


class PkHarness(Party):
    """Minimal host running one phase-king instance."""

    def __init__(self, world, pid, *, input_value):
        super().__init__(world, pid)
        self.input_value = input_value
        self.decision = None
        self._ba = PhaseKingBa(
            self, tag="t", big_delta=BIG_DELTA, on_decide=self._decided
        )

    def on_start(self):
        self._ba.start(self.input_value)

    def on_message(self, sender, payload):
        self._ba.handle(sender, payload)

    def _decided(self, value):
        self.decision = value


def run_pk(n, f, inputs, *, delta=1.0, skew=0.0, byzantine=frozenset(),
           behavior_factory=None):
    world = World(
        n=n,
        f=f,
        delay_policy=FixedDelay(delta),
        byzantine=byzantine,
        start_offsets=skewed_offsets(n, skew),
    )
    world.populate(
        lambda w, pid: PkHarness(w, pid, input_value=inputs[pid]),
        behavior_factory,
    )
    world.run(until=2000.0)
    return {
        pid: agent.decision
        for pid, agent in world.agents.items()
        if pid not in byzantine
    }


class TestPhaseKing:
    def test_validity_unanimous_inputs(self):
        decisions = run_pk(4, 1, ["v"] * 4)
        assert all(d == "v" for d in decisions.values())

    def test_agreement_mixed_inputs(self):
        decisions = run_pk(7, 2, ["a", "b", "a", "b", "a", "b", "a"])
        assert len(set(decisions.values())) == 1

    def test_agreement_with_crashed_parties(self):
        decisions = run_pk(
            7, 2, ["a", "a", "a", "a", "a", "x", "x"],
            byzantine=frozenset({5, 6}), behavior_factory=CrashBehavior,
        )
        assert all(d == "a" for d in decisions.values())

    def test_agreement_with_crashed_king(self):
        # Party 0 is the king of phase 0; crashing it must not break BA.
        decisions = run_pk(
            4, 1, ["x", "a", "b", "a"],
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
        )
        assert len(set(decisions.values())) == 1

    def test_validity_under_skew_and_max_delay(self):
        decisions = run_pk(4, 1, ["v"] * 4, delta=1.0, skew=1.0)
        assert all(d == "v" for d in decisions.values())

    def test_f_zero(self):
        decisions = run_pk(3, 0, ["v"] * 3)
        assert all(d == "v" for d in decisions.values())


class TestUnauth3DeltaBb:
    def run_bb(self, n, f, *, delta, skew=0.0, byzantine=frozenset(),
               behavior_factory=None, value="v", until=2000.0):
        return run_broadcast(
            n=n,
            f=f,
            party_factory=BbUnauth3Delta.factory(
                broadcaster=0, input_value=value, big_delta=BIG_DELTA
            ),
            delay_policy=FixedDelay(delta),
            byzantine=byzantine,
            behavior_factory=behavior_factory,
            start_offsets=skewed_offsets(n, skew),
            until=until,
        )

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5, 1.0])
    def test_good_case_latency_is_3_delta(self, delta):
        result = self.run_bb(7, 2, delta=delta)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(3 * delta)

    def test_gap_to_authenticated_optimum(self):
        # Section 7's open gap: 3*delta unauthenticated vs 2*delta
        # authenticated, same regime f < n/3.
        delta = 0.25
        unauth = self.run_bb(7, 2, delta=delta)
        auth = run_broadcast(
            n=7,
            f=2,
            party_factory=Bb2Delta.factory(
                broadcaster=0, input_value="v", big_delta=BIG_DELTA
            ),
            delay_policy=FixedDelay(delta),
        )
        assert unauth.latency_from(0.0) == pytest.approx(3 * delta)
        assert auth.latency_from(0.0) == pytest.approx(2 * delta)

    def test_resilience_boundary(self):
        with pytest.raises(ValueError):
            self.run_bb(6, 2, delta=0.5)

    def test_crashed_broadcaster_commits_default(self):
        result = self.run_bb(
            7, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=CrashBehavior,
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    @pytest.mark.parametrize("split", [(3, 3), (2, 4), (1, 5)])
    def test_equivocating_broadcaster_agreement(self, split):
        left, _right = split
        behavior = equivocating_broadcaster(
            make_broadcaster=BbUnauth3Delta.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + left)),
                "one": frozenset(range(1 + left, 7)),
            },
        )
        result = self.run_bb(
            7, 2, delta=0.5,
            byzantine=frozenset({0}), behavior_factory=behavior,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1

    def test_crashed_followers_unaffected(self):
        result = self.run_bb(
            7, 2, delta=0.25,
            byzantine=frozenset({5, 6}), behavior_factory=CrashBehavior,
        )
        assert result.committed_value() == "v"
        assert result.latency_from(0.0) == pytest.approx(3 * 0.25)
