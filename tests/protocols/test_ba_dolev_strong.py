"""Tests for the BA primitive and the Dolev-Strong BB baseline."""
import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.ba import DolevStrongBa
from repro.protocols.dolev_strong import DolevStrongBb
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast
from repro.types import BOTTOM

BIG_DELTA = 1.0


class BaHarnessParty(Party):
    """Minimal host that runs one BA instance with a fixed input."""

    def __init__(self, world, pid, *, input_value, start_at=0.0):
        super().__init__(world, pid)
        self.input_value = input_value
        self.start_at = start_at
        self.decision = None
        self._ba = DolevStrongBa(
            self,
            tag=("test-ba", 0),
            big_delta=BIG_DELTA,
            on_decide=self._decided,
        )

    def on_start(self):
        self.at_local_time(self.start_at, lambda: self._ba.start(self.input_value))

    def on_message(self, sender, payload):
        self._ba.handle(sender, payload)

    def _decided(self, value):
        self.decision = value


def run_ba(n, f, inputs, *, delta=1.0, skew=0.0, byzantine=frozenset(),
           behavior_factory=None):
    world = World(
        n=n,
        f=f,
        delay_policy=FixedDelay(delta),
        byzantine=byzantine,
        start_offsets=skewed_offsets(n, skew),
    )
    world.populate(
        lambda w, pid: BaHarnessParty(w, pid, input_value=inputs[pid]),
        behavior_factory,
    )
    world.run(until=1000.0)
    return {
        pid: agent.decision
        for pid, agent in world.agents.items()
        if pid not in byzantine
    }


class TestDolevStrongBa:
    def test_validity_all_same_input(self):
        decisions = run_ba(5, 2, ["v"] * 5)
        assert all(d == "v" for d in decisions.values())

    def test_agreement_with_mixed_inputs(self):
        decisions = run_ba(5, 2, ["a", "a", "b", "b", "a"])
        assert len(set(decisions.values())) == 1
        # 3 of 5 inputs are "a": majority resolution must pick it.
        assert set(decisions.values()) == {"a"}

    def test_no_majority_yields_default(self):
        decisions = run_ba(4, 1, ["a", "a", "b", "b"])
        assert len(set(decisions.values())) == 1

    def test_validity_under_max_delay_and_skew(self):
        # The stress case: delta = Delta and skew = Delta (lock-step edge).
        decisions = run_ba(5, 2, ["v"] * 5, delta=1.0, skew=1.0)
        assert all(d == "v" for d in decisions.values())

    def test_validity_with_crashed_parties(self):
        decisions = run_ba(
            5, 2, ["v"] * 5,
            byzantine=frozenset({3, 4}), behavior_factory=CrashBehavior,
        )
        assert all(d == "v" for d in decisions.values())

    def test_agreement_with_crashed_parties_mixed(self):
        decisions = run_ba(
            5, 2, ["a", "a", "b", "x", "x"],
            byzantine=frozenset({3, 4}), behavior_factory=CrashBehavior,
        )
        assert len(set(decisions.values())) == 1

    def test_f_zero(self):
        decisions = run_ba(3, 0, ["v"] * 3)
        assert all(d == "v" for d in decisions.values())


class TestDolevStrongBb:
    def run_ds(self, n, f, *, delta=1.0, byzantine=frozenset(),
               behavior_factory=None, value="v"):
        return run_broadcast(
            n=n,
            f=f,
            party_factory=DolevStrongBb.factory(
                broadcaster=0, input_value=value, big_delta=BIG_DELTA
            ),
            delay_policy=FixedDelay(delta),
            byzantine=byzantine,
            behavior_factory=behavior_factory,
            until=1000.0,
        )

    @pytest.mark.parametrize("n,f", [(4, 1), (4, 2), (4, 3), (7, 5)])
    def test_tolerates_any_f_below_n(self, n, f):
        result = self.run_ds(n, f)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    def test_latency_is_f_plus_1_rounds_of_2_delta(self):
        # The worst-case baseline: (f+1) * 2Delta even in the good case —
        # the motivating gap for good-case-latency research.
        for f in (1, 2, 3):
            result = self.run_ds(7, f, delta=0.01)
            assert result.latency_from(0.0) == pytest.approx(
                (f + 1) * 2 * BIG_DELTA
            )

    def test_crashed_broadcaster_commits_default(self):
        result = self.run_ds(
            4, 1, byzantine=frozenset({0}), behavior_factory=CrashBehavior
        )
        assert result.all_honest_committed()
        assert result.committed_value() is BOTTOM

    def test_equivocating_broadcaster_agreement(self):
        behavior = equivocating_broadcaster(
            make_broadcaster=DolevStrongBb.broadcaster_factory(
                broadcaster=0, big_delta=BIG_DELTA
            ),
            groups={
                "zero": frozenset({1}),
                "one": frozenset({2, 3}),
            },
        )
        result = self.run_ds(
            4, 1, byzantine=frozenset({0}), behavior_factory=behavior
        )
        assert result.all_honest_committed()
        # Relaying exposes the equivocation: everyone extracts both values
        # and outputs the default.
        assert len(set(result.commits.values())) <= 1
        assert result.committed_value() is BOTTOM
