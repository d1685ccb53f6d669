"""Adversarial tests for the synchronous protocols beyond equivocation.

The ranked-vote protocols (Figures 6 and 9) let Byzantine parties *lie
about the receipt time d* in their votes — the attack surface their
commit rules are designed around.  These tests script double voters and
d-forgers and check the safety argument (Lemmas 1 and 4) holds in code.
"""
import pytest

from repro.adversary.behaviors import ScriptStep, ScriptedBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.sync.bb_delta_15delta import (
    VOTE as VOTE15,
    BbDelta15Delta,
)
from repro.protocols.sync.bb_delta_delta_sync import (
    VOTE as VOTE6,
    BbDeltaDeltaSync,
)
from repro.sim.clock import skewed_offsets
from repro.sim.delays import FixedDelay, PerLinkDelay
from repro.sim.runner import World

BIG_DELTA = 1.0
DELTA = 0.25


def split_broadcaster(cls, groups):
    return equivocating_broadcaster(
        make_broadcaster=cls.broadcaster_factory(
            broadcaster=0, big_delta=BIG_DELTA
        ),
        groups=groups,
    )


class TestFig6DoubleVoting:
    """n = 5, f = 2: Byzantine broadcaster + one double-voting follower."""

    def _run(self, *, fake_d):
        # Broadcaster 0 equivocates 0 -> {1, 2}, 1 -> {3}; party 4 double
        # votes for BOTH values with a forged receipt time ``fake_d``.
        behavior_split = split_broadcaster(
            BbDeltaDeltaSync,
            {0: frozenset({1, 2}), 1: frozenset({3})},
        )

        def double_voter(world, pid):
            def script(behavior):
                # The double voter needs broadcaster-signed proposals for
                # both values; the split-brain signs them at t=0, and the
                # votes arrive later, so the signatures verify.
                from repro.crypto.messages import digest
                from repro.crypto.signatures import Signature, SignedPayload

                def proposal(value):
                    body = ("propose", value)
                    return SignedPayload(body, Signature(0, digest(body)))

                steps = []
                for value in (0, 1):
                    vote = behavior.signer.sign(
                        (VOTE6, fake_d, proposal(value))
                    )
                    for recipient in (1, 2, 3):
                        steps.append(
                            ScriptStep(
                                time=0.3, recipient=recipient, payload=vote
                            )
                        )
                return steps

            return ScriptedBehavior(world, pid, script_builder=script)

        def behaviors(world, pid):
            if pid == 0:
                return behavior_split(world, pid)
            return double_voter(world, pid)

        world = World(
            n=5,
            f=2,
            delay_policy=FixedDelay(DELTA),
            byzantine=frozenset({0, 4}),
        )
        world.populate(
            BbDeltaDeltaSync.factory(
                broadcaster=0, input_value=0, big_delta=BIG_DELTA
            ),
            behaviors,
        )
        world.run(until=100.0)
        return world

    @pytest.mark.parametrize("fake_d", [0.0, 0.1, 0.25])
    def test_agreement_despite_forged_ranks(self, fake_d):
        world = self._run(fake_d=fake_d)
        commits = {
            p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert len(commits) <= 1
        assert all(p.has_committed for p in world.honest_parties())

    def test_no_early_commit_with_visible_equivocation(self):
        # The double voter's conflicting votes carry both proposals, so
        # every honest party detects equivocation within its window and
        # defers to the BA.
        world = self._run(fake_d=0.0)
        for party in world.honest_parties():
            assert party.equivocation_detected_at is not None


class TestFig9DoubleVoting:
    def _run(self):
        behavior_split = split_broadcaster(
            BbDelta15Delta,
            {0: frozenset({1, 2}), 1: frozenset({3})},
        )

        def double_voter(world, pid):
            def script(behavior):
                from repro.crypto.messages import digest
                from repro.crypto.signatures import Signature, SignedPayload

                def proposal(value):
                    body = ("propose", value)
                    return SignedPayload(body, Signature(0, digest(body)))

                steps = []
                for value in (0, 1):
                    for d in (0.0, DELTA):
                        vote = behavior.signer.sign(
                            (VOTE15, d, proposal(value))
                        )
                        for recipient in (1, 2, 3):
                            steps.append(
                                ScriptStep(
                                    time=0.3,
                                    recipient=recipient,
                                    payload=vote,
                                )
                            )
                return steps

            return ScriptedBehavior(world, pid, script_builder=script)

        def behaviors(world, pid):
            if pid == 0:
                return behavior_split(world, pid)
            return double_voter(world, pid)

        world = World(
            n=5,
            f=2,
            delay_policy=FixedDelay(DELTA),
            byzantine=frozenset({0, 4}),
            start_offsets=skewed_offsets(5, DELTA),
        )
        world.populate(
            BbDelta15Delta.factory(
                broadcaster=0, input_value=0, big_delta=BIG_DELTA
            ),
            behaviors,
        )
        world.run(until=100.0)
        return world

    def test_agreement_despite_rank_forgery(self):
        world = self._run()
        commits = {
            p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert len(commits) <= 1
        assert all(p.has_committed for p in world.honest_parties())

    def test_locks_agree_before_ba(self):
        # Lemma 1 part (3): all honest parties enter the BA with the same
        # lock whenever someone committed early; when nobody did, locks
        # may differ but the BA still aligns them (checked above).
        world = self._run()
        early = [
            p for p in world.honest_parties()
            if p.has_committed and p.commit_local_time is not None
            and p.commit_local_time < p.ba_time
        ]
        if early:
            committed = early[0].committed_value
            for party in world.honest_parties():
                assert party.lock == committed
