"""Unit tests for the TrustCast primitive (deliver-or-distrust).

The guarantee (Wan et al., reproduced in Section 5.5's substrate): after
the lock-step rounds complete, every honest party either delivered a
unique message from the sender or distrusts the sender — and an honest
sender is always delivered and never distrusted.
"""
import pytest

from repro.protocols.ba import DS_MSG
from repro.protocols.sync.dishonest_majority import TrustCast
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World

BIG_DELTA = 1.0
ROUNDS = 4


class TcHarness(Party):
    """Runs one TrustCast instance with the host as sender or receiver."""

    def __init__(self, world, pid, *, sender, value=None):
        super().__init__(world, pid)
        self.tc = TrustCast(self, tag=("tc", sender), sender=sender,
                            rounds=ROUNDS)
        self.sender_id = sender
        self.value = value

    def on_start(self):
        if self.id == self.sender_id and self.value is not None:
            self.tc.broadcast(self.value)
        for k in range(1, ROUNDS + 1):
            self.at_local_time(k * BIG_DELTA, self.tc.boundary)

    def on_message(self, sender, payload):
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == DS_MSG
            and payload[1] == self.tc.inner.tag
        ):
            self.tc.receive_chain(payload[2])


def run_tc(n, f, *, sender, value, byzantine=frozenset(),
           behavior_factory=None, delta=1.0):
    world = World(
        n=n, f=f, delay_policy=FixedDelay(delta),
        byzantine=byzantine,
    )
    world.populate(
        lambda w, pid: TcHarness(w, pid, sender=sender, value=value),
        behavior_factory,
    )
    world.run(until=100.0)
    return {
        pid: agent.tc
        for pid, agent in world.agents.items()
        if pid not in byzantine
    }


class TestHonestSender:
    def test_everyone_delivers_and_trusts(self):
        tcs = run_tc(6, 4, sender=0, value="m")
        for tc in tcs.values():
            assert tc.finalized
            assert tc.trusted
            assert tc.delivered == "m"

    def test_delivery_despite_dishonest_majority_silence(self):
        from repro.adversary.behaviors import CrashBehavior

        tcs = run_tc(
            6, 4, sender=0, value="m",
            byzantine=frozenset({2, 3, 4, 5}),
            behavior_factory=CrashBehavior,
        )
        for tc in tcs.values():
            assert tc.trusted
            assert tc.delivered == "m"


class TestByzantineSender:
    def test_silent_sender_is_distrusted(self):
        from repro.adversary.behaviors import CrashBehavior

        tcs = run_tc(
            6, 4, sender=0, value=None,
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
        )
        for tc in tcs.values():
            assert tc.finalized
            assert not tc.trusted
            assert tc.delivered is None

    def test_equivocating_sender_is_distrusted_where_seen(self):
        # A sender that TrustCasts two values: relays spread both chains,
        # so every honest party extracts both and distrusts.
        from repro.adversary.behaviors import ScriptStep, ScriptedBehavior

        def script(behavior):
            chain_a = behavior.signer.sign(
                ("ds-val", ("tc", 0), 0, "a")
            )
            chain_b = behavior.signer.sign(
                ("ds-val", ("tc", 0), 0, "b")
            )
            steps = []
            for pid in range(1, 6):
                payload_a = (DS_MSG, ("tc", 0), chain_a)
                payload_b = (DS_MSG, ("tc", 0), chain_b)
                steps.append(ScriptStep(time=0.0, recipient=pid,
                                        payload=payload_a))
                steps.append(ScriptStep(time=0.0, recipient=pid,
                                        payload=payload_b))
            return steps

        tcs = run_tc(
            6, 4, sender=0, value=None,
            byzantine=frozenset({0}),
            behavior_factory=lambda w, pid: ScriptedBehavior(
                w, pid, script_builder=script
            ),
        )
        for tc in tcs.values():
            assert not tc.trusted

    def test_late_injection_without_signatures_is_rejected(self):
        # A chain arriving in round k needs >= k distinct signatures;
        # a bare 1-signature chain delivered in the last window fails.
        from repro.adversary.behaviors import ScriptStep, ScriptedBehavior

        def script(behavior):
            chain = behavior.signer.sign(("ds-val", ("tc", 0), 0, "late"))
            # Arrives during the final lock-step window (after boundary 3).
            return [
                ScriptStep(
                    time=0.0, recipient=pid,
                    payload=(DS_MSG, ("tc", 0), chain),
                    delay=3.5 * BIG_DELTA,
                )
                for pid in range(1, 6)
            ]

        tcs = run_tc(
            6, 4, sender=0, value=None,
            byzantine=frozenset({0}),
            behavior_factory=lambda w, pid: ScriptedBehavior(
                w, pid, script_builder=script
            ),
        )
        for tc in tcs.values():
            assert not tc.trusted
            assert tc.delivered is None
