"""A payload is a value: a mutable one fails in its sender's own call.

The canonical encoder rejects a ``list``, a ``dict`` and a holder that is
not a frozen dataclass.  ``Network.send`` / ``multicast`` digest every
payload that has a copy to schedule, ``Signer.sign`` digests what it
signs and ``CertificateChecker.evaluate`` digests a valid certificate it
memoizes, so each raises ``TypeError`` inside the sender's call: no
receiver is handed the value and no signature is issued over it.
"""
import pytest

from repro.adversary.behaviors import HonestExceptBehavior
from repro.crypto.signatures import KeyRegistry
from repro.protocols.psync.certificates import (
    Certificate,
    CertificateChecker,
    make_leader_pair,
    make_value_entry,
)
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World

MUTABLE = ("x", [1])
REJECTED = "cannot canonically encode list"


class Recorder(Party):
    """An honest party that keeps what it receives."""

    def __init__(self, world, party_id):
        super().__init__(world, party_id)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


class MulticastsAList(Recorder):
    def on_start(self):
        self.multicast(MUTABLE)


class SendsAList(Recorder):
    def on_start(self):
        self.send(1, MUTABLE)


def _run(parties, behaviors=None, byzantine=()):
    world = World(
        n=4, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset(byzantine)
    )
    world.populate(parties, behaviors)
    with pytest.raises(TypeError, match=REJECTED) as excinfo:
        world.run(until=10.0)
    return world, excinfo


def _raised_in(excinfo, function: str) -> bool:
    """True iff a ``Network.<function>`` frame is on the raise's stack."""
    return any(
        entry.name == function and entry.path.name == "network.py"
        for entry in excinfo.traceback
    )


def _nothing_received(world) -> bool:
    return all(
        not getattr(agent, "received", ())
        for agent in world.agents.values()
    )


def test_honest_multicast_raises_inside_network_multicast():
    world, excinfo = _run(
        lambda w, pid: (MulticastsAList if pid == 0 else Recorder)(w, pid)
    )
    assert _raised_in(excinfo, "multicast")
    assert _nothing_received(world)


@pytest.mark.parametrize("brain", [MulticastsAList, SendsAList],
                         ids=["multicast", "send"])
def test_brain_raises_inside_network_send(brain):
    # A hosted brain's multicast is one host send per peer, so both of
    # its verbs reach the wire through ``Network.send``.
    world, excinfo = _run(
        Recorder,
        HonestExceptBehavior.factory(
            brains={HonestExceptBehavior.BRAIN: brain}
        ),
        byzantine={0},
    )
    assert _raised_in(excinfo, "send")
    assert _nothing_received(world)
    (hosted,) = world.agents[0].hosted.values()
    assert hosted.received == []


def test_sign_rejects_a_list_and_issues_nothing():
    registry = KeyRegistry(2)
    signer = registry.signer_for(0)
    with pytest.raises(TypeError, match=REJECTED):
        signer.sign(["v"])
    assert registry.take_fresh() == {}


def test_certificate_checker_rejects_a_list_of_entries():
    registry = KeyRegistry(4)
    signers = [registry.signer_for(i) for i in range(4)]
    checker = CertificateChecker(
        n=4, f=1, registry=registry, leader_of=lambda view: 0
    )
    pair = make_leader_pair(signers[0], "v", 1)
    entries = [make_value_entry(s, pair) for s in signers]
    # The same entries as a tuple make a valid certificate.
    assert checker.evaluate(Certificate(view=1, entries=tuple(entries))).valid
    mutable = Certificate(view=1, entries=entries)
    with pytest.raises(TypeError, match=REJECTED):
        checker.evaluate(mutable)
    assert checker._valid_cache.get(mutable) is None
