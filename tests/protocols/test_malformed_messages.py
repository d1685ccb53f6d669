"""One Byzantine party must not abort the simulation with a malformed
message: honest handlers check type and arity before they unpack.

Each probe is multicast at start by a corrupted party holding its own
valid signer.  A handler that unpacks first raises out of ``World.run()``;
a correct one drops the message, and every honest party still commits
the broadcaster's value.  The controls were already safe before the
shape checks were added and pin that the probes, not the harness, are
what used to fail.
"""
from __future__ import annotations

import pytest

from repro.adversary.behaviors import ScriptedBehavior, ScriptStep
from repro.crypto.messages import digest
from repro.crypto.signatures import Signature, SignedPayload
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync
from repro.protocols.psync.certificates import make_leader_pair
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.protocols.sync.bb_delta_2delta import BbDelta2Delta
from repro.protocols.sync.bb_delta_delta_n3 import BbDeltaDeltaN3
from repro.sim.delays import FixedDelay
from repro.sim.runner import World, run_broadcast

#: protocol -> (n, f); the corrupted party is always ``n - 1``.
SIZES = {
    PbftPsync: (4, 1),
    FabPsync: (6, 1),
    PsyncVbb5f1: (4, 1),
    Brb2Round: (4, 1),
    Bb2Delta: (4, 1),
    BbDelta2Delta: (4, 1),
    BbDeltaDeltaN3: (4, 1),
    BbDelta15Delta: (4, 1),
}


def signed(body):
    return lambda signer: signer.sign(body)


def raw(payload):
    return lambda signer: payload


#: (protocol, payload builder): every one raised out of ``World.run()``.
PROBES = [
    (PbftPsync, signed(("pbft-propose", "x"))),
    (PbftPsync, signed(("pbft-prepare", "x"))),
    (PbftPsync, raw(("pbft-commits",))),
    (PbftPsync, raw(("pbft-viewchanges", 3))),
    (FabPsync, signed(("fab-propose",))),
    (FabPsync, raw(("fab-votes",))),
    (PsyncVbb5f1, signed(("propose", "x"))),
    (PsyncVbb5f1, raw(("votes",))),
    (PsyncVbb5f1, raw(("vote",))),
    (PsyncVbb5f1, raw(("timeout", 1))),
    (PsyncVbb5f1, raw(("timeouts", 1, 7))),
    (Brb2Round, lambda signer: ("vote", signer.sign(("vote",)))),
    (Brb2Round, raw(("vote", "notsigned"))),
    (Brb2Round, raw(("vote-quorum", 5))),
    (Brb2Round, raw(())),
    # The sync BBs' quorum forwards go through the same absorber.
    (Bb2Delta, raw(("vote-quorum",))),
    (Bb2Delta, raw(("vote-quorum", 5))),
    (Bb2Delta, raw(("vote-quorum", ("notsigned",)))),
    (BbDelta2Delta, raw(("vote2d-batch",))),
    (BbDelta2Delta, raw(("vote2d-batch", 5))),
    (BbDelta2Delta, raw(("vote2d-batch", ("notsigned",)))),
    (BbDeltaDeltaN3, raw(("vote-quorum",))),
    (BbDeltaDeltaN3, raw(("vote-quorum", 5))),
    (BbDeltaDeltaN3, raw(("vote-quorum", ("notsigned",)))),
    (BbDelta15Delta, raw(("vote15-batch",))),
    (BbDelta15Delta, raw(("vote15-batch", 5))),
    (BbDelta15Delta, raw(("vote15-batch", ("notsigned",)))),
]

#: Malformed too, but handled by shape checks that predate the fix.
CONTROLS = [
    (FabPsync, signed(("fab-vote",))),
    (PbftPsync, signed(("pbft-commit",))),
    (PbftPsync, signed(("pbft-viewchange",))),
    (PsyncVbb5f1, signed(("status",))),
]


class _EchoSigner:
    """Stands in for a signer so a probe's id shows what gets signed."""

    @staticmethod
    def sign(body):
        return ("signed", body)


def _probe_id(case):
    cls, build = case
    return f"{cls.__name__}-{build(_EchoSigner)!r}"


@pytest.mark.parametrize("case", PROBES + CONTROLS, ids=_probe_id)
def test_malformed_message_is_dropped(case):
    cls, build = case
    n, f = SIZES[cls]
    corrupted = n - 1

    def behavior(world, pid):
        def script(agent):
            payload = build(agent.signer)
            return [
                ScriptStep(time=0.0, recipient=peer, payload=payload)
                for peer in range(n)
                if peer != pid
            ]

        return ScriptedBehavior(world, pid, script_builder=script)

    result = run_broadcast(
        n=n,
        f=f,
        party_factory=cls.factory(broadcaster=0, input_value="v"),
        delay_policy=FixedDelay(0.5),
        byzantine=frozenset({corrupted}),
        behavior_factory=behavior,
    )
    assert result.all_honest_committed()
    assert set(result.commits.values()) == {"v"}


def test_bb_2delta_drops_votes_for_none():
    """``None`` means "no proposal" (``parse_proposal``), so no honest
    party ever votes for it; a Byzantine ``<vote, None>`` is dropped like
    a malformed one — alone or inside a forwarded quorum, where it also
    sends the rest of the run down the per-vote path — never tallied."""
    n, f, corrupted = 4, 1, 3

    def behavior(world, pid):
        def script(agent):
            none_vote = agent.signer.sign(("vote", None))
            real_vote = agent.signer.sign(("vote", "v"))
            return [
                ScriptStep(time=0.0, recipient=peer, payload=payload)
                for payload in (
                    none_vote,
                    ("vote-quorum", (none_vote, real_vote)),
                )
                for peer in range(n)
                if peer != pid
            ]

        return ScriptedBehavior(world, pid, script_builder=script)

    world = World(
        n=n, f=f, delay_policy=FixedDelay(0.5), byzantine=frozenset({corrupted})
    )
    world.populate(Bb2Delta.factory(broadcaster=0, input_value="v"), behavior)
    world.run()
    for party in world.honest_parties():
        assert party.committed_value == "v"
        assert list(party.votes.values()) == ["v"]
        # The well-formed vote behind the ``None`` one was still counted.
        assert corrupted in party.votes.signers("v")


def _forged(body, signers):
    """Votes over ``body`` claiming each of ``signers``, none issued."""
    return tuple(
        SignedPayload(body, Signature(signer, digest(body)))
        for signer in signers
    )


def _perf_world(cls):
    n, f = SIZES[cls]
    world = World(
        n=n, f=f, delay_policy=FixedDelay(0.5), instrumentation="perf"
    )
    world.populate(cls.factory(broadcaster=0, input_value="v"))
    return world


class TestForgedSignerInForwardedQuorum:
    """A forwarded quorum whose votes parse alike is staged as one batch,
    which shifts by each claimed signer before any signature is checked:
    a signer outside ``range(n)`` used to raise out of the staging
    (``negative shift count``).  It is a deviation: the per-vote path
    verifies each vote and drops every forgery."""

    def test_brb_vote_quorum(self):
        world = _perf_world(Brb2Round)
        party = world.agents[1]
        votes = _forged(("vote", "v"), (0, 1, 2, -1))
        party.deliver(3, ("vote-quorum", votes))
        assert party._votes.count("v") == 0
        assert not party.has_committed

    def test_vbb_votes(self):
        world = _perf_world(PsyncVbb5f1)
        pair = make_leader_pair(world.agents[0].signer, "v", 1)
        party = world.agents[1]
        entries = _forged(pair, (0, 1, 2, -1))
        party.deliver(3, ("votes", 1, entries))
        assert party._votes.count((1, "v")) == 0
        assert not party.has_committed
