"""Vote-level attacks on 2-round BRB that only the tests mount.

Both act once, on the broadcaster's proposal: one double-signs its vote
(the equivocation the quorum trackers' detection path exists to expose),
the other multicasts a full vote quorum with forged signatures (the
sharpest probe of deferred batch verification).  ``crash_and_equivocate``
mixes the double-voter with timed crashes in one fault budget.
"""
from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import ByzantineBehavior, crash_at, per_party
from repro.crypto.messages import digest
from repro.crypto.signatures import Signature, SignedPayload
from repro.protocols.brb_2round import PROPOSE, VOTE, VOTE_QUORUM, Brb2Round
from repro.sim.runner import BehaviorFactory
from repro.types import INF, PartyId


class _OnProposalBehavior(ByzantineBehavior):
    """Acts once, on the broadcaster's unsigned ``(PROPOSE, v)`` (the
    2-round-BRB wire format), and ignores everything else."""

    def __init__(self, world, party_id: PartyId, *, broadcaster: PartyId):
        super().__init__(world, party_id)
        self.broadcaster = broadcaster
        self._fired = False

    def deliver(self, sender: PartyId, payload: Any) -> None:
        if self._fired or sender != self.broadcaster:
            return
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == PROPOSE
        ):
            self._fired = True
            self.on_proposal(payload[1])

    def multicast_raw(self, payload: Any) -> None:
        for recipient in range(self.world.n):
            if recipient != self.id:
                self.send_raw(recipient, payload)


class EquivocatingVoterBehavior(_OnProposalBehavior):
    """A voter that signs *two different values* per voting round.

    On the broadcaster's proposal it multicasts a vote for the proposed
    value **and** a vote for ``second_value``.  Honest 2-round-BRB
    parties tally both votes (per-value buckets are independent), flag
    the signer, and still commit: with at most ``f`` equivocators the
    real value gathers its ``n - f`` quorum while the decoy tops out at
    ``f < n - f`` supporters.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        second_value: Any = "equivocation",
    ):
        super().__init__(world, party_id, broadcaster=broadcaster)
        self.second_value = second_value

    def on_proposal(self, value: Any) -> None:
        for voted in (value, self.second_value):
            self.multicast_raw(Brb2Round.make_vote(self.signer, voted))


#: ``equivocate_votes(broadcaster=, second_value="equivocation")`` —
#: behavior factory: every corrupted party double-votes per round.
equivocate_votes = EquivocatingVoterBehavior.factory


def crash_and_equivocate(
    *,
    broadcaster: PartyId,
    crashers: frozenset[PartyId] = frozenset(),
    crash_time: float = 0.0,
    recover: float = INF,
    second_value: Any = "equivocation",
) -> BehaviorFactory:
    """Mixed adversary: ``crashers`` crash, the rest equivocate.

    Corrupted ids in ``crashers`` get a timed crash (down from
    ``crash_time``); every other corrupted id double-votes like
    :func:`equivocate_votes`.
    """
    return per_party(
        dict.fromkeys(crashers, crash_at(at=crash_time, recover=recover)),
        equivocate_votes(broadcaster=broadcaster, second_value=second_value),
    )


class ForgedVoteQuorumBehavior(_OnProposalBehavior):
    """Multicasts a structurally perfect vote quorum with forged signatures.

    On the broadcaster's proposal, this behavior fabricates a full
    ``n - f`` vote quorum for ``forged_value`` — every vote claims an
    *honest* signer and carries the correct payload digest, but none of
    the signatures was ever issued, so each fails verification.  The
    batch is uniform and crosses the threshold at the staging step, so a
    receiver that committed the staged tally *before* paying for
    signatures would commit the forged value.  Correct receivers
    batch-verify at the crossing, reject, and fall back to the scalar
    loop, which drops every forged vote.

    ``mixed=True`` sends a two-value batch instead: the uniform-run gate
    rejects it outright and the scalar loop does all the work, pinning
    that both rejection routes end in the same state.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        forged_value: Any = "forged",
        mixed: bool = False,
    ):
        super().__init__(world, party_id, broadcaster=broadcaster)
        self.forged_value = forged_value
        self.mixed = mixed

    @staticmethod
    def _forged_vote(claimed_signer: PartyId, value: Any) -> SignedPayload:
        body = (VOTE, value)
        return SignedPayload(body, Signature(claimed_signer, digest(body)))

    def on_proposal(self, value: Any) -> None:
        world = self.world
        quorum = world.n - world.f
        honest = [p for p in range(world.n) if p not in world.byzantine]
        votes = [
            self._forged_vote(p, self.forged_value)
            for p in honest[:quorum]
        ]
        if self.mixed:
            votes[-1] = self._forged_vote(honest[quorum - 1], "decoy")
        self.multicast_raw((VOTE_QUORUM, tuple(votes)))


#: ``forge_vote_quorum(broadcaster=, forged_value="forged", mixed=False)``
#: — behavior factory: every corrupted party sends one forged quorum.
forge_vote_quorum = ForgedVoteQuorumBehavior.factory
