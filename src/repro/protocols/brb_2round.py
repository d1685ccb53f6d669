"""2-round-BRB (paper Figure 1): asynchronous BRB with ``n >= 3f+1``.

    (1) Propose.  The designated broadcaster L with input v sends
        <propose, v> to all parties.
    (2) Vote.  When receiving the first proposal <propose, v> from the
        broadcaster, send a vote for v to all parties as <vote, v>_i.
    (3) Commit.  When receiving n - f signed vote messages for v, forward
        these vote messages to all other parties, commit v and terminate.

Good-case latency: 2 asynchronous rounds (optimal, Theorems 4-5).  The
quorum-intersection argument gives agreement; forwarding the vote quorum
gives BRB termination.

A vote is handled in two halves, a parse that is the same at every
recipient and this party's tally and Step 3 crossing, so a folded run of
one vote is parsed once for all its recipients
(:meth:`Brb2Round.deliver_run`).
"""
from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.signatures import SignedPayload
from repro.protocols.base import BroadcastParty
from repro.protocols.quorum import commit_quorum
from repro.sim.process import Agent, walk_run, walk_vote_run
from repro.types import PartyId, Value, validate_resilience

PROPOSE = "propose"
VOTE = "vote"
VOTE_QUORUM = "vote-quorum"


def _vote_quorum_message(quorum: tuple) -> tuple:
    return (VOTE_QUORUM, quorum)


def _vote_value(vote: SignedPayload) -> Value | None:
    """The value a structurally valid ``<vote, v>_i`` votes for, else
    ``None`` (outer signature not checked)."""
    try:
        tag, value = vote.payload
    except (TypeError, ValueError):
        return None
    return value if tag == VOTE else None


class Brb2Round(BroadcastParty):
    """One party of the 2-round-BRB protocol."""

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="3f+1")
        self.quorum = commit_quorum(self.n, self.f)
        self._voted = False
        # Commit quorum (n - f) accounting; equivocation detection is on
        # so Byzantine double-voters surface in the run's counters.
        # Vote payloads live in the world-shared entry store (a valid
        # vote's content is determined by (value, signer), and this
        # tracker's reads are mask-derived views) — per-world instead of
        # per-party storage, the O(n^2) -> O(n) trade that makes
        # n >= 10001 worlds fit in memory.
        self._votes = self.quorum_tracker(
            "brb2-votes", detect_equivocation=True, shared_entries=True
        )
        # The parse of a vote object, shared by every party of the world:
        # a per-copy vote parsed by a party other than its signer is one
        # identity probe after the first.  Passes only — a failed parse
        # can still become a pass (see ``_parse_vote``).  ``None`` for a
        # hosted party, which parses on its own.
        self._vote_parses = world.shared_identity_memo("brb2-vote-parses")

    # ------------------------------------------------------------------ #
    # message construction (classmethods so adversaries can reuse them)
    # ------------------------------------------------------------------ #

    @staticmethod
    def make_proposal(value: Value) -> tuple:
        return (PROPOSE, value)

    @staticmethod
    def make_vote(signer, value: Value, body: tuple | None = None) -> tuple:
        """Signed vote for ``value``; ``body`` lets honest parties pass a
        world-shared ``(VOTE, value)`` core so all n votes sign one
        object (one digest instead of n equal encodings)."""
        return (VOTE, signer.sign(body if body is not None else (VOTE, value)))

    # ------------------------------------------------------------------ #
    # protocol steps
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        if self.is_broadcaster:
            # Step 1: Propose.
            self.multicast(self.make_proposal(self.input_value))

    @classmethod
    def deliver_run(
        cls,
        parties: Sequence[Agent | None],
        sender: PartyId,
        recipients: Sequence[PartyId],
        payload: Any,
    ) -> int:
        """A folded run of one payload, for a world of this exact class:
        a vote is parsed once and tallied at each recipient
        (:func:`~repro.sim.process.walk_vote_run`);
        anything else goes to each live recipient's ``deliver``
        (:func:`~repro.sim.process.walk_run`)."""
        try:
            kind, body = payload
        except (TypeError, ValueError):
            kind = None
        if kind == VOTE:
            return walk_vote_run(
                parties, recipients, body, cls._parse_vote, cls._tally_vote
            )
        return walk_run(parties, sender, recipients, payload)

    def on_message(self, sender: PartyId, payload: Any) -> None:
        # Every 2-round-BRB message is a pair; anything else is dropped.
        # Shape is checked by the unpack itself (here and in ``_on_vote``):
        # on the n^2 vote deliveries an explicit isinstance/len test costs
        # 6 % of a run, a ``try`` that does not raise costs nothing.
        try:
            kind, body = payload
        except (TypeError, ValueError):
            return
        if kind == PROPOSE and sender == self.broadcaster:
            self._on_proposal(body)
        elif kind == VOTE:
            self._on_vote(body)
        elif kind == VOTE_QUORUM and isinstance(body, tuple):
            # A forwarded quorum: one staged batch with the signatures
            # deferred to the crossing, else vote by vote.
            run = self.stage_vote_run(
                self._votes, body, _vote_value, threshold=self.quorum
            )
            if run is None:
                for vote in body:
                    self._on_vote(vote)
            else:
                value, staged = run
                self._votes.commit_staged(staged)
                self._commit_on_quorum(value, staged.crossing_mask)

    def _on_proposal(self, value: Value) -> None:
        # Step 2: Vote for the first proposal only.
        if self._voted:
            return
        self._voted = True
        body = self.shared_payload((VOTE, value))
        self.multicast(self.make_vote(self.signer, value, body=body))

    def _on_vote(self, signed_vote) -> None:
        parses = self._vote_parses
        if parses is None:
            body = self._parse_vote(signed_vote)
        else:
            body = parses.get(signed_vote)
            if body is None:
                body = self._parse_vote(signed_vote)
                # The signer's own copy, delivered at the send instant,
                # is always the first parse, and in a folded world the
                # only per-copy one: memoizing it would keep an entry
                # nobody reads.  The next parse fills the memo.
                if body is not None and signed_vote.signer != self.id:
                    parses.put(signed_vote, body)
        if body is not None:
            self._tally_vote(body, signed_vote)

    def _parse_vote(self, signed_vote) -> tuple | None:
        """The ``(VOTE, v)`` body of a validly signed vote, else ``None``.

        Reads only the vote and the world's PKI, so every recipient of
        one vote object gets the same answer (and a pass stays a pass).
        """
        if not isinstance(signed_vote, SignedPayload) or not self.verify(
            signed_vote
        ):
            return None
        body = signed_vote.payload
        try:
            tag, _ = body
        except (TypeError, ValueError):
            return None
        return body if tag == VOTE else None

    def _tally_vote(self, body: tuple, signed_vote: SignedPayload) -> None:
        value = body[1]
        count = self._votes.add(value, signed_vote.signer, signed_vote)
        # Step 3: Commit on a quorum of n - f votes for the same value.
        # The equality test fires exactly at the threshold crossing (the
        # tally is monotonic and duplicates return 0), so the sorted
        # quorum tuple is built at most once — a late vote after the
        # commit can never rebuild or re-multicast it.
        if count == self.quorum and not self.has_committed:
            self._commit_on_quorum(value)

    def _commit_on_quorum(self, value: Value, mask: int | None = None) -> None:
        """The crossing action: forward the quorum, commit, terminate.

        ``mask`` pins the supporter set the forwarded message is built
        from; the scalar path omits it (its current mask *is* the
        crossing mask), a staged run passes its crossing mask so an
        oversize run still forwards exactly ``n - f`` votes.
        """
        self.multicast(
            self._votes.quorum_payload(
                value, _vote_quorum_message, mask=mask
            ),
            include_self=False,
        )
        self.commit(value)
        self.terminate()
