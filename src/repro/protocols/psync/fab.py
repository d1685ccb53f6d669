"""FaB-style 2-round psync-VBB baseline: ``n >= 5f + 1`` (Martin-Alvisi).

The paper's Section 4.1 intuition: FaB commits after one round of voting
with ``n = 5f + 1`` because any ``n - f = 4f + 1`` view-change messages
contain at least ``2f + 1`` from honest parties that voted the committed
value — a majority of ``4f + 1`` that the next leader can re-propose.
With fewer parties the majority argument breaks, which is exactly the gap
the paper's (5f-1) protocol closes via equivocation detection.

Implemented as the simplified "report your latest vote" variant: view
changes carry the signed latest-voted value, and a value reported by at
least ``2f + 1`` parties (a majority of any quorum) must be re-proposed.

Good-case latency: 2 rounds (propose round 0, votes round 1, commit on
delivering the vote quorum).
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.protocols.psync.base import ViewChangeParty
from repro.protocols.quorum import QuorumTracker, honest_majority
from repro.types import PartyId, Value

PROPOSE = "fab-propose"
VOTE = "fab-vote"
VOTES = "fab-votes"
VIEWCHANGE = "fab-viewchange"
VIEWCHANGES = "fab-viewchanges"


class FabPsync(ViewChangeParty):
    """One replica of the simplified FaB protocol."""

    #: Overridable so lower-bound witnesses can instantiate the protocol
    #: below its designed resilience (Theorem 7 strawman).
    RESILIENCE = "5f+1"
    PROPOSE_TAG = PROPOSE
    VIEWCHANGE_TAG = VIEWCHANGE
    VIEWCHANGES_TAG = VIEWCHANGES

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        # Majority of any quorum of 4f+1.
        self.majority = honest_majority(self.n, self.f)
        # Quorum accounting per (view, value), arrival-ordered forwards.
        self._votes = self.quorum_tracker()

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if isinstance(payload, SignedPayload):
            body = payload.payload
            if not isinstance(body, tuple) or not body:
                return
            kind = body[0]
            if kind == PROPOSE:
                self._on_proposal(payload)
            elif kind == VOTE:
                self._on_vote(payload)
            elif kind == VIEWCHANGE:
                self._on_viewchange(payload)
        elif (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[1], tuple)
        ):
            if payload[0] == VOTES:
                for msg in payload[1]:
                    self._on_vote(msg)
            elif payload[0] == VIEWCHANGES:
                for msg in payload[1]:
                    self._on_viewchange(msg)

    # ------------------------------------------------------------------ #
    # propose / vote / commit
    # ------------------------------------------------------------------ #

    def _vote(self, view: int, value: Value) -> None:
        self.multicast(self.signer.sign((VOTE, value, view)))

    def _carried_value(self, vc_view: int, justification):
        """``(value,)`` reported by >= 2f+1 view-change messages, if any.

        Returns ``...`` for malformed justifications, ``None`` when no
        value reaches the majority threshold.
        """
        if not isinstance(justification, tuple):
            return ...
        # A transient tracker validates the set: one report per signer
        # (first wins, like the setdefault it replaces), tallied by the
        # reported value; ``None`` reports count toward the quorum but
        # never toward a majority value.
        reports = QuorumTracker(first_vote_only=True)
        contributors = 0
        for msg in justification:
            if self._viewchange_view(msg) != vc_view:
                continue
            if reports.add(msg.payload[2], msg.signer):
                contributors += 1
        if contributors < self.quorum:
            return ...
        for value, count in reports.value_counts().items():
            if value is not None and count >= self.majority:
                return (value,)
        return None

    def _on_vote(self, msg: SignedPayload) -> None:
        if not isinstance(msg, SignedPayload) or not self.verify(msg):
            return
        body = msg.payload
        if not (isinstance(body, tuple) and len(body) == 3 and body[0] == VOTE):
            return
        _, value, view = body
        if not self.external_validity(value):
            return
        count = self._votes.add((view, value), msg.signer, msg)
        if count >= self.quorum and not self.has_committed:
            self.multicast(
                (VOTES, tuple(self._votes.entries((view, value)))),
                include_self=False,
            )
            self.commit(value)
            self.terminate()

    def _viewchange_report(self) -> Value | None:
        # The latest vote: views only grow, so it is the last one.
        return self._voted[max(self._voted)] if self._voted else None
