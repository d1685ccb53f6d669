"""2delta-BB (paper Figure 10): synchronous BB with ``f < n/3``.

Good-case latency ``2 * delta`` — optimal for this regime (Theorems 8 and
16).  Works under unsynchronized start (skew at most ``delta``; the
protocol conservatively uses ``sigma = Delta``).

    Initially lock = BOTTOM, sigma = Delta.
    (1) Propose.  Broadcaster sends <propose, v>_L to all.
    (2) Vote.  On the first valid proposal, multicast <vote, v>_i.
    (3) Commit.  On n - f signed votes for v at local time t, forward the
        votes and set lock = v.  If t <= 2*Delta + sigma, commit v.
    (4) Byzantine agreement.  At local time 3*Delta + 2*sigma, invoke BA
        with lock; commit its output if not yet committed.  Terminate.

Quorum intersection (n - 2f >= f + 1) prevents conflicting vote quorums,
so locks are unique and BA validity carries late parties to the same
value.
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.protocols.quorum import commit_quorum
from repro.protocols.sync.base import SyncBroadcastParty
from repro.types import PartyId, Value, validate_resilience

VOTE = "vote"
VOTE_QUORUM = "vote-quorum"


class Bb2Delta(SyncBroadcastParty):
    """One party of the 2delta-BB protocol."""

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="f<n/3")
        self.quorum = commit_quorum(self.n, self.f)
        self._voted = False
        self._forwarded: set[Value] = set()

    @property
    def commit_deadline(self) -> float:
        return 2 * self.big_delta + self.sigma

    @property
    def ba_time(self) -> float:
        return 3 * self.big_delta + 2 * self.sigma

    def on_start(self) -> None:
        self.at_local_time(self.ba_time, self.invoke_ba)
        if self.is_broadcaster:
            self.multicast(self.make_proposal())

    def on_protocol_message(self, sender: PartyId, payload: Any) -> None:
        value = self.parse_proposal(payload)
        if value is not None:
            self.note_broadcaster_value(value)
            self._on_proposal(value)
            return
        if isinstance(payload, SignedPayload):
            self._on_vote(payload)
            return
        self.absorb_forward(
            payload, VOTE_QUORUM, threshold=self.quorum,
            on_crossed=self._on_quorum,
        )

    def _on_proposal(self, value: Value) -> None:
        # Step 2: vote for the first valid proposal only.
        if self._voted:
            return
        self._voted = True
        self.multicast(self.signer.sign(self.shared_payload((VOTE, value))))

    def _vote_key(self, vote: SignedPayload) -> Value | None:
        """Tally key of a structurally valid vote (no outer verify).

        2delta-BB votes carry the bare value (no embedded proposal), so
        there is no broadcaster value to note.
        """
        body = vote.payload
        if isinstance(body, tuple) and len(body) == 2 and body[0] == VOTE:
            return body[1]
        return None

    def _on_vote(self, vote: SignedPayload) -> None:
        if not isinstance(vote, SignedPayload) or not self.verify(vote):
            return
        value = self._vote_key(vote)
        if value is None:
            return
        count = self.votes.add(value, vote.signer, vote)
        if count >= self.quorum and value not in self._forwarded:
            self._on_quorum(value)

    def _on_quorum(self, value: Value, mask: int | None = None) -> None:
        # Step 3: forward the quorum, lock, maybe commit.  ``mask`` pins
        # the supporter set at the threshold crossing for a staged run
        # (an oversize run forwards the same bytes the scalar crossing
        # would); scalar callers omit it — their current mask *is* the
        # crossing mask, thanks to the ``_forwarded`` guard.
        if value in self._forwarded:
            return
        self._forwarded.add(value)
        self.multicast(
            self.votes.quorum_payload(
                value, lambda q: (VOTE_QUORUM, q), mask=mask
            ),
            include_self=False,
        )
        self.lock = value
        if (
            self.local_time() <= self.commit_deadline
            and not self.has_committed
        ):
            self.commit(value)
