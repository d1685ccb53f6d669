"""(Delta+2delta)-BB: the prior state of the art the paper improves on.

From Abraham-Nayak-Ren-Xiang [4] ("Byzantine Agreement, Broadcast and
State Machine Replication with Near-optimal Good-Case Latency"), sketched
in the paper's Figure 8: before voting, wait a full ``Delta`` equivocation
window after receiving the proposal, so no two honest parties ever vote
for different values; commit on ``f + 1`` votes.  Good-case latency
``delta + Delta + delta = Delta + 2*delta`` with ``O(n^2)`` messages —
0.5*delta worse than the optimum of Figure 9, but practical.  ``f < n/2``,
unsynchronized start.
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.protocols.sync.base import SyncBroadcastParty
from repro.types import PartyId, Value, validate_resilience

VOTE = "vote2d"
VOTE_BATCH = "vote2d-batch"


class BbDelta2Delta(SyncBroadcastParty):
    """One party of the (Delta+2delta)-BB baseline."""

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="f<n/2")
        self.direct_rcv = False
        self.t_prop: float | None = None
        self._forwarded: set[Value] = set()

    @property
    def commit_window(self) -> float:
        """Commit only when the quorum formed within 3*Delta of t_prop.

        3*Delta covers the worst good case (the broadcaster itself sees
        t_prop = 0 and the last votes at Delta + 2*delta <= 3*Delta) while
        still leaving time for the forwarded quorum to reach and lock all
        honest parties before the BA at 6.5*Delta + 2*sigma.
        """
        return 3 * self.big_delta

    @property
    def ba_time(self) -> float:
        return 6.5 * self.big_delta + 2 * self.sigma

    def on_start(self) -> None:
        self.at_local_time(self.ba_time, self.invoke_ba)
        if self.is_broadcaster:
            self.multicast(self.make_proposal())

    def on_protocol_message(self, sender: PartyId, payload: Any) -> None:
        value = self.parse_proposal(payload)
        if value is not None:
            self.note_broadcaster_value(value)
            self._on_proposal(sender, value, payload)
            return
        if isinstance(payload, SignedPayload):
            self._on_vote(payload)
            return
        self.absorb_forward(
            payload, VOTE_BATCH, threshold=self.f + 1,
            on_crossed=self._on_votes_crossed,
        )

    def _on_proposal(
        self, sender: PartyId, value: Value, proposal: SignedPayload
    ) -> None:
        if self.t_prop is not None:
            return
        self.t_prop = self.local_time()
        self.multicast(proposal, include_self=False)
        if (
            sender == self.broadcaster
            and self.t_prop <= self.big_delta + self.sigma
        ):
            self.direct_rcv = True
        self.at_local_time(
            self.t_prop + self.big_delta,
            lambda p=proposal: self._send_vote(p),
        )

    def _send_vote(self, proposal: SignedPayload) -> None:
        if self.equivocation_detected_at is not None:
            return
        self.multicast(
            self.signer.sign(self.shared_payload((VOTE, proposal)))
        )

    def _vote_key(self, vote: SignedPayload) -> Value | None:
        """Tally key (the broadcaster's value) of a structurally valid vote.

        The outer vote signature is *not* checked here — a staged run
        defers it to the threshold crossing (the embedded proposal is
        verified, once per shared object, by ``parse_proposal``).
        """
        body = vote.payload
        if isinstance(body, tuple) and len(body) == 2 and body[0] == VOTE:
            return self.parse_proposal(body[1])
        return None

    def _on_vote(self, vote: SignedPayload) -> None:
        if not isinstance(vote, SignedPayload) or not self.verify(vote):
            return
        value = self._vote_key(vote)
        if value is None:
            return
        self.note_broadcaster_value(value)
        if self.votes.add(value, vote.signer, vote) == self.f + 1:
            self._on_quorum(value)

    def _on_votes_crossed(self, value: Value, mask: int) -> None:
        self.note_broadcaster_value(value)  # votes embed the proposal
        self._on_quorum(value, mask)

    def _on_quorum(self, value: Value, mask: int | None = None) -> None:
        if value not in self._forwarded:
            self._forwarded.add(value)
            witness = self.f + 1
            self.multicast(
                self.votes.quorum_payload(
                    value, lambda q: (VOTE_BATCH, q[:witness]), mask=mask
                ),
                include_self=False,
            )
        if self.t_prop is None:
            return
        # Locking is safe whenever a quorum exists: the Delta equivocation
        # wait before voting guarantees no two honest parties vote for
        # different values, so only one value can ever reach f + 1 votes.
        self.lock = value
        elapsed = self.local_time() - self.t_prop
        if (
            elapsed <= self.commit_window
            and self.direct_rcv
            and self.equivocation_detected_at is None
            and not self.has_committed
        ):
            self.commit(value)
