"""(Delta+delta)-n/3-BB (paper Figure 5): synchronous BB with ``f <= n/3``.

Good-case latency ``Delta + delta`` — optimal at ``f = n/3`` (Theorems 9
and 17).  Works under unsynchronized start.

    Initially lock = BOTTOM, sigma = Delta.
    (1) Propose.  Broadcaster sends <propose, v>_L to all.
    (2) Vote.  On the first valid proposal, multicast
        <vote, <propose, v>_L>_i and start a Delta vote-timer.
    (3) Commit.  When the vote-timer expires with no equivocation
        detected: upon n - f votes for v, forward them; if they arrived
        before local time 2*Delta + sigma, commit v, set lock = v and
        multicast <commit, v>_i.
    (4) Lock and BA.  At local time 3*Delta + 2*sigma: with one vote
        quorum, lock its value.  With quorums for two values, the quorum
        intersection F consists solely of double-voting Byzantine parties
        (|F| >= n - 2f = f at f = n/3, i.e. *all* of them are exposed), so
        any <commit, v>_j with j not in F is from an honest party: commit
        and lock v.  Then run BA on lock and commit its output if needed.

The exposure trick is the heart of this regime: at exactly ``f = n/3``,
double-voting reveals every Byzantine party, letting honest parties adopt
early commits safely.  Beyond ``n/3`` faults this breaks, and the bound
moves to ``Delta + 1.5*delta`` (unsynchronized start).
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.protocols.quorum import commit_quorum
from repro.protocols.sync.base import SyncBroadcastParty
from repro.types import PartyId, Value, validate_resilience

VOTE = "vote"
VOTE_QUORUM = "vote-quorum"
COMMIT_MSG = "commit"


class BbDeltaDeltaN3(SyncBroadcastParty):
    """One party of the (Delta+delta)-n/3-BB protocol."""

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="f<=n/3")
        self.quorum = commit_quorum(self.n, self.f)
        self._voted = False
        self._vote_timer_expired = False
        self._forwarded: set[Value] = set()
        self._commit_msgs = self.quorum_tracker()
        self._vote_quorum_times: dict[Value, float] = {}  # value -> local time

    @property
    def commit_deadline(self) -> float:
        return 2 * self.big_delta + self.sigma

    @property
    def lock_time(self) -> float:
        return 3 * self.big_delta + 2 * self.sigma

    # ------------------------------------------------------------------ #
    # steps 1 + 2
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        self.at_local_time(self.lock_time, self._lock_and_ba)
        if self.is_broadcaster:
            self.multicast(self.make_proposal())

    def on_protocol_message(self, sender: PartyId, payload: Any) -> None:
        value = self.parse_proposal(payload)
        if value is not None:
            self.note_broadcaster_value(value)
            self._on_proposal(value, payload)
            return
        if isinstance(payload, SignedPayload):
            body = payload.payload
            if isinstance(body, tuple) and body and body[0] == VOTE:
                self._on_vote(payload)
            elif isinstance(body, tuple) and body and body[0] == COMMIT_MSG:
                self._on_commit_msg(payload)
            return
        self.absorb_forward(
            payload, VOTE_QUORUM, threshold=self.quorum,
            on_crossed=self._on_votes_crossed,
        )

    def _on_proposal(self, value: Value, proposal: SignedPayload) -> None:
        if self._voted:
            return
        self._voted = True
        self.multicast(
            self.signer.sign(self.shared_payload((VOTE, proposal)))
        )
        self.after_local_delay(self.big_delta, self._vote_timer_fired)

    def _vote_timer_fired(self) -> None:
        self._vote_timer_expired = True
        self._try_commit()

    # ------------------------------------------------------------------ #
    # step 3
    # ------------------------------------------------------------------ #

    def _vote_key(self, vote: SignedPayload) -> Value | None:
        """Tally key (the broadcaster's value) of a structurally valid vote.

        The outer vote signature is *not* checked here — a staged run
        defers it to the quorum crossing (the embedded proposal is
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
        self.note_broadcaster_value(value)  # votes embed the proposal
        count = self.votes.add(value, vote.signer, vote)
        if (
            count >= self.quorum
            and value not in self._vote_quorum_times
        ):
            self._vote_quorum_times[value] = self.local_time()
        self._try_commit()

    def _on_votes_crossed(self, value: Value, mask: int) -> None:
        self.note_broadcaster_value(value)  # votes embed the proposal
        if value not in self._vote_quorum_times:
            self._vote_quorum_times[value] = self.local_time()
        self._try_commit(crossing=(value, mask))

    def _try_commit(
        self, crossing: tuple[Value, int] | None = None
    ) -> None:
        """Commit path: timer expired, no equivocation, quorum in time.

        ``crossing`` — a staged run's ``(value, crossing mask)`` —
        pins the forwarded supporter set when the forward fires at the
        crossing itself, so an oversize run forwards the same bytes
        the scalar crossing would.  Deferred forwards (timer fires
        later) use the then-current mask in both paths.
        """
        if not self._vote_timer_expired or self.has_committed:
            return
        if self.equivocation_detected_at is not None:
            return
        for value in self.votes.values():
            if self.votes.count(value) < self.quorum:
                continue
            if value not in self._forwarded:
                self._forwarded.add(value)
                mask = (
                    crossing[1]
                    if crossing is not None and crossing[0] == value
                    else None
                )
                self.multicast(
                    self.votes.quorum_payload(
                        value, lambda q: (VOTE_QUORUM, q), mask=mask
                    ),
                    include_self=False,
                )
            if self._vote_quorum_times.get(value, float("inf")) <= (
                self.commit_deadline
            ):
                self.lock = value
                self.commit(value)
                self.multicast(
                    self.signer.sign(self.shared_payload((COMMIT_MSG, value)))
                )
            return  # no equivocation => only one value can have votes here

    def _on_commit_msg(self, msg: SignedPayload) -> None:
        value = msg.payload[1]
        self._commit_msgs.add(value, msg.signer, msg)

    # ------------------------------------------------------------------ #
    # step 4
    # ------------------------------------------------------------------ #

    def _lock_and_ba(self) -> None:
        quorum_values = [
            value
            for value in self.votes.values()
            if self.votes.count(value) >= self.quorum
        ]
        if len(quorum_values) == 1:
            self.lock = quorum_values[0]
        elif len(quorum_values) >= 2:
            exposed = self._exposed_byzantine(quorum_values)
            for value in sorted(self._commit_msgs.values(), key=repr):
                honest_committers = [
                    signer
                    for signer in self._commit_msgs.signers(value)
                    if signer not in exposed
                ]
                if honest_committers:
                    self.lock = value
                    if not self.has_committed:
                        self.commit(value)
                    break
        self.invoke_ba()

    def _exposed_byzantine(self, quorum_values: list[Value]) -> set[PartyId]:
        """Intersection of two conflicting vote quorums: double voters."""
        first, second = quorum_values[0], quorum_values[1]
        return set(self.votes.signers(first)) & set(self.votes.signers(second))
