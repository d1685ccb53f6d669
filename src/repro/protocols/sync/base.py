"""Shared machinery for the synchronous BB protocols (Figures 5, 6, 9, 10).

All four protocols share the same skeleton:

* a signed proposal from the designated broadcaster,
* equivocation detection ("receives messages containing different values
  signed by the broadcaster"),
* a fall-back Byzantine agreement invoked at a fixed local time with the
  party's ``lock`` as input, whose output is committed by parties that
  did not commit early,
* the conservative in-protocol skew parameter ``sigma = Delta`` (the real
  skew is at most ``delta``, but ``delta`` is unknown to the protocol).

Crucially, the protocols never see the execution's actual delay bound
``delta`` — only ``Delta`` is a constructor parameter.
"""
from __future__ import annotations

from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.errors import ConfigurationError
from repro.protocols.ba import DolevStrongBa
from repro.protocols.base import BroadcastParty
from repro.types import BOTTOM, PartyId, Value

PROPOSE = "propose"


class SyncBroadcastParty(BroadcastParty):
    """Base class: proposal handling, equivocation detection, BA fallback."""

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        input_value: Value | None = None,
        big_delta: float = 1.0,
    ):
        super().__init__(
            world, party_id, broadcaster=broadcaster, input_value=input_value
        )
        if big_delta <= 0:
            raise ConfigurationError(f"Delta must be > 0, got {big_delta}")
        self.big_delta = big_delta
        #: The paper: "all parties set the parameter sigma = Delta in the
        #: protocol" because delta (and hence the true skew) is unknown.
        self.sigma = big_delta
        self.lock: Value = BOTTOM
        #: Countersigned-vote accounting shared by every sync BB: the
        #: subclasses differ only in the tally key (value, ``(d, value)``)
        #: and threshold, so one tracker per party serves them all.  The
        #: namespace is per protocol class: parties of one world and one
        #: protocol share quorum-forward messages, while two protocols
        #: with equal tally keys can never collide in the memo.
        self.votes = self.quorum_tracker(
            f"sync-votes:{type(self).__name__}"
        )
        self.broadcaster_values: dict[Value, float] = {}  # value -> first seen
        self.equivocation_detected_at: float | None = None
        self._ba = DolevStrongBa(
            self,
            tag=("ba", broadcaster),
            big_delta=big_delta,
            on_decide=self._on_ba_decide,
        )
        self._ba_invoked = False

    # ------------------------------------------------------------------ #
    # proposal plumbing
    # ------------------------------------------------------------------ #

    def make_proposal(self) -> SignedPayload:
        return self.signer.sign((PROPOSE, self.input_value))

    def parse_proposal(self, payload: Any) -> Value | None:
        """Return the proposed value if ``payload`` is a valid proposal."""
        if not isinstance(payload, SignedPayload) or not self.verify(payload):
            return None
        body = payload.payload
        if not (isinstance(body, tuple) and len(body) == 2 and body[0] == PROPOSE):
            return None
        if payload.signer != self.broadcaster:
            return None
        return body[1]

    # ------------------------------------------------------------------ #
    # equivocation detection
    # ------------------------------------------------------------------ #

    def note_broadcaster_value(self, value: Value) -> None:
        """Record a broadcaster-signed value; detect equivocation."""
        if value not in self.broadcaster_values:
            self.broadcaster_values[value] = self.local_time()
        if (
            len(self.broadcaster_values) >= 2
            and self.equivocation_detected_at is None
        ):
            self.equivocation_detected_at = self.local_time()
            self.on_equivocation_detected()

    def on_equivocation_detected(self) -> None:
        """Hook for protocols that react immediately to equivocation."""

    def no_equivocation_by(self, local_time: float) -> bool:
        """True iff no equivocation was detected at or before ``local_time``.

        Only meaningful once the local clock has passed ``local_time``
        (callers schedule their checks accordingly).
        """
        return (
            self.equivocation_detected_at is None
            or self.equivocation_detected_at > local_time
        )

    # ------------------------------------------------------------------ #
    # BA fallback
    # ------------------------------------------------------------------ #

    def invoke_ba(self) -> None:
        """Step "Byzantine agreement": feed the current lock into the BA."""
        if self._ba_invoked or self.terminated:
            return
        self._ba_invoked = True
        self._ba.start(self.lock)

    def _on_ba_decide(self, output: Value) -> None:
        if not self.has_committed:
            self.commit(output)
        self.terminate()

    # ------------------------------------------------------------------ #
    # message routing
    # ------------------------------------------------------------------ #

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if self._ba.handle(sender, payload):
            return
        self.on_protocol_message(sender, payload)

    def on_protocol_message(self, sender: PartyId, payload: Any) -> None:
        """Protocol hook: non-BA messages."""

    def absorb_forward(
        self, payload: Any, tag: str, *, threshold: int, on_crossed
    ) -> None:
        """A forwarded vote tuple ``(tag, votes)``; anything else is dropped.

        The votes are staged as one run (:meth:`Party.stage_vote_run`
        with the subclass's ``_vote_key``); a run that crosses
        ``threshold`` is committed to the tally and handed to
        ``on_crossed(key, crossing_mask)``, any other goes vote by vote
        through the subclass's ``_on_vote``.
        """
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == tag
            and isinstance(payload[1], tuple)
        ):
            return
        votes = payload[1]
        run = self.stage_vote_run(
            self.votes, votes, self._vote_key, threshold=threshold
        )
        if run is None:
            for vote in votes:
                self._on_vote(vote)
            return
        key, staged = run
        self.votes.commit_staged(staged)
        on_crossed(key, staged.crossing_mask)
