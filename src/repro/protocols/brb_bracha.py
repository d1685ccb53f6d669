"""Bracha's reliable broadcast (1987): the classic asynchronous baseline.

Unauthenticated, ``n >= 3f+1``, good-case latency 3 rounds — one round
worse than the authenticated optimum of Figure 1, which is exactly the gap
the paper's Section 7 highlights for the unauthenticated setting.

    (1) Propose.  Broadcaster sends <propose, v>.
    (2) Echo.  On the first proposal, send <echo, v> to all.
    (3) Ready.  On (n+f)/2 + 1 echoes for v, or f+1 readies for v,
        send <ready, v> to all (once).
    (4) Deliver.  On 2f+1 readies for v, commit v and terminate.

This protocol never stages a vote run (``Party.stage_vote_run``), by
design: every message carries exactly one unauthenticated echo/ready —
there is nothing to batch-verify and no multi-vote message whose run
could be absorbed in one tally.  Batched *delivery* still applies (a
multicast's equal-delay copies fold into one run event); only the vote
tally is inherently scalar here.
"""
from __future__ import annotations

import math
from typing import Any

from repro.protocols.base import BroadcastParty
from repro.protocols.quorum import honest_majority, honest_witness
from repro.types import PartyId, Value, validate_resilience

PROPOSE = "propose"
ECHO = "echo"
READY = "ready"


class BrachaBrb(BroadcastParty):
    """One party of Bracha's reliable broadcast."""

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        validate_resilience(self.n, self.f, requirement="3f+1")
        self._echoed = False
        self._readied = False
        # Unauthenticated tallies: the channel sender is the "signer",
        # and no payloads are retained (count-only fast path).
        self._echoes = self.quorum_tracker()
        self._readies = self.quorum_tracker()

    @property
    def echo_threshold(self) -> int:
        return math.floor((self.n + self.f) / 2) + 1

    @property
    def ready_amplify_threshold(self) -> int:
        return honest_witness(self.n, self.f)

    @property
    def deliver_threshold(self) -> int:
        return honest_majority(self.n, self.f)

    def on_start(self) -> None:
        if self.is_broadcaster:
            self.multicast((PROPOSE, self.input_value))

    def on_message(self, sender: PartyId, payload: Any) -> None:
        kind, value = payload
        if kind == PROPOSE and sender == self.broadcaster:
            self._on_proposal(value)
        elif kind == ECHO:
            self._on_echo(sender, value)
        elif kind == READY:
            self._on_ready(sender, value)

    def _on_proposal(self, value: Value) -> None:
        if self._echoed:
            return
        self._echoed = True
        # Shared core: all n echo tuples for v are one world-interned
        # object, so the network's order-key digest is an identity hit.
        self.multicast(self.shared_payload((ECHO, value)))

    def _on_echo(self, sender: PartyId, value: Value) -> None:
        # A duplicate echo returns 0 and skips the re-check, which is
        # safe: _send_ready is idempotent behind the _readied flag.
        if self._echoes.add(value, sender) >= self.echo_threshold:
            self._send_ready(value)

    def _on_ready(self, sender: PartyId, value: Value) -> None:
        count = self._readies.add(value, sender)
        if count >= self.ready_amplify_threshold:
            self._send_ready(value)
        if count >= self.deliver_threshold and not self.has_committed:
            self.commit(value)
            self.terminate()

    def _send_ready(self, value: Value) -> None:
        if self._readied:
            return
        self._readied = True
        self.multicast(self.shared_payload((READY, value)))
