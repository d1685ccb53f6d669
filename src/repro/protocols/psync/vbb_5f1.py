"""The (5f-1)-psync-VBB protocol (paper Figure 3).

Partially synchronous validated Byzantine broadcast with good-case latency
of **2 rounds** and optimal resilience ``n >= 5f - 1`` — the paper's main
partial-synchrony upper bound (Theorem 2, part 1).  It follows the PBFT
view framework but commits after a single round of voting; the resilience
improvement over FaB's ``n >= 5f + 1`` comes from detecting leader
equivocation during view change (certificate condition (2) of Figure 2).

Protocol steps (quorum ``q = n - f``; ``q = 4f - 1`` at ``n = 5f - 1``):

1. **Propose.**  Leader ``L_w`` sends ``<propose, <v, w>_{L_w}, S>_{L_w}``.
   In view 1 the proposal is the broadcaster's input and ``S = BOTTOM``.
2. **Vote.**  On the first valid proposal of the current view, if the
   justification ``S`` checks out, multicast the countersigned pair
   ``<vote, <v, w>_{L_w, i}>_i``.
3. **Commit.**  On ``q`` distinct vote entries for the same ``v``,
   forward them to everyone, commit ``v`` (and, single-shot, terminate).
4. **Timeout.**  If not committed within ``4 * Delta`` of entering view
   ``w``, stop voting in ``w`` and multicast a timeout carrying the voted
   pair (if voted) or a signed bottom pair.
5. **New view.**  On ``q`` valid timeouts of view ``w - 1`` that contain
   only one non-bottom leader-signed value — or ``q`` valid timeouts all
   from parties other than ``L_{w-1}`` (the equivocation case: wait for
   one more) — forward them, update the highest certificate if they form
   one that locks a value, enter view ``w``, and send ``L_w`` a status
   message with the highest certificate.
6. **Status.**  The new leader collects ``q`` status messages and
   re-proposes the locked value of the highest certificate (attaching the
   certificate if it is of view ``w - 1``, else the full status set).

A vote entry is handled in two halves, a parse that is the same at
every recipient and this party's tally and Step 3 crossing, so a folded
run of one vote is parsed once for all its recipients
(:meth:`PsyncVbb5f1.deliver_run`).
"""
from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.signatures import SignedPayload
from repro.protocols.psync.base import ViewParty
from repro.protocols.psync.certificates import (
    VAL,
    Certificate,
    CertificateChecker,
    make_bottom_entry,
    make_leader_pair,
    make_value_entry,
)
from repro.sim.process import Agent, walk_run, walk_vote_run
from repro.types import BOTTOM, PartyId, Value

PROPOSE = "propose"
VOTE = "vote"
VOTES = "votes"
TIMEOUT = "timeout"
TIMEOUTS = "timeouts"
STATUS = "status"


class PsyncVbb5f1(ViewParty):
    """One replica of the (5f-1)-psync-VBB protocol."""

    #: Overridable for experiments probing the resilience boundary.
    RESILIENCE = "5f-1"

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        # All parties of one world share the content-keyed valid-verdict
        # memo (same registry, same leader schedule, same validity
        # predicate), so a certificate re-built by another party hits.
        self.checker = CertificateChecker(
            n=self.n,
            f=self.f,
            registry=self.registry,
            leader_of=self.leader_of,
            external_validity=self.external_validity,
            valid_memo=world.shared_memo("vbb-valid-certs"),
        )
        # Entry-key parse cache, shared by every party of the world (one
        # leader schedule, one validity predicate): a quorum forward's
        # entries are the same objects at every recipient, so the n-th
        # parse of the staged run is an identity hit per entry.
        # Positive verdicts only — a failed parse can flip to a pass once
        # the embedded pair's signature lands in the append-only issued
        # set, so negatives are never cached.  ``None`` (no cache) for a
        # hosted instance, which must not pool parses with the world's.
        self._entry_keys = world.shared_identity_memo("vbb-entry-keys")
        self.highest_cert = Certificate.genesis()
        # Quorum accounting: commit votes are tallied per (view, value)
        # with the quorum-forward message memoized world-wide and the
        # vote entries themselves in the world-shared store (reads are
        # mask-derived views, so only storage is shared); timeout
        # entries and status messages are tallied per view (first entry
        # per contributor wins, as before) and keep per-party buckets —
        # their consumers read arrival-ordered ``entry_pairs``.
        self._votes = self.quorum_tracker("vbb-votes", shared_entries=True)
        self._timeout_entries = self.quorum_tracker()
        self._statuses = self.quorum_tracker()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _propose_initial(self) -> None:
        pair = make_leader_pair(self.signer, self.input_value, 1)
        self.multicast(self.signer.sign((PROPOSE, pair, BOTTOM)))

    @classmethod
    def deliver_run(
        cls,
        parties: Sequence[Agent | None],
        sender: PartyId,
        recipients: Sequence[PartyId],
        payload: Any,
    ) -> int:
        """A folded run of one payload, for a world of this exact class:
        a ``(VOTE, entry)`` is parsed once and tallied at each recipient,
        each followed by :meth:`deliver`'s leader check
        (:func:`~repro.sim.process.walk_vote_run`);
        anything else goes to each live recipient's ``deliver``
        (:func:`~repro.sim.process.walk_run`)."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == VOTE
        ):
            return walk_vote_run(
                parties, recipients, payload[1], cls._parse_value_entry,
                cls._tally_vote, cls._propose_if_leader,
            )
        return walk_run(parties, sender, recipients, payload)

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if isinstance(payload, SignedPayload):
            body = payload.payload
            if isinstance(body, tuple) and body and body[0] == PROPOSE:
                self._on_proposal(payload)
            elif isinstance(body, tuple) and body and body[0] == STATUS:
                self._on_status(payload)
            return
        if not isinstance(payload, tuple) or not payload:
            return
        kind = payload[0]
        if kind == VOTE:
            if len(payload) == 2:
                self._on_vote_entry(payload[1])
        elif len(payload) == 3:  # (kind, view, entry or entries)
            _, view, body = payload
            if kind == TIMEOUT:
                self._on_timeout_entry(view, body)
            elif isinstance(body, tuple):
                if kind == VOTES:
                    self._on_vote_run(body)
                elif kind == TIMEOUTS:
                    for entry in body:
                        self._on_timeout_entry(view, entry)

    # ------------------------------------------------------------------ #
    # step 1 + 2: propose and vote
    # ------------------------------------------------------------------ #

    def _on_proposal(self, proposal: SignedPayload) -> None:
        view = self._proposal_view(proposal)
        if view is None:
            return
        if view > self.current_view:
            self._pending_proposals.setdefault(view, proposal)
        elif view == self.current_view:
            self._maybe_vote(proposal)

    def _replay_proposal(self, proposal: SignedPayload) -> None:
        self._maybe_vote(proposal)  # its view was checked when buffered

    def _proposal_view(self, proposal: SignedPayload) -> int | None:
        """Extract and sanity-check the view of a proposal message."""
        if not self.verify(proposal):
            return None
        body = proposal.payload
        if not (isinstance(body, tuple) and len(body) == 3):
            return None
        pair = body[1]
        if not isinstance(pair, SignedPayload) or not self.verify(pair):
            return None
        inner = pair.payload
        if not (isinstance(inner, tuple) and len(inner) == 3 and inner[0] == VAL):
            return None
        view = inner[2]
        if not isinstance(view, int) or view < 1:
            return None
        if proposal.signer != self.leader_of(view):
            return None
        if pair.signer != self.leader_of(view):
            return None
        return view

    def _maybe_vote(self, proposal: SignedPayload) -> None:
        view = self.current_view
        if view in self._voted or view in self._timed_out:
            return
        _, pair, justification = proposal.payload
        _, value, _ = pair.payload
        if value is BOTTOM or not self.external_validity(value):
            return
        if not self._justified(view, value, justification):
            return
        entry = make_value_entry(self.signer, pair)
        self._voted[view] = entry
        self.multicast((VOTE, entry))

    def _justified(self, view: int, value: Value, justification) -> bool:
        """The three vote conditions of Step 2."""
        if view == 1:
            return True
        if isinstance(justification, Certificate):
            if justification.view != view - 1:
                return False
            status = self.checker.evaluate(justification)
            return status.locks(value, self.external_validity)
        if isinstance(justification, tuple):
            certs = self._valid_status_certs(view - 1, justification)
            if certs is None:
                return False
            highest_view = max(cert.view for cert in certs.values())
            for cert in certs.values():
                if cert.view != highest_view:
                    continue
                status = self.checker.evaluate(cert)
                if status.locks(value, self.external_validity):
                    return True
        return False

    def _valid_status_certs(
        self, status_view: int, statuses: tuple
    ) -> dict[PartyId, Certificate] | None:
        """Validate a set of status messages of ``status_view``.

        Returns contributor -> certificate when there are at least ``q``
        valid statuses from distinct parties, each carrying a valid
        certificate of view <= status_view that locks some non-bottom
        value (the genesis certificate qualifies: it locks any externally
        valid value).  Otherwise ``None``.
        """
        certs: dict[PartyId, Certificate] = {}
        for signed in statuses:
            if not isinstance(signed, SignedPayload) or not self.verify(signed):
                continue
            body = signed.payload
            if not (
                isinstance(body, tuple)
                and len(body) == 3
                and body[0] == STATUS
                and body[1] == status_view
                and isinstance(body[2], Certificate)
            ):
                continue
            cert = body[2]
            if cert.view > status_view:
                continue
            status = self.checker.evaluate(cert)
            if not status.valid:
                continue
            if status.locked_value is None and not status.locks_any:
                continue
            certs.setdefault(signed.signer, cert)
        if len(certs) < self.quorum:
            return None
        return certs

    # ------------------------------------------------------------------ #
    # step 3: commit
    # ------------------------------------------------------------------ #

    def _on_vote_entry(self, entry: SignedPayload) -> None:
        key = self._parse_value_entry(entry)
        if key is not None:
            self._tally_vote(key, entry)

    def _tally_vote(self, key: tuple[int, Value], entry: SignedPayload) -> None:
        count = self._votes.add(key, entry.signer, entry)
        # The equality test fires exactly at the quorum crossing, so the
        # sorted vote quorum is materialized (and shared world-wide) once.
        if count == self.quorum and not self.has_committed:
            self._commit_on_quorum(key)

    def _on_vote_run(self, entries: tuple) -> None:
        """A forwarded ``VOTES`` quorum: one staged batch, outer entry
        signatures deferred to the crossing (the embedded leader pair is
        verified once per shared object by the parse); else per entry."""
        run = self.stage_vote_run(
            self._votes, entries, self._parse_entry_body,
            threshold=self.quorum,
        )
        if run is None:
            for entry in entries:
                self._on_vote_entry(entry)
            return
        key, staged = run
        self._votes.commit_staged(staged)
        self._commit_on_quorum(key, staged.crossing_mask)

    def _commit_on_quorum(
        self, key: tuple[int, Value], mask: int | None = None
    ) -> None:
        """The crossing action: forward the quorum, commit, terminate.

        ``mask`` pins the forwarded supporter set: the scalar path omits
        it (its current mask *is* the crossing mask), a staged run passes
        its crossing mask so an oversize run still forwards ``n - f``.
        """
        view, value = key
        self.multicast(
            self._votes.quorum_payload(
                key, lambda q: (VOTES, view, q), mask=mask
            ),
            include_self=False,
        )
        self.commit(value)
        self.terminate()

    def _parse_value_entry(
        self, entry: SignedPayload
    ) -> tuple[int, Value] | None:
        """Validate a countersigned leader pair; return (view, value).

        Reads only the entry, the world's PKI and memo and the world's
        leader schedule and validity predicate, so every recipient of
        one entry object gets the same answer (and a pass stays a pass).
        """
        if not isinstance(entry, SignedPayload) or not self.verify(entry):
            return None
        return self._parse_entry_body(entry)

    def _parse_entry_body(
        self, entry: SignedPayload
    ) -> tuple[int, Value] | None:
        """:meth:`_parse_value_entry` sans the outer entry signature.

        Successful parses are memoized per entry *object* in the
        world-scoped cache (the batched ``VOTES`` path re-parses every
        entry of a forwarded quorum at every recipient); failures are
        recomputed — see the cache's construction comment.
        """
        memo = self._entry_keys
        if memo is not None:
            hit = memo.get(entry)
            if hit is not None:
                return hit
        pair = entry.payload
        if not isinstance(pair, SignedPayload) or not self.verify(pair):
            return None
        inner = pair.payload
        if not (isinstance(inner, tuple) and len(inner) == 3 and inner[0] == VAL):
            return None
        _, value, view = inner
        if value is BOTTOM or not isinstance(view, int) or view < 1:
            return None
        if pair.signer != self.leader_of(view):
            return None
        if not self.external_validity(value):
            return None
        if memo is not None:
            memo.put(entry, (view, value))
        return view, value

    # ------------------------------------------------------------------ #
    # step 4: timeout
    # ------------------------------------------------------------------ #

    def _timeout_message(self, view: int) -> tuple:
        """The voted pair of ``view`` if voted, else a signed bottom pair."""
        entry = self._voted.get(view)
        if entry is None:
            entry = make_bottom_entry(
                self.signer,
                view,
                pair=self.shared_payload((VAL, BOTTOM, view)),
            )
        return (TIMEOUT, view, entry)

    # ------------------------------------------------------------------ #
    # step 5: new view
    # ------------------------------------------------------------------ #

    def _on_timeout_entry(self, view: int, entry: SignedPayload) -> None:
        if not isinstance(view, int) or view < 1:
            return
        parsed = self.checker.parse_entry(entry, view)
        if parsed is None:
            return
        self._timeout_entries.add(view, parsed.contributor, entry)
        if not self._may_advance(view):
            return
        subset = self._new_view_trigger(view)
        if subset is None:
            return
        # ``_advance`` spelled out: Step 5 updates the highest certificate
        # and sends this party's own timeout between forward and entry.
        self._advanced_past.add(view)
        self.multicast((TIMEOUTS, view, tuple(subset)), include_self=False)
        cert = Certificate(view=view, entries=tuple(subset))
        status = self.checker.evaluate(cert)
        if (
            status.valid
            and status.locked_value is not None
            and cert.view > self.highest_cert.view
        ):
            self.highest_cert = cert
        self._do_timeout(view)
        self._enter_view(view + 1)

    def _new_view_trigger(self, view: int) -> list[SignedPayload] | None:
        """Check the two Step 5 conditions; return the triggering subset."""
        if self._timeout_entries.count(view) < self.quorum:
            return None
        bucket = dict(self._timeout_entries.entry_pairs(view))
        leader = self.leader_of(view)
        parsed = {
            pid: self.checker.parse_entry(entry, view)
            for pid, entry in bucket.items()
        }
        values = {p.value for p in parsed.values() if not p.is_bottom}
        bottoms = [
            bucket[pid] for pid, p in parsed.items() if p.is_bottom
        ]
        # Condition (a): a q-subset containing only one non-bottom value.
        for value in values or {None}:
            chosen = [
                bucket[pid]
                for pid, p in parsed.items()
                if p.is_bottom or p.value == value
            ]
            if len(chosen) >= self.quorum:
                return chosen
        if not values and len(bottoms) >= self.quorum:
            return bottoms
        # Condition (b): q timeouts all from parties other than the leader.
        non_leader = [
            bucket[pid] for pid in parsed if pid != leader
        ]
        if len(non_leader) >= self.quorum:
            return non_leader
        return None

    def _on_enter_view(self, view: int) -> None:
        status_msg = self.signer.sign(
            self.shared_payload((STATUS, view - 1, self.highest_cert))
        )
        self.send(self.leader_of(view), status_msg)

    # ------------------------------------------------------------------ #
    # step 6: status (new leader proposes)
    # ------------------------------------------------------------------ #

    def _on_status(self, signed: SignedPayload) -> None:
        body = signed.payload
        if not (isinstance(body, tuple) and len(body) == 3):
            return
        _, prev_view, cert = body
        if not isinstance(prev_view, int) or not isinstance(cert, Certificate):
            return
        view = prev_view + 1
        if self.leader_of(view) != self.id:
            return
        self._statuses.add(prev_view, signed.signer, signed)
        self._maybe_propose(view)

    def _maybe_propose(self, view: int) -> None:
        if view in self._proposed_in or self.current_view != view:
            return
        statuses = tuple(self._statuses.entries(view - 1))
        certs = self._valid_status_certs(view - 1, statuses)
        if certs is None:
            return
        self._proposed_in.add(view)
        value, justification = self._choose_proposal(view, certs, statuses)
        pair = make_leader_pair(self.signer, value, view)
        proposal = self.signer.sign((PROPOSE, pair, justification))
        self.multicast(proposal)

    def _choose_proposal(
        self,
        view: int,
        certs: dict[PartyId, Certificate],
        statuses: tuple,
    ) -> tuple[Value, Any]:
        """Step 6: pick the proposal value and its justification."""
        # Case 1: some status carries a valid certificate of view w - 1.
        for cert in certs.values():
            if cert.view == view - 1:
                status = self.checker.evaluate(cert)
                if status.locked_value is not None:
                    return status.locked_value, cert
        # Case 2: propose what the highest certificate locks.
        highest_view = max(cert.view for cert in certs.values())
        for cert in certs.values():
            if cert.view != highest_view:
                continue
            status = self.checker.evaluate(cert)
            if status.locked_value is not None:
                return status.locked_value, statuses
        # Highest certificates lock "any" (genesis): free choice.
        return self._own_value(), statuses

    # ------------------------------------------------------------------ #
    # re-check proposals when the view advances past buffered ones
    # ------------------------------------------------------------------ #

    def deliver(self, sender: PartyId, payload: Any) -> None:
        super().deliver(sender, payload)
        self._propose_if_leader()

    def _propose_if_leader(self) -> None:
        # A leader may have buffered statuses before entering its view.
        if self.leads_current_view and not self.terminated:
            self._maybe_propose(self.current_view)
