"""Single-shot PBFT-style psync-VBB: 3 good-case rounds, ``n >= 3f+1``.

This is the paper's baseline for the regime ``3f + 1 <= n <= 5f - 2``
(Table 1: 3 rounds are necessary and sufficient; the upper bound "is tight
given the PBFT protocol [11]").  One view = pre-prepare (propose) +
prepare + commit; view change carries prepared certificates, and the new
leader re-proposes the value of the highest prepared certificate.

Good-case latency: propose (round 0) -> prepare (round 1) -> commit vote
(round 2) -> commit on delivering the commit-vote quorum, i.e. 3 rounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.signatures import SignedPayload
from repro.protocols.psync.base import ViewChangeParty
from repro.types import PartyId, Value

PROPOSE = "pbft-propose"
PREPARE = "pbft-prepare"
COMMIT = "pbft-commit"
COMMITS = "pbft-commits"
VIEWCHANGE = "pbft-viewchange"
VIEWCHANGES = "pbft-viewchanges"


@dataclass(frozen=True)
class PreparedCert:
    """A quorum of prepare signatures for ``(value, view)``."""

    value: Value
    view: int
    prepares: tuple[SignedPayload, ...]

    def _canonical_fields(self) -> tuple:
        return (self.value, self.view, self.prepares)


class PbftPsync(ViewChangeParty):
    """One replica of single-shot PBFT."""

    RESILIENCE = "3f+1"
    PROPOSE_TAG = PROPOSE
    VIEWCHANGE_TAG = VIEWCHANGE
    VIEWCHANGES_TAG = VIEWCHANGES

    def __init__(self, world, party_id: PartyId, **kwargs: Any):
        super().__init__(world, party_id, **kwargs)
        self.prepared: PreparedCert | None = None  # my lock
        self._sent_commit: set[int] = set()
        # Quorum accounting per (view, value) for prepares/commit votes.
        # Certificates and forwards use arrival-ordered entries, matching
        # the dict buckets they replace.
        self._prepares = self.quorum_tracker()
        self._commits = self.quorum_tracker()

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if isinstance(payload, SignedPayload):
            body = payload.payload
            if not isinstance(body, tuple) or not body:
                return
            kind = body[0]
            if kind == PROPOSE:
                self._on_proposal(payload)
            elif kind == PREPARE:
                self._on_prepare(payload)
            elif kind == COMMIT:
                self._on_commit_vote(payload)
            elif kind == VIEWCHANGE:
                self._on_viewchange(payload)
        elif (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[1], tuple)
        ):
            if payload[0] == COMMITS:
                for msg in payload[1]:
                    self._on_commit_vote(msg)
            elif payload[0] == VIEWCHANGES:
                for msg in payload[1]:
                    self._on_viewchange(msg)

    # ------------------------------------------------------------------ #
    # propose / prepare
    # ------------------------------------------------------------------ #

    def _vote(self, view: int, value: Value) -> None:
        self.multicast(self.signer.sign((PREPARE, value, view)))

    def _carried_value(self, vc_view: int, justification):
        """``(value,)`` of the highest valid prepared certificate in the set.

        Returns ``...`` (Ellipsis) when the justification is malformed,
        ``None`` when it is valid but contains no prepared certificate.
        """
        if not isinstance(justification, tuple):
            return ...
        seen: dict[PartyId, PreparedCert | None] = {}
        for msg in justification:
            if self._viewchange_view(msg) == vc_view:
                seen.setdefault(msg.signer, msg.payload[2])
        if len(seen) < self.quorum:
            return ...
        certs = [c for c in seen.values() if c is not None]
        if not certs:
            return None
        return (max(certs, key=lambda c: c.view).value,)

    def _prepared_cert_valid(self, cert: PreparedCert) -> bool:
        if not self.external_validity(cert.value):
            return False
        signers = set()
        for prepare in cert.prepares:
            if not isinstance(prepare, SignedPayload) or not self.verify(prepare):
                return False
            body = prepare.payload
            if body != (PREPARE, cert.value, cert.view):
                return False
            signers.add(prepare.signer)
        return len(signers) >= self.quorum

    # ------------------------------------------------------------------ #
    # prepare -> commit vote -> commit
    # ------------------------------------------------------------------ #

    def _on_prepare(self, msg: SignedPayload) -> None:
        if not self.verify(msg):
            return
        body = msg.payload
        if not (isinstance(body, tuple) and len(body) == 3):
            return
        _, value, view = body
        if not isinstance(view, int) or view < 1:
            return
        if not self.external_validity(value):
            return
        count = self._prepares.add((view, value), msg.signer, msg)
        if count >= self.quorum and view not in self._sent_commit:
            self._sent_commit.add(view)
            cert = PreparedCert(
                value, view, tuple(self._prepares.entries((view, value)))
            )
            if self.prepared is None or cert.view > self.prepared.view:
                self.prepared = cert
            self.multicast(self.signer.sign((COMMIT, value, view)))

    def _on_commit_vote(self, msg: SignedPayload) -> None:
        if not isinstance(msg, SignedPayload) or not self.verify(msg):
            return
        body = msg.payload
        if not (
            isinstance(body, tuple) and len(body) == 3 and body[0] == COMMIT
        ):
            return
        _, value, view = body
        count = self._commits.add((view, value), msg.signer, msg)
        if count >= self.quorum and not self.has_committed:
            self.multicast(
                (COMMITS, tuple(self._commits.entries((view, value)))),
                include_self=False,
            )
            self.commit(value)
            self.terminate()

    # ------------------------------------------------------------------ #
    # view change: report the lock, accept only valid certificates
    # ------------------------------------------------------------------ #

    def _viewchange_report(self) -> PreparedCert | None:
        return self.prepared

    def _viewchange_view(self, msg) -> int | None:
        """The view of a valid ``<VIEWCHANGE, view, cert-or-None>_i``."""
        view = super()._viewchange_view(msg)
        if view is None:
            return None
        cert = msg.payload[2]
        if cert is not None and (
            not isinstance(cert, PreparedCert)
            or not self._prepared_cert_valid(cert)
        ):
            return None
        return view
