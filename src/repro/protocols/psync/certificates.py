"""Certificate check for the (5f-1)-psync-VBB protocol (paper Figure 2).

A certificate ``C`` of view ``w`` is a set of signed entries from distinct
parties, each either

* a *bottom entry* ``<BOTTOM, w>_j`` — party ``j``'s signature over the
  pair ``(BOTTOM, w)`` (sent in a timeout before voting), or
* a *value entry* ``<v, w>_{L_w, j}`` — the leader-signed pair ``(v, w)``
  countersigned by ``j`` (a vote, or a timeout after voting), with ``v``
  externally valid.

``C`` is **valid** iff it contains at least ``q = n - f`` entries from
distinct parties.  ``C`` **locks** a value ``v != BOTTOM`` iff

1. it contains at least ``t1`` value entries for ``v`` and *no* value
   entry for any ``v' != v``  (paper: ``t1 = 2f - 1`` at ``n = 5f - 1``,
   i.e. ``t1 = q - 2f``), or
2. it contains at least ``t2`` value entries for ``v`` countersigned by
   parties *other than the leader* (paper: ``t2 = 2f``, i.e.
   ``t2 = q - 2f + 1``).

The empty certificate is the valid *genesis* certificate of view 0, which
locks any externally valid value.  Certificates rank by view number.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.messages import (
    ContentMemo,
    IdentityMemo,
    digest,
    intern_key,
)
from repro.crypto.signatures import KeyRegistry, SignedPayload
from repro.types import BOTTOM, PartyId, Value

#: External validity predicate F: Value -> bool (Definition 5).
ExternalValidity = Callable[[Value], bool]


def always_valid(value: Value) -> bool:
    """The trivial external-validity predicate (plain psync-BB)."""
    return True


VAL = "val"

#: Wholesale-clear threshold for the valid-certificate memo; evicting only
#: costs a re-evaluation, never correctness.
_MAX_VALID_CACHE_ENTRIES = 1 << 16


def make_leader_pair(leader_signer, value: Value, view: int) -> SignedPayload:
    """The leader-signed pair ``<v, w>_{L_w}``."""
    return leader_signer.sign((VAL, value, view))


def make_value_entry(
    party_signer, leader_pair: SignedPayload
) -> SignedPayload:
    """Countersign a leader pair: ``<v, w>_{L_w, j}``."""
    return party_signer.sign(leader_pair)


def make_bottom_entry(party_signer, view: int, pair=None) -> SignedPayload:
    """Party-signed bottom pair ``<BOTTOM, w>_j``.

    ``pair`` lets callers pass a shared ``(VAL, BOTTOM, view)`` core (see
    :meth:`repro.sim.process.Party.shared_payload`) so the n per-party
    bottom entries of one view sign the same object.
    """
    return party_signer.sign(pair if pair is not None else (VAL, BOTTOM, view))


@dataclass(frozen=True, slots=True)
class ParsedEntry:
    """A validated certificate entry."""

    contributor: PartyId
    value: Value  # BOTTOM for bottom entries
    view: int

    @property
    def is_bottom(self) -> bool:
        return self.value is BOTTOM


@dataclass(frozen=True, slots=True)
class Certificate:
    """A (possibly genesis) certificate: view number plus signed entries."""

    view: int
    entries: tuple[SignedPayload, ...]

    @classmethod
    def genesis(cls) -> "Certificate":
        return cls(view=0, entries=())

    @property
    def is_genesis(self) -> bool:
        return self.view == 0 and not self.entries

    def _canonical_fields(self) -> tuple:
        return (self.view, self.entries)

    def __repr__(self) -> str:
        if self.is_genesis:
            return "Certificate(genesis)"
        return f"Certificate(view={self.view}, entries={len(self.entries)})"


@dataclass(frozen=True)
class CertStatus:
    """Result of evaluating a certificate."""

    valid: bool
    locked_value: Value | None  # None = locks nothing
    locks_any: bool = False  # genesis: locks any externally valid value

    def locks(self, value: Value, external_validity: ExternalValidity) -> bool:
        if not self.valid:
            return False
        if self.locks_any:
            return value is not BOTTOM and external_validity(value)
        return self.locked_value == value and value is not None


class CertificateChecker:
    """Evaluates certificates for a fixed ``(n, f)`` configuration.

    ``leader_of`` maps a view number to its leader (round-robin by
    default, with view 1 led by the designated broadcaster).
    """

    def __init__(
        self,
        *,
        n: int,
        f: int,
        registry: KeyRegistry,
        leader_of: Callable[[int], PartyId],
        external_validity: ExternalValidity = always_valid,
        valid_memo: ContentMemo | None = None,
    ):
        self.n = n
        self.f = f
        self.quorum = n - f
        # Paper thresholds at n = 5f-1 are 2f-1 and 2f; generalized as
        # q - 2f and q - 2f + 1 (see Section 4.1's counting argument).
        self.t1 = self.quorum - 2 * f
        self.t2 = self.quorum - 2 * f + 1
        self.registry = registry
        self.leader_of = leader_of
        self.external_validity = external_validity
        # Memo of *valid* evaluations.  Certificates are frozen and travel
        # by reference, and every party that receives one re-evaluates it;
        # validity is monotone (the registry's issued set only grows) and
        # ``external_validity`` is assumed to be a pure function of the
        # value (Definition 5 — a stateful predicate would make replayed
        # verdicts stale), so a valid verdict can be replayed in O(1).
        # Invalid verdicts are never cached: an entry that fails today
        # could in principle verify later.
        self._valid_cache: IdentityMemo = IdentityMemo(
            _MAX_VALID_CACHE_ENTRIES
        )
        # Content-keyed sibling of the identity memo: an equal
        # certificate *rebuilt* by another party hits without sharing
        # the object.  The key (built in :meth:`evaluate`) is the
        # certificate's order-sensitive intern key prefixed with the
        # full verdict configuration — registry, (n, f), validity
        # predicate, view leader — so a memo shared across checkers (the
        # world passes one so all parties' checkers pool verdicts) can
        # never replay a verdict under a mismatched configuration, and
        # must still only span checkers of the same world (the registry
        # prefix enforces that structurally).
        self._content_memo: ContentMemo = (
            valid_memo
            if valid_memo is not None
            else ContentMemo(_MAX_VALID_CACHE_ENTRIES)
        )

    # ------------------------------------------------------------------ #
    # entry parsing
    # ------------------------------------------------------------------ #

    def parse_entry(
        self, entry: SignedPayload, view: int
    ) -> ParsedEntry | None:
        """Validate one entry against ``view``; None when malformed."""
        if not self.registry.verify(entry):
            return None
        payload = entry.payload
        if isinstance(payload, SignedPayload):
            # Value entry: countersigned leader pair.
            if not self.registry.verify(payload):
                return None
            inner = payload.payload
            if not self._is_pair(inner, view):
                return None
            _, value, _ = inner
            if value is BOTTOM:
                return None
            if payload.signer != self.leader_of(view):
                return None
            if not self.external_validity(value):
                return None
            return ParsedEntry(entry.signer, value, view)
        if self._is_pair(payload, view) and payload[1] is BOTTOM:
            return ParsedEntry(entry.signer, BOTTOM, view)
        return None

    @staticmethod
    def _is_pair(payload, view: int) -> bool:
        return (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == VAL
            and payload[2] == view
        )

    # ------------------------------------------------------------------ #
    # certificate evaluation (Figure 2)
    # ------------------------------------------------------------------ #

    def evaluate(self, cert: Certificate) -> CertStatus:
        """Apply the Figure 2 Certificate Check to ``cert``.

        Valid results are memoized twice over: by certificate object
        identity (the per-view re-checks in the psync protocols cost one
        dict lookup after the first full evaluation) and by content —
        the certificate's intern key under the checker's configuration —
        so an *equal* certificate rebuilt by a different party hits
        without identity.
        """
        hit = self._valid_cache.get(cert)
        if hit is not None:
            return hit
        # The content key is the certificate's intern key (equal keys
        # guarantee byte-identical canonical encodings, so they cover the
        # view, every entry and every signer; the walk costs no encode or
        # hash and gives up at the first value it cannot key)
        # prefixed with everything the verdict depends on besides the
        # certificate itself: the PKI, the threshold configuration, the
        # validity predicate and this view's leader.  A shared memo is
        # therefore safe even across checkers configured differently —
        # mismatched configurations simply never collide.  The probe must
        # precede evaluation: that is what lets a party skip
        # re-evaluating a certificate an equal copy of which any other
        # party already proved valid.
        ckey = None
        if not cert.is_genesis:
            cert_key = intern_key(cert)
            if cert_key is not None:
                ckey = (
                    self.registry,
                    self.n,
                    self.f,
                    self.external_validity,
                    self.leader_of(cert.view),
                    cert_key,
                )
        if ckey is not None:
            hit = self._content_memo.get(ckey)
            if hit is not None:
                # A content key only exists for an immutable certificate,
                # so promoting the verdict to the identity memo is sound.
                self._valid_cache.put(cert, hit)
                return hit
        status = self._evaluate_uncached(cert)
        if status.valid:
            if ckey is not None:
                self._valid_cache.put(cert, status)
                self._content_memo.put(ckey, status)
            else:
                # Not content-keyable (exotic values, depth or width caps):
                # keep the identity-level replay.  The digest rejects a
                # certificate that is not a value instead of memoizing it.
                digest(cert)
                self._valid_cache.put(cert, status)
        return status

    def _evaluate_uncached(self, cert: Certificate) -> CertStatus:
        if cert.is_genesis:
            return CertStatus(valid=True, locked_value=None, locks_any=True)
        # Batch-verify every entry (and countersigned inner pair) up
        # front: one digest per distinct payload instead of interleaving
        # scalar verifies with parsing.  Any bad signature invalidates the
        # certificate exactly as the per-entry path would; the per-entry
        # verifies inside parse_entry then hit the verified set.
        entries = cert.entries
        if entries and all(
            isinstance(entry, SignedPayload) for entry in entries
        ):
            batch = list(entries)
            batch.extend(
                entry.payload
                for entry in entries
                if isinstance(entry.payload, SignedPayload)
            )
            if not self.registry.verify_batch(batch):
                return CertStatus(valid=False, locked_value=None)
        parsed: dict[PartyId, ParsedEntry] = {}
        for entry in cert.entries:
            item = self.parse_entry(entry, cert.view)
            if item is None:
                return CertStatus(valid=False, locked_value=None)
            if item.contributor in parsed:
                return CertStatus(valid=False, locked_value=None)
            parsed[item.contributor] = item
        if len(parsed) < self.quorum:
            return CertStatus(valid=False, locked_value=None)
        leader = self.leader_of(cert.view)
        value_entries = [e for e in parsed.values() if not e.is_bottom]
        values = {e.value for e in value_entries}
        for value in values:
            count = sum(1 for e in value_entries if e.value == value)
            # Condition (1): enough entries and no conflicting value.
            if count >= self.t1 and values == {value}:
                return CertStatus(valid=True, locked_value=value)
            # Condition (2): enough entries from non-leader parties.
            non_leader = sum(
                1
                for e in value_entries
                if e.value == value and e.contributor != leader
            )
            if non_leader >= self.t2:
                return CertStatus(valid=True, locked_value=value)
        return CertStatus(valid=True, locked_value=None)
