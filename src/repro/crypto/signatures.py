"""Ideal-unforgeability signatures and PKI.

The paper works in the authenticated setting with perfect digital
signatures: a signature by party ``i`` on message ``m`` can be produced
only by ``i`` and verifies for everyone.  We realize the *ideal functional
behaviour* rather than real cryptography: a :class:`KeyRegistry` records
every ``(signer, digest)`` pair that was legitimately issued through a
:class:`Signer` capability; verification is a membership check.  A
fabricated :class:`Signature` object that never went through a ``Signer``
fails verification, so forgery has probability exactly zero — matching the
paper's assumption of ideal unforgeability.

Byzantine behaviors receive the ``Signer`` objects of the corrupted
parties, so they can sign *anything* with corrupted keys (equivocation,
double votes) but can never produce honest parties' signatures.

Performance notes.  Signing stamps the payload digest onto the
:class:`SignedPayload`, and the canonical encoding of a ``SignedPayload``
is Merkle-style — ``(payload_digest, signature)`` rather than the full
payload subtree — so countersigning / digesting nested signed values
reuses child digests instead of re-encoding whole subtrees.  The registry
additionally keeps a *verified set*: once a ``SignedPayload`` object has
verified, re-checking the same object (quorum certificates are re-checked
by every party they reach) is an O(1) identity lookup.  Both ``sign`` and
``verify`` obtain digests through :func:`repro.crypto.messages.digest`
and therefore ride the content intern table: n parties signing equal vote
payloads pay for one encoding, and :meth:`KeyRegistry.verify_batch` checks
a certificate's signatures with one digest per distinct payload plus k
membership tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.crypto.messages import DigestOf, IdentityMemo, digest
from repro.types import PartyId

#: Wholesale-clear threshold for the verified-signature set (mirrors the
#: digest cache's bulk eviction): re-verifying after a clear is only a
#: perf hiccup, never a correctness issue.
_MAX_VERIFIED_ENTRIES = 1 << 18


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature by ``signer`` over the payload with the given digest."""

    signer: PartyId
    payload_digest: bytes

    def __repr__(self) -> str:
        return f"Sig(p{self.signer},{self.payload_digest.hex()[:8]})"

    def _canonical_fields(self) -> tuple:
        return (self.signer, self.payload_digest)


@dataclass(frozen=True)
class SignedPayload:
    """A payload together with one signature over it.

    The paper writes this as ``<m>_i``.  Multi-signed values (the paper's
    ``<v, w>_{L_w, j}``: a leader-signed pair countersigned by ``j``) are
    represented by nesting: the countersigned payload *is* a
    ``SignedPayload`` and is signed again.

    The extra ``_payload_digest`` slot caches ``digest(payload)``, stamped
    at :meth:`Signer.sign` time.  An object built directly (an
    adversarial forgery) carries no stamp and encodes its payload through
    :class:`DigestOf`.  The stamp is a cache, not a claim — the *claimed*
    digest lives in ``signature.payload_digest`` and
    :meth:`KeyRegistry.verify` compares a freshly obtained digest against
    it.
    """

    __slots__ = ("payload", "signature", "_payload_digest")

    payload: Any
    signature: Signature

    @property
    def signer(self) -> PartyId:
        return self.signature.signer

    # Manual __slots__ on a frozen dataclass needs explicit state methods:
    # the default slot restore goes through __setattr__, which frozen
    # rejects.  (dataclass(slots=True) would generate these, but it cannot
    # carry the extra non-field _payload_digest slot.)
    def __getstate__(self):
        return (
            self.payload,
            self.signature,
            getattr(self, "_payload_digest", None),
        )

    def __setstate__(self, state) -> None:
        payload, signature, stamp = state
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "signature", signature)
        if stamp is not None:
            object.__setattr__(self, "_payload_digest", stamp)

    def __repr__(self) -> str:
        return f"<{self.payload!r}>_{self.signer}"

    def _canonical_fields(self) -> tuple:
        # Merkle-style: nested countersigning hashes the child digest
        # instead of re-encoding the child's whole payload subtree.
        # Injective under the paper's ideal-hash assumption.  Unstamped
        # payloads go through the DigestOf marker so the encoder derives
        # the sub-digest on its own work stack — adversarially deep
        # countersign chains never recurse through Python frames, stamped
        # or not.
        cached = getattr(self, "_payload_digest", None)
        if cached is not None:
            return (cached, self.signature)
        return (DigestOf(self.payload), self.signature)


class Signer:
    """The signing capability of one party.

    Handed to the party's runtime (honest) or to the adversary behavior
    controlling the party (Byzantine).  There is exactly one ``Signer`` per
    party per registry.
    """

    def __init__(self, registry: "KeyRegistry", party: PartyId):
        self._registry = registry
        self._party = party

    @property
    def party(self) -> PartyId:
        return self._party

    def sign(self, payload: Any) -> SignedPayload:
        """Sign ``payload``, registering the signature as issued."""
        payload_digest = digest(payload)
        self._registry._record(self._party, payload_digest)
        signed = SignedPayload(payload, Signature(self._party, payload_digest))
        object.__setattr__(signed, "_payload_digest", payload_digest)
        return signed

    def __repr__(self) -> str:
        return f"Signer(p{self._party})"


class KeyRegistry:
    """The PKI: issues signer capabilities and verifies signatures.

    One registry per simulated world.  ``verify`` is the public-key
    operation every party can perform; ``signer_for`` must be called
    exactly once per party by the world builder.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"registry needs n >= 1 parties, got {n}")
        self._n = n
        self._issued: set[tuple[PartyId, bytes]] = set()
        # Issued pairs not yet drained by ``take_fresh``: a shard worker
        # ships them to the other shards after every barrier step.
        self._fresh: list[tuple[PartyId, bytes]] = []
        self._handed_out: set[PartyId] = set()
        # Verified set: successful verifications (the issued set is
        # append-only and a payload's digest cannot change, so a pass can
        # never later become a fail).
        self._verified = IdentityMemo(_MAX_VERIFIED_ENTRIES)

    def signer_for(self, party: PartyId) -> Signer:
        """Issue the unique signing capability for ``party``."""
        if not 0 <= party < self._n:
            raise ValueError(f"party {party} out of range 0..{self._n - 1}")
        if party in self._handed_out:
            raise ValueError(f"signer for party {party} already issued")
        self._handed_out.add(party)
        return Signer(self, party)

    def _record(self, party: PartyId, payload_digest: bytes) -> None:
        pair = (party, payload_digest)
        if pair not in self._issued:
            self._issued.add(pair)
            self._fresh.append(pair)

    def take_fresh(self) -> dict[bytes, int]:
        """Drain signatures issued since the last drain, grouped as
        ``{payload_digest: signer-bitmask}`` (the shard wire format)."""
        fresh = self._fresh
        if not fresh:
            return {}
        self._fresh = []
        grouped: dict[bytes, int] = {}
        for party, payload_digest in fresh:
            grouped[payload_digest] = (
                grouped.get(payload_digest, 0) | 1 << party
            )
        return grouped

    def merge_issued(self, grouped: dict[bytes, int]) -> None:
        """Fold other shards' issued groups into the local issued set."""
        issued = self._issued
        for payload_digest, mask in grouped.items():
            while mask:
                low = mask & -mask
                issued.add((low.bit_length() - 1, payload_digest))
                mask ^= low

    def verify(self, signed: SignedPayload) -> bool:
        """Check that ``signed`` carries a legitimately issued signature.

        The first successful check of an object does the digest work; every
        re-check of the *same object* (certificate entries travel by
        reference through the simulated network) is an O(1) membership
        test against the verified set.
        """
        if self._verified.get(signed) is not None:
            return True
        sig = signed.signature
        # Never trust the stamp here: the claim is the signature's digest,
        # checked against the payload's own (an O(1) memo hit for a
        # payload that was signed).
        actual = digest(signed.payload)
        if sig.payload_digest != actual:
            return False
        if (sig.signer, sig.payload_digest) not in self._issued:
            return False
        self._verified.put(signed, True)
        return True

    def verify_batch(self, items: Iterable[SignedPayload]) -> bool:
        """Verify a quorum's worth of signed payloads in one pass.

        Groups the batch by payload object, computes each distinct
        payload's digest exactly once (a content-intern hit when an equal
        payload was digested anywhere before), then runs one membership
        test per signature.  Failure semantics match the scalar path
        exactly: items are checked in order and the first bad signature
        fails the batch — items after it are neither verified nor
        memoized, just like a short-circuiting ``all(verify(...))``.
        """
        verified = self._verified
        issued = self._issued
        digests: dict[int, tuple[Any, bytes]] = {}
        for item in items:
            if verified.get(item) is not None:
                continue
            sig = item.signature
            payload = item.payload
            group = digests.get(id(payload))
            if group is not None and group[0] is payload:
                actual = group[1]
            else:
                actual = digest(payload)
                # The strong payload reference pins the id for the scope
                # of this batch, so the group entry cannot alias.
                digests[id(payload)] = (payload, actual)
            if sig.payload_digest != actual:
                return False
            if (sig.signer, actual) not in issued:
                return False
            verified.put(item, True)
        return True
