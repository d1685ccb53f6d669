"""Idealized authentication primitives (signatures, PKI, digests)."""
from repro.crypto.messages import (
    IdentityMemo,
    canonical_encode,
    clear_digest_cache,
    digest,
    digest_stats,
)
from repro.crypto.signatures import KeyRegistry, Signature, SignedPayload, Signer

__all__ = [
    "IdentityMemo",
    "KeyRegistry",
    "Signature",
    "SignedPayload",
    "Signer",
    "canonical_encode",
    "clear_digest_cache",
    "digest",
    "digest_stats",
]
