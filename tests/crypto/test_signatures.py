"""Tests for the ideal-unforgeability signature registry."""
import pytest

from repro.crypto.messages import canonical_encode, digest
from repro.crypto.signatures import KeyRegistry, Signature, SignedPayload
from repro.types import BOTTOM


class TestCanonicalEncoding:
    def test_distinct_types_encode_distinctly(self, assert_rejected):
        # 1 vs "1" vs 1.0 vs True must all differ (type tagging).
        values = [1, "1", 1.0, True, (1,), frozenset([2]), None, BOTTOM, b"1"]
        encodings = [canonical_encode(v) for v in values]
        assert len(set(encodings)) == len(encodings)
        assert_rejected(lambda: canonical_encode([2]), "list")

    def test_list_is_rejected(self, assert_rejected):
        assert canonical_encode((1, 2)) == b"t8:i1:1i1:2"
        assert_rejected(lambda: canonical_encode([1, 2]), "list")

    def test_dict_is_rejected(self, assert_rejected):
        assert_rejected(lambda: canonical_encode({"a": 1, "b": 2}), "dict")

    def test_frozenset_ordering_insensitive(self):
        assert canonical_encode(frozenset([3, 1, 2])) == canonical_encode(
            frozenset([2, 3, 1])
        )

    def test_nesting_is_unambiguous(self):
        assert canonical_encode(((1,), 2)) != canonical_encode((1, (2,)))
        assert canonical_encode(("ab",)) != canonical_encode(("a", "b"))

    def test_digest_is_stable(self):
        assert digest(("vote", 1)) == digest(("vote", 1))
        assert digest(("vote", 1)) != digest(("vote", 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())


class TestKeyRegistry:
    def test_sign_and_verify(self):
        registry = KeyRegistry(3)
        signer = registry.signer_for(0)
        signed = signer.sign(("propose", 42))
        assert registry.verify(signed)
        assert signed.signer == 0

    def test_forged_signature_fails(self):
        registry = KeyRegistry(3)
        registry.signer_for(0)
        fake = SignedPayload(
            ("propose", 42), Signature(0, digest(("propose", 42)))
        )
        assert not registry.verify(fake)

    def test_tampered_payload_fails(self):
        registry = KeyRegistry(2)
        signer = registry.signer_for(1)
        signed = signer.sign(("vote", "a"))
        tampered = SignedPayload(("vote", "b"), signed.signature)
        assert not registry.verify(tampered)

    def test_signature_transplant_fails(self):
        registry = KeyRegistry(2)
        signer0 = registry.signer_for(0)
        registry.signer_for(1)
        signed = signer0.sign("hello")
        transplanted = SignedPayload(
            "hello", Signature(1, signed.signature.payload_digest)
        )
        assert not registry.verify(transplanted)

    def test_one_signer_per_party(self):
        registry = KeyRegistry(2)
        registry.signer_for(0)
        with pytest.raises(ValueError):
            registry.signer_for(0)

    def test_out_of_range_party(self):
        registry = KeyRegistry(2)
        with pytest.raises(ValueError):
            registry.signer_for(2)

    def test_countersigning_nested_payloads(self):
        # The paper's <v, w>_{L, j}: leader-signed pair countersigned by j.
        registry = KeyRegistry(3)
        leader = registry.signer_for(0)
        voter = registry.signer_for(1)
        leader_signed = leader.sign(("value", 1))
        countersigned = voter.sign(leader_signed)
        assert registry.verify(countersigned)
        assert registry.verify(countersigned.payload)
        assert countersigned.signer == 1
        assert countersigned.payload.signer == 0

    def test_verify_batch(self):
        registry = KeyRegistry(3)
        signers = [registry.signer_for(i) for i in range(3)]
        signed = [s.sign(("m", i)) for i, s in enumerate(signers)]
        assert registry.verify_batch(signed)
        bad = SignedPayload("x", Signature(0, digest("x")))
        assert not registry.verify_batch(signed + [bad])

    def test_registry_size_validated(self):
        with pytest.raises(ValueError):
            KeyRegistry(0)
