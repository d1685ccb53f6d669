"""Correctness tests for the content-keyed intern tier and batch verify.

The intern tier sits *below* the identity memo: equal-but-distinct
payload objects must share one digest computation that reproduces the
generic encoder byte-for-byte, and a payload that can mutate is never
interned: it is rejected, and so can never be signed.
``KeyRegistry.verify_batch`` must reject forgeries exactly like the
scalar path.
"""
import hashlib

import pytest

import repro.crypto.messages as messages
from repro.crypto.messages import (
    ContentMemo,
    canonical_encode,
    clear_digest_cache,
    digest,
    digest_stats,
    intern_key,
)
from repro.crypto.signatures import KeyRegistry, Signature, SignedPayload
from repro.protocols.psync.certificates import (
    Certificate,
    CertificateChecker,
    make_bottom_entry,
    make_leader_pair,
    make_value_entry,
)
from repro.types import BOTTOM


def digest_cache_len() -> int:
    """Live entries in the identity-keyed digest cache."""
    return len(messages._CACHE._entries)


def intern_table_len() -> int:
    """Live entries in the content-keyed intern table."""
    return len(messages._INTERN._entries)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_digest_cache()
    digest_stats.reset()
    yield
    clear_digest_cache()


def _generic_digest(value) -> bytes:
    """Digest via the generic encoder only (the spec every tier must hit)."""
    return hashlib.sha256(canonical_encode(value)).digest()


class TestContentInterning:
    def test_equal_but_distinct_payloads_intern_to_one_digest(self):
        a = ("vote", "v")
        b = tuple(["vote", str("xv"[1:])])  # equal content, distinct objects
        assert a is not b
        da = digest(a)
        assert digest_stats.digests_computed == 1
        db = digest(b)
        assert da == db
        # The second request was answered by the intern table, not encoded.
        assert digest_stats.digests_computed == 1
        assert digest_stats.interned_hits == 1

    def test_n_party_sign_path_computes_one_digest(self):
        registry = KeyRegistry(8)
        signers = [registry.signer_for(i) for i in range(8)]
        # Build each vote body at runtime so the tuples are genuinely
        # distinct objects (a shared literal would be an identity hit).
        votes = [s.sign(("vote", "".join(["value-", "x"]))) for s in signers]
        # 8 distinct-but-equal payload tuples: one encode, 7 intern hits.
        assert digest_stats.digests_computed == 1
        assert digest_stats.interned_hits == 7
        assert len({v.signature.payload_digest for v in votes}) == 1
        assert all(registry.verify(v) for v in votes)

    def test_interned_digest_matches_generic_encoder(self):
        registry = KeyRegistry(4)
        s0, s1 = registry.signer_for(0), registry.signer_for(1)
        pair = s0.sign(("val", "v", 1))
        entry = s1.sign(pair)
        cert = Certificate(view=1, entries=(entry,))
        cases = [
            ("vote", "v"),
            (),
            ((1,), 2),
            (1, True, 0.0, -0.0, None, BOTTOM),
            ("x", b"raw", -17, 3.5, ("nested", ("deep", 5))),
            Signature(3, b"\x00" * 32),
            entry,
            (entry, entry),
            ("votes", 2, (entry,)),
            cert,
            ("status", 0, cert),
        ]
        for value in cases:
            assert digest(value) == _generic_digest(value), value

    def test_bool_int_and_signed_zero_do_not_collide(self):
        # 1 == True and 0.0 == -0.0 hash equally; the shape key must keep
        # them apart because their canonical encodings differ.
        assert digest((1,)) != digest((True,))
        assert digest((0.0,)) != digest((-0.0,))
        assert digest((1,)) == _generic_digest((1,))
        assert digest((True,)) == _generic_digest((True,))
        assert digest((0.0,)) == _generic_digest((0.0,))
        assert digest((-0.0,)) == _generic_digest((-0.0,))

    def test_mutable_payloads_are_rejected(self, assert_rejected):
        value = ("wrap", [1, 2])
        assert intern_key(value) is None
        assert_rejected(lambda: digest(value), "list")
        assert intern_table_len() == 0

    def test_mutable_payload_is_never_signed(self, assert_rejected):
        # Tampering after signing needs a mutable signed payload: signing
        # one is rejected, and a hand-built one fails both verify paths.
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        assert_rejected(lambda: signer.sign(["v"]), "list")
        signed = SignedPayload(["v"], Signature(0, b"\x00" * 32))
        assert_rejected(lambda: registry.verify(signed), "list")
        assert_rejected(lambda: registry.verify_batch([signed]), "list")

    def test_non_frozen_holder_is_rejected(self, assert_rejected):
        class MutableHolder:
            def __init__(self, x):
                self.x = x

            def _canonical_fields(self):
                return (self.x,)

        wrapped = ("wrap", MutableHolder(1))
        assert intern_key(wrapped) is None
        assert_rejected(lambda: digest(wrapped), "MutableHolder")
        assert intern_table_len() == 0

    def test_wholesale_clear_is_correctness_neutral(self):
        values = [("item", i, ("sub", i)) for i in range(12)]
        cold = [digest(v) for v in values]
        clear_digest_cache()
        assert intern_table_len() == 0
        rebuilt = [tuple(["item", i, tuple(["sub", i])]) for i in range(12)]
        assert [digest(v) for v in rebuilt] == cold

    def test_intern_eviction_is_correctness_neutral(self, monkeypatch):
        monkeypatch.setattr(messages._INTERN, "max_entries", 4)
        values = [("item", i) for i in range(16)]
        cold = [digest(v) for v in values]
        assert intern_table_len() <= 4
        assert digest_stats.intern_evictions >= 1
        rebuilt = [tuple(["item", i]) for i in range(16)]
        assert [digest(v) for v in rebuilt] == cold

    def test_same_shape_misses_encode_generically(self):
        # No per-shape encoder is compiled: an intern miss takes the
        # generic encoder, and the plan counter the benchmark reads stays 0.
        for value in (("a", 1), ("b", 2)):
            assert digest(value) == _generic_digest(value)
        assert intern_table_len() == 2
        assert digest_stats.plans_compiled == 0

    def test_atom_only_content_is_capped(self):
        # No leaves at all, so a leaf cap alone never stopped these: a
        # Byzantine payload must not pin a key per element.
        assert intern_key((BOTTOM,) * 100_000) is None
        assert intern_key((None,) * 2_000) is not None  # within the cap
        wide = (None,) * 50_000
        assert digest(wide) == _generic_digest(wide)
        assert intern_table_len() == 0

    def test_digest_interns_small_values_only(self):
        small = tuple(range(messages._MAX_INTERN_LEAVES))
        large = tuple(range(messages._MAX_INTERN_LEAVES + 1))
        digest(small)
        assert intern_table_len() == 1
        assert digest(large) == _generic_digest(large)
        assert intern_table_len() == 1
        # intern_key keeps its own, larger cap for the object interners.
        assert intern_key(large) is not None

    def test_vote_quorums_add_no_intern_entry(self):
        # Brb2Round's forwarded quorum at two sizes, over one vote set the
        # vote multicasts already digested: the intern table stays a
        # function of the message types, not of n.
        registry = KeyRegistry(1001)
        body = ("vote", "v")
        votes = [registry.signer_for(i).sign(body) for i in range(668)]
        for vote in votes:
            digest(("vote", vote))
        interned = intern_table_len()
        for size in (100, 668):
            quorum = ("vote-quorum", tuple(votes[:size]))
            assert digest(quorum) == _generic_digest(quorum)
        assert intern_table_len() == interned

    def test_deep_chains_stay_iterative(self):
        import sys

        depth = sys.getrecursionlimit() * 2
        node = "base"
        for _ in range(depth):
            node = SignedPayload(node, Signature(0, b"fake"))
        # Far beyond the shape walk's depth cap: must fall back to the
        # generic iterative encoder, not recurse.
        assert len(digest(node)) == 32


class TestContentMemo:
    def test_put_get_and_wholesale_clear(self):
        memo = ContentMemo(2)
        assert memo.get("a") is None
        assert memo.put("a", 1) is False
        assert memo.put("b", 2) is False
        assert memo.get("a") == 1
        assert memo.put("c", 3) is True  # wholesale clear
        assert memo.get("a") is None
        assert memo.get("c") == 3
        assert len(memo._entries) == 1


class TestBatchVerification:
    def _quorum(self, registry, signers, value="v"):
        return [s.sign(("vote", value)) for s in signers]

    def test_batch_matches_scalar_on_good_quorum(self):
        registry = KeyRegistry(5)
        signers = [registry.signer_for(i) for i in range(5)]
        quorum = self._quorum(registry, signers)
        assert registry.verify_batch(quorum)
        assert all(registry.verify(v) for v in quorum)
        assert registry.verify_batch(quorum)

    def test_fabricated_vote_fails_batch_exactly_like_scalar(self):
        registry = KeyRegistry(5)
        signers = [registry.signer_for(i) for i in range(4)]
        quorum = self._quorum(registry, signers)
        forged = SignedPayload(
            ("vote", "v"), Signature(4, digest(("vote", "v")))
        )
        for position in range(len(quorum) + 1):
            batch = list(quorum)
            batch.insert(position, forged)
            assert not registry.verify_batch(batch)
            assert not all(registry.verify(item) for item in batch)

    def test_tampered_digest_fails_batch(self):
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        good = signer.sign(("vote", "v"))
        transplanted = SignedPayload(("vote", "w"), good.signature)
        assert not registry.verify_batch([good, transplanted])
        assert registry.verify_batch([good])

    def test_batch_groups_equal_payload_objects(self):
        registry = KeyRegistry(4)
        signers = [registry.signer_for(i) for i in range(4)]
        core = ("vote", "shared")
        quorum = [s.sign(core) for s in signers]
        digest_stats.reset()
        assert registry.verify_batch(quorum)
        # All four votes share one payload object: zero fresh digests
        # (sign stamped it) and no per-item re-encoding.
        assert digest_stats.digests_computed == 0

    def test_batch_failure_does_not_memoize_later_items(self):
        registry = KeyRegistry(3)
        s0, s1 = registry.signer_for(0), registry.signer_for(1)
        bad = SignedPayload("never-signed", Signature(2, digest("never-signed")))
        later = s1.sign(("vote", "v"))
        assert not registry.verify_batch([s0.sign(("vote", "v")), bad, later])
        # ``later`` was after the failure: exactly like a short-circuited
        # all(), it still verifies independently afterwards.
        assert registry.verify(later)


class TestCertificatesThroughBatchPath:
    def _checker(self, n=4, f=1, valid_memo=None):
        registry = KeyRegistry(n)
        signers = [registry.signer_for(i) for i in range(n)]
        checker = CertificateChecker(
            n=n,
            f=f,
            registry=registry,
            leader_of=lambda view: 0,
            valid_memo=valid_memo,
        )
        return registry, signers, checker

    def _vote_cert(self, signers, view=1, value="v"):
        pair = make_leader_pair(signers[0], value, view)
        entries = tuple(make_value_entry(s, pair) for s in signers)
        return Certificate(view=view, entries=entries)

    def test_valid_certificate_accepted(self):
        _, signers, checker = self._checker()
        cert = self._vote_cert(signers)
        status = checker.evaluate(cert)
        assert status.valid
        assert status.locked_value == "v"

    def test_forged_certificate_fails_through_batch_path(self):
        registry, signers, checker = self._checker()
        # Signer 3 never countersigns: fabricating its entry is a forgery.
        cert = self._vote_cert(signers[:3])
        pair = cert.entries[0].payload
        forged_entry = SignedPayload(pair, Signature(3, digest(pair)))
        bad = Certificate(view=1, entries=cert.entries + (forged_entry,))
        # The fabricated countersignature was never issued: invalid via
        # evaluate (batch path) and via the scalar registry alike.
        assert not checker.evaluate(bad).valid
        assert not registry.verify(forged_entry)
        assert not registry.verify_batch(list(bad.entries))

    def test_forged_inner_pair_fails_through_batch_path(self):
        registry, signers, checker = self._checker()
        fake_pair = SignedPayload(
            ("val", "v", 1), Signature(0, digest(("val", "v", 1)))
        )
        entries = tuple(s.sign(fake_pair) for s in signers)
        bad = Certificate(view=1, entries=entries)
        assert not checker.evaluate(bad).valid

    def test_shared_memo_respects_external_validity(self):
        # Checkers sharing one memo but configured with different
        # validity predicates must never replay each other's verdicts.
        memo = ContentMemo(1 << 8)
        registry = KeyRegistry(4)
        signers = [registry.signer_for(i) for i in range(4)]
        permissive = CertificateChecker(
            n=4, f=1, registry=registry, leader_of=lambda view: 0,
            valid_memo=memo,
        )
        restrictive = CertificateChecker(
            n=4, f=1, registry=registry, leader_of=lambda view: 0,
            external_validity=lambda value: value != "v",
            valid_memo=memo,
        )
        pair = make_leader_pair(signers[0], "v", 1)
        cert = Certificate(
            view=1, entries=tuple(make_value_entry(s, pair) for s in signers)
        )
        rebuilt = Certificate(view=1, entries=tuple(cert.entries))
        assert permissive.evaluate(cert).valid
        # An equal certificate under the stricter predicate is invalid —
        # the shared memo must not leak the permissive verdict.
        assert not restrictive.evaluate(rebuilt).valid

    def test_equal_certificates_hit_content_memo_across_checkers(self):
        memo = ContentMemo(1 << 8)
        registry, signers, checker_a = self._checker(valid_memo=memo)
        checker_b = CertificateChecker(
            n=4,
            f=1,
            registry=registry,
            leader_of=lambda view: 0,
            valid_memo=memo,
        )
        pair = make_leader_pair(signers[0], "v", 1)
        cert_a = Certificate(
            view=1, entries=tuple(make_value_entry(s, pair) for s in signers)
        )
        rebuilt_entries = tuple(cert_a.entries)  # same entries, new cert
        cert_b = Certificate(view=1, entries=rebuilt_entries)
        assert cert_a is not cert_b
        status_a = checker_a.evaluate(cert_a)
        status_b = checker_b.evaluate(cert_b)
        # checker_b replayed checker_a's verdict object from the shared
        # content memo — no second evaluation.
        assert status_b is status_a

    def test_bottom_entries_with_shared_pair(self):
        registry, signers, checker = self._checker()
        core = ("val", BOTTOM, 1)
        entries = tuple(
            make_bottom_entry(s, 1, pair=core) for s in signers
        )
        cert = Certificate(view=1, entries=entries)
        status = checker.evaluate(cert)
        assert status.valid
        assert status.locked_value is None


class TestWorldPayloadInterning:
    def test_parties_share_equal_payload_cores(self):
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import World

        world = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        a = world.intern_payload(("echo", "v"))
        b = world.intern_payload(tuple(["echo", "v"]))
        assert a is b
        # Mutable payloads are returned unchanged, never shared.
        mutable = ("echo", ["v"])
        assert world.intern_payload(mutable) is mutable

    def test_interning_is_structural(self):
        # DigestOf(x) canonically encodes like digest(x), but the two are
        # different structures: the object interner must never substitute
        # one for the other (intern_key(structural=True) refuses digest
        # stand-ins outright).
        from repro.crypto.messages import DigestOf
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import World

        x = ("inner", 1)
        d = digest(x)  # also enters x into the identity memo
        world = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        as_bytes = world.intern_payload(("vote", d))
        as_marker = world.intern_payload(("vote", DigestOf(x)))
        assert isinstance(as_bytes[1], bytes)
        assert not isinstance(as_marker[1], bytes)
        # And an identity-cached sub-value must not collapse to its "D"
        # digest stand-in either: the tuple comes back structurally equal.
        shared = world.intern_payload(("wrap", x))
        assert shared[1] == x

    def test_interning_is_world_scoped(self):
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import World

        w1 = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        w2 = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        a = w1.intern_payload(("echo", "v"))
        b = w2.intern_payload(tuple(["echo", "v"]))
        assert a is not b
