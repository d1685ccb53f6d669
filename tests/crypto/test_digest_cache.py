"""Correctness tests for the content-addressed digest cache subsystem.

The cache layers are: identity-keyed digest memoization in
``crypto.messages``, the holder-encoding memo, digest stamping on
``SignedPayload`` at sign time, and the registry's verified-signature
set.  Each must be an invisible optimization: equal values digest
equally, cache hits match the cold path byte-for-byte, and forgeries
still fail.
"""
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.messages as messages
from repro.crypto.messages import (
    canonical_encode,
    clear_digest_cache,
    digest,
    digest_cache_len,
    digest_stats,
)
from repro.crypto.signatures import KeyRegistry, Signature, SignedPayload
from repro.protocols.psync.certificates import Certificate
from repro.types import BOTTOM


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_digest_cache()
    digest_stats.reset()
    yield
    clear_digest_cache()


class TestDigestMemoization:
    def test_equal_values_equal_digests(self):
        # Distinct but equal objects must agree, cached or not.
        a = ("vote", 1, (2, "x"))
        b = tuple(["vote", 1, tuple([2, "x"])])  # defeat constant folding
        assert a is not b
        assert digest(a) == digest(b)

    def test_cache_hit_matches_cold_path(self):
        value = ("propose", ("nested", 3), frozenset({1, 2}))
        cold = digest(value)
        warm = digest(value)  # identity hit
        assert warm == cold
        clear_digest_cache()
        assert digest(value) == cold  # recomputed from scratch

    def test_hits_are_counted_and_byte_identical(self):
        value = ("m", 42)
        first = digest(value)
        before = digest_stats.cache_hits
        assert digest(value) == first
        assert digest_stats.cache_hits == before + 1

    def test_scalars_are_not_cached(self):
        digest(17)
        digest("hello")
        digest(b"raw")
        assert digest_cache_len() == 0

    def test_mutable_containers_are_never_cached(self):
        seq = [1, 2, 3]
        d1 = digest(seq)
        seq.append(4)
        assert digest(seq) != d1
        mapping = {"a": 1}
        d2 = digest(mapping)
        mapping["b"] = 2
        assert digest(mapping) != d2

    def test_tuple_containing_list_is_not_cached(self):
        inner = [1, 2]
        value = ("wrap", inner)
        d1 = digest(value)
        inner.append(3)
        assert digest(value) != d1
        assert digest_cache_len() == 0

    def test_tuple_of_signed_payloads_is_cached(self):
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        quorum = (signer.sign(("vote", "v")), signer.sign(("vote", "w")))
        digest(quorum)
        assert digest_cache_len() >= 1

    def test_frozen_dataclass_subclass_is_not_trusted(self):
        # A plain subclass of a frozen dataclass inherits
        # __dataclass_params__ but may reintroduce mutability; it must not
        # be digest-cached.
        class SneakySignature(Signature):
            __setattr__ = object.__setattr__  # un-freezes the subclass

        sneaky = SneakySignature(0, b"d")
        wrapped = ("wrap", sneaky)
        d1 = digest(wrapped)
        sneaky.payload_digest = b"x"
        assert digest(wrapped) != d1
        assert digest_cache_len() == 0

    def test_nested_mutable_field_holder_is_never_cached(self):
        # A non-frozen _canonical_fields object, even nested inside a
        # tuple, must poison cacheability: its fields can be reassigned.
        class MutableHolder:
            def __init__(self, x):
                self.x = x

            def _canonical_fields(self):
                return (self.x,)

        holder = MutableHolder(1)
        wrapped = ("wrap", holder)
        d1 = digest(wrapped)
        holder.x = 2
        assert digest(wrapped) != d1
        assert digest_cache_len() == 0


class TestIterativeEncoder:
    def test_format_unchanged_for_scalars(self):
        # The type-tagged format is load-bearing for transcript equality.
        assert canonical_encode(None) == b"N"
        assert canonical_encode(BOTTOM) == b"_"
        assert canonical_encode(True) == b"b1"
        assert canonical_encode(False) == b"b0"
        assert canonical_encode(7) == b"i1:7"
        assert canonical_encode("ab") == b"s2:ab"
        assert canonical_encode(b"xy") == b"y2:xy"
        assert canonical_encode(1.5) == b"f3:1.5"

    def test_format_unchanged_for_containers(self):
        assert canonical_encode((1, 2)) == b"t8:i1:1i1:2"
        assert canonical_encode([1, 2]) == canonical_encode((1, 2))
        assert canonical_encode({"b": 2, "a": 1}) == canonical_encode(
            {"a": 1, "b": 2}
        )
        assert canonical_encode(frozenset({2, 1})) == canonical_encode(
            frozenset({1, 2})
        )

    def test_deep_nesting_beyond_recursion_limit(self):
        import sys

        depth = sys.getrecursionlimit() * 4
        value = ()
        for _ in range(depth):
            value = (value,)
        encoded = digest(value)  # recursion would raise RecursionError
        assert len(encoded) == 32

    def test_nesting_is_unambiguous(self):
        assert canonical_encode(((1,), 2)) != canonical_encode((1, (2,)))

    def test_dict_subclasses_encode_like_dicts(self):
        import collections

        ordered = collections.OrderedDict([("b", 2), ("a", 1)])
        counter = collections.Counter({"x": 3})
        assert canonical_encode(ordered) == canonical_encode({"a": 1, "b": 2})
        assert canonical_encode(counter) == canonical_encode({"x": 3})

    def test_container_subclasses_are_never_cached(self):
        class FancyTuple(tuple):
            pass

        value = FancyTuple((1, 2))
        digest(value)
        wrapped = (FancyTuple((3,)),)
        digest(wrapped)
        assert digest_cache_len() == 0  # subclasses may hide mutable state

    def test_int_subclasses_encode_by_value(self):
        import enum

        class Level(enum.IntEnum):
            LOW = 1

        assert canonical_encode(Level.LOW) == canonical_encode(1)


class TestSignedPayloadStamping:
    def test_stamp_matches_fresh_computation(self):
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        signed = signer.sign(("vote", "v"))
        assert signed.payload_digest() == digest(("vote", "v"))

    def test_stamped_and_unstamped_digest_equally(self):
        # An adversary building an equal SignedPayload by hand (no stamp)
        # must land on the same canonical digest as the signed original.
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        signed = signer.sign(("vote", "v"))
        rebuilt = SignedPayload(("vote", "v"), Signature(0, digest(("vote", "v"))))
        assert digest(signed) == digest(rebuilt)
        assert canonical_encode(signed) == canonical_encode(rebuilt)

    def test_countersigning_reuses_child_digest(self):
        registry = KeyRegistry(3)
        leader = registry.signer_for(0)
        voter = registry.signer_for(1)
        inner = leader.sign(("value", 1))
        digest_stats.reset()
        outer = voter.sign(inner)  # child digest is already stamped
        assert registry.verify(outer)
        assert registry.verify(outer.payload)
        # Countersigning must not have re-encoded the inner payload tree:
        # the only fresh encodings are for the outer envelope itself.
        assert digest_stats.digests_computed <= 2

    def test_deep_unstamped_countersign_chain(self):
        # Adversarially fabricated (never signed) chains must digest
        # without Python-frame recursion per level.
        import sys

        depth = sys.getrecursionlimit() * 2
        node = "base"
        for i in range(depth):
            node = SignedPayload(node, Signature(0, b"fake"))
        assert len(digest(node)) == 32
        assert len(node.payload_digest()) == 32

    def test_unstable_countersign_chain_stays_linear(self):
        # An unstamped chain over a *mutable* innermost payload must not
        # re-derive the whole subtree once per level (exponential blowup).
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        node = signer.sign(("v", [1, 2]))
        for _ in range(20):
            node = SignedPayload(node, Signature(0, b"fake"))
        digest_stats.reset()
        digest(node)
        # Exponential behavior would need ~2^20 encodes here.
        assert digest_stats.encode_calls < 200

    def test_deep_unstable_chain_no_recursion_and_tracks_mutation(self):
        # Even when nothing can be stamped (mutable innermost payload), a
        # countersign chain deeper than the recursion limit must digest
        # iteratively — and still observe mutation at the bottom.
        import sys

        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        inner = [1, 2]
        node = signer.sign(("v", inner))
        for _ in range(sys.getrecursionlimit() * 2):
            node = SignedPayload(node, Signature(0, b"fake"))
        d1 = digest(node)
        inner.append(3)
        assert digest(node) != d1

    def test_signed_payload_roundtrips_pickle_and_deepcopy(self):
        import copy
        import pickle

        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        signed = signer.sign(("vote", "v"))
        for clone in (
            copy.deepcopy(signed),
            pickle.loads(pickle.dumps(signed)),
        ):
            assert clone == signed
            assert clone.payload_digest() == signed.payload_digest()
            assert digest(clone) == digest(signed)

    def test_slots_reject_stray_attributes(self):
        registry = KeyRegistry(2)
        signed = registry.signer_for(0).sign("m")
        with pytest.raises((AttributeError, TypeError)):
            signed.extra = 1  # frozen + slots: no __dict__ to leak into


class TestVerifiedSetSoundness:
    def test_forged_signature_fails_with_cache_enabled(self):
        registry = KeyRegistry(3)
        signer = registry.signer_for(0)
        legit = signer.sign(("propose", 42))
        # Warm every cache layer with the legitimate object.
        assert registry.verify(legit)
        assert registry.verify(legit)
        forged = SignedPayload(
            ("propose", 43), Signature(0, digest(("propose", 43)))
        )
        assert not registry.verify(forged)
        assert not registry.verify(forged)  # still fails on re-check

    def test_tampered_copy_of_verified_object_fails(self):
        registry = KeyRegistry(2)
        signer = registry.signer_for(1)
        signed = signer.sign(("vote", "a"))
        assert registry.verify(signed)
        tampered = SignedPayload(("vote", "b"), signed.signature)
        assert not registry.verify(tampered)

    def test_signature_transplant_fails_after_warm_verify(self):
        registry = KeyRegistry(2)
        signer0 = registry.signer_for(0)
        registry.signer_for(1)
        signed = signer0.sign("hello")
        assert registry.verify(signed)
        transplanted = SignedPayload(
            "hello", Signature(1, signed.signature.payload_digest)
        )
        assert not registry.verify(transplanted)

    def test_equal_value_copy_verifies_independently(self):
        # A by-value copy (different object, no stamp) must verify via the
        # cold path and reach the same verdict as the cached original.
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        signed = signer.sign(("vote", "v"))
        assert registry.verify(signed)
        copy = SignedPayload(("vote", "v"), Signature(0, digest(("vote", "v"))))
        assert registry.verify(copy)

    def test_mutated_payload_fails_after_successful_verify(self):
        # The seed recomputed the payload digest on every verify; the
        # caches must preserve that: a Byzantine party signing a *mutable*
        # payload, verifying it, then mutating it in place must not keep a
        # standing True verdict for content that was never signed.
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        payload = ["v"]
        signed = signer.sign(payload)
        assert registry.verify(signed)
        payload[0] = "w"
        assert not registry.verify(signed)
        # And the digest of the enclosing envelope tracks the mutation.
        d_mutated = digest(signed)
        payload[0] = "v"
        assert registry.verify(signed)
        assert digest(signed) != d_mutated

    def test_mutable_payload_hidden_behind_countersign_is_tracked(self):
        # Mutability must propagate through the Merkle-style encoding: an
        # inner signed payload wrapping a list cannot be frozen behind its
        # digest when the outer envelope is verified.
        registry = KeyRegistry(3)
        inner_payload = ["v"]
        inner = registry.signer_for(0).sign(inner_payload)
        outer = registry.signer_for(1).sign(inner)
        assert registry.verify(outer)
        inner_payload[0] = "w"
        assert not registry.verify(outer)

    def test_failed_verdicts_are_not_sticky(self):
        # A signature that fails because it was never issued must start
        # verifying once the same (signer, digest) pair is later issued —
        # only positive verdicts may be cached.
        registry = KeyRegistry(2)
        signer = registry.signer_for(0)
        early = SignedPayload("m", Signature(0, digest("m")))
        assert not registry.verify(early)
        signer.sign("m")
        assert registry.verify(early)


class TestCacheEviction:
    def test_bulk_eviction_keeps_digests_correct(self, monkeypatch):
        import repro.crypto.messages as messages

        monkeypatch.setattr(messages._CACHE, "max_entries", 4)
        values = [("item", i) for i in range(16)]
        cold = [digest(v) for v in values]
        assert digest_cache_len() <= 4
        assert [digest(v) for v in values] == cold
        assert digest_stats.cache_evictions >= 1

    def test_verified_set_eviction_keeps_verdicts_correct(self):
        registry = KeyRegistry(2)
        registry._verified.max_entries = 4
        signer = registry.signer_for(0)
        signed = [signer.sign(("m", i)) for i in range(16)]
        assert all(registry.verify(s) for s in signed)
        assert len(registry._verified) <= 4
        assert all(registry.verify(s) for s in signed)  # re-verify post-clear
        forged = SignedPayload("zzz", Signature(0, digest("zzz")))
        assert not registry.verify(forged)


# --------------------------------------------------------------------- #
# the holder-encoding memo, against a naive reference encoder
# --------------------------------------------------------------------- #


def _framed(tag: bytes, body: bytes) -> bytes:
    return tag + b"%d:" % len(body) + body


def _reference_encode(value) -> bytes:
    """The canonical encoding, written the obvious recursive way: no
    work stack, no memo, no intern key, no plan, no stamp trusted."""
    t = type(value)
    if value is None:
        return b"N"
    if value is BOTTOM:
        return b"_"
    if t is bool:
        return b"b1" if value else b"b0"
    if t is int:
        return _framed(b"i", b"%d" % value)
    if t is float:
        return _framed(b"f", repr(value).encode())
    if t is str:
        return _framed(b"s", value.encode())
    if t is bytes:
        return _framed(b"y", value)
    if t is tuple or t is list:
        return _framed(b"t", b"".join(map(_reference_encode, value)))
    if t is frozenset:
        return _framed(b"S", b"".join(sorted(map(_reference_encode, value))))
    if t is dict:
        return _framed(b"d", b"".join(sorted(
            _reference_encode(k) + _reference_encode(v)
            for k, v in value.items()
        )))
    if t is SignedPayload:
        # Merkle-style: the payload's digest stands in for the payload.
        inner = hashlib.sha256(_reference_encode(value.payload)).digest()
        fields = _framed(b"y", inner) + _reference_encode(value.signature)
        body = _framed(b"t", fields)
    else:
        body = _reference_encode(value._canonical_fields())
    name = t.__name__.encode()
    return _framed(b"o", name) + body


def _reference_digest(value) -> bytes:
    return hashlib.sha256(_reference_encode(value)).digest()


_REGISTRY = KeyRegistry(4)
_SIGNERS = [_REGISTRY.signer_for(i) for i in range(4)]

_scalars = st.one_of(
    st.none(), st.just(BOTTOM), st.booleans(),
    st.integers(-(10**6), 10**6), st.floats(allow_nan=False),
    st.text(max_size=6), st.binary(max_size=6),
)
_hashables = st.recursive(
    _scalars, lambda inner: st.tuples(inner, inner), max_leaves=4
)
_signer = st.integers(0, 3)


def _composites(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(_hashables, children, max_size=3),
        st.frozensets(_hashables, max_size=3),
        # Stamped when the payload is stable (and so countersign chains
        # when the payload is itself signed) ...
        st.tuples(_signer, children).map(lambda p: _SIGNERS[p[0]].sign(p[1])),
        # ... and unstamped, as an adversary builds one by hand.
        st.tuples(_signer, children).map(
            lambda p: SignedPayload(p[1], Signature(p[0], b"\x07" * 32))
        ),
        st.tuples(
            st.integers(0, 9), st.lists(st.tuples(_signer, children), max_size=3)
        ).map(lambda c: Certificate(
            view=c[0],
            entries=tuple(_SIGNERS[i].sign(body) for i, body in c[1]),
        )),
    )


_trees = st.recursive(_scalars, _composites, max_leaves=24)

#: Pads a value past the intern tier's leaf cap, so its digest is always
#: the generic encoder's — the tier that splices memoized holder bytes.
_PAD = tuple(range(messages._MAX_INTERN_LEAVES + 1))


class TestHolderEncodingMemo:
    @settings(max_examples=150, deadline=None)
    @given(_trees)
    def test_digests_match_the_reference_cold_and_warm(self, tree):
        clear_digest_cache()
        expected = _reference_digest(tree)
        padded = (tree, _PAD)
        assert digest(tree) == expected  # cold
        assert digest(tree) == expected  # warm: identity memo
        assert canonical_encode(tree) == _reference_encode(tree)
        # Drop the digest tiers, keep the holder encodings: every holder
        # the first pass memoized is now spliced from the memo.
        messages._CACHE.clear()
        messages._INTERN.clear()
        assert digest(tree) == expected
        assert digest(padded) == _reference_digest(padded)
        messages._CACHE.clear()
        assert digest(padded) == _reference_digest(padded)

    @pytest.mark.parametrize("build", [
        lambda inner: SignedPayload(("v", inner), Signature(0, b"\x00" * 32)),
        lambda inner: _SIGNERS[1].sign(("v", inner)),
        lambda inner: Certificate(view=1, entries=inner),
        lambda inner: _SIGNERS[2].sign(_SIGNERS[3].sign(("v", inner))),
    ], ids=["unsigned-by-hand", "signed", "certificate", "countersigned"])
    def test_list_inside_a_holder_is_never_memoized(self, build):
        inner = [_SIGNERS[0].sign(("x", 1))]
        holder = build(inner)
        enclosing = ("wrap", holder, _PAD)
        before = digest(enclosing)
        assert before == _reference_digest(enclosing)
        assert messages._ENCODINGS.get(holder) is None
        inner.append(_SIGNERS[0].sign(("x", 2)))
        after = digest(enclosing)
        assert after != before
        assert after == _reference_digest(enclosing)
        assert messages._ENCODINGS.get(holder) is None

    def test_stable_holders_are_encoded_once(self, monkeypatch):
        votes = tuple(s.sign(("vote", "v")) for s in _SIGNERS)
        digest((votes, _PAD))
        assert all(messages._ENCODINGS.get(v) is not None for v in votes)
        # The pad first: the intern tier's key walk gives up on it before
        # it reaches a vote, so only the encoder sees the votes.
        other = (_PAD, tuple(reversed(votes)))
        expected = _reference_digest(other)

        def refuse(self):
            raise AssertionError("a memoized holder was re-encoded")

        # A new quorum over the same votes splices their encodings: not
        # one vote's fields are derived again.
        monkeypatch.setattr(SignedPayload, "_canonical_fields", refuse)
        assert digest(other) == expected

    def test_eviction_is_correctness_neutral(self, monkeypatch):
        monkeypatch.setattr(messages._ENCODINGS, "max_entries", 2)
        monkeypatch.setattr(messages._ENCODINGS, "max_bytes", 64)
        certs = [
            Certificate(view=i, entries=tuple(
                s.sign(("vote", i)) for s in _SIGNERS
            ))
            for i in range(6)
        ]
        values = [(cert, _PAD) for cert in certs] + [
            (tuple(cert.entries), _PAD) for cert in certs
        ]
        cold = [_reference_digest(v) for v in values]
        for _ in range(2):
            messages._CACHE.clear()
            assert [digest(v) for v in values] == cold
            assert len(messages._ENCODINGS) <= 2
            assert messages._ENCODINGS._bytes <= 64

    def test_golden_n1001_vote_quorum(self):
        # Brb2Round's forwarded quorum at n=1001: 668 stamped votes on one
        # shared body.  The digest is the one the code before the
        # holder-encoding memo computed; no tier may move it.
        registry = KeyRegistry(1001)
        body = ("vote", "v")
        votes = tuple(registry.signer_for(i).sign(body) for i in range(668))
        payload = ("vote-quorum", votes)
        golden = (
            "d17ca9a01b6a5fb5c5a938203565668e"
            "89ae09e5acb4ababaee7376a5a586422"
        )
        assert digest(payload).hex() == golden  # cold
        messages._CACHE.clear()
        assert digest(payload).hex() == golden  # every vote from the memo
        assert _reference_digest(payload).hex() == golden
