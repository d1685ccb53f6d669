"""Property-based tests (hypothesis) on core data structures and invariants.

Protocol-level properties run full simulations per example, so example
counts are kept moderate; the substrate properties run wider.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.messages import canonical_encode, digest
from repro.crypto.signatures import KeyRegistry
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.sync.bb_2delta import Bb2Delta
from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
from repro.sim.clock import quantize, skewed_offsets
from repro.sim.events import EventQueue
from repro.sim.runner import run_broadcast
from repro.sim.delays import FixedDelay, UniformDelay
from repro.adversary.behaviors import CrashBehavior
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.types import BOTTOM, validate_resilience

# --------------------------------------------------------------------- #
# canonical encoding
# --------------------------------------------------------------------- #

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.binary(max_size=20),
)
nested = st.recursive(
    scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=12,
)


class TestCanonicalEncoding:
    @given(nested)
    @settings(max_examples=200)
    def test_encoding_is_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(nested, nested)
    @settings(max_examples=200)
    def test_digest_collision_implies_equal_encoding(self, a, b):
        if digest(a) == digest(b):
            assert canonical_encode(a) == canonical_encode(b)

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=5))
    @settings(max_examples=100)
    def test_dicts_are_rejected(self, assert_rejected, mapping):
        assert_rejected(lambda: canonical_encode(mapping), "dict")
        assert_rejected(lambda: digest(("wrap", mapping)), "dict")

    @given(st.lists(st.integers(), max_size=6))
    @settings(max_examples=100)
    def test_lists_are_rejected(self, assert_rejected, items):
        assert_rejected(lambda: canonical_encode(items), "list")
        assert_rejected(lambda: digest(("wrap", items)), "list")
        assert canonical_encode(tuple(items)).startswith(b"t")


# --------------------------------------------------------------------- #
# signatures
# --------------------------------------------------------------------- #


class TestSignatureProperties:
    @given(
        st.integers(2, 8),
        st.lists(st.tuples(st.integers(0, 7), nested), max_size=10),
    )
    @settings(max_examples=100)
    def test_signed_payloads_always_verify(self, n, items):
        registry = KeyRegistry(n)
        signers = {i: registry.signer_for(i) for i in range(n)}
        for party, payload in items:
            signed = signers[party % n].sign(payload)
            assert registry.verify(signed)

    @given(st.integers(2, 6), nested)
    @settings(max_examples=100)
    def test_unissued_signatures_never_verify(self, n, payload):
        from repro.crypto.signatures import Signature, SignedPayload

        registry = KeyRegistry(n)
        fake = SignedPayload(payload, Signature(0, digest(payload)))
        assert not registry.verify(fake)


# --------------------------------------------------------------------- #
# event queue
# --------------------------------------------------------------------- #


class TestEventQueueProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.integers(0, 3),
                st.binary(max_size=4),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150)
    def test_pops_in_total_order(self, entries):
        queue = EventQueue()
        for time, priority, key in entries:
            queue.push(time, lambda: None, priority=priority, order_key=key)
        popped = []
        while (entry := queue.pop()) is not None:
            popped.append(entry[:3])
        assert popped == sorted(popped)

    @given(st.lists(st.floats(0, 100, allow_nan=False), max_size=30),
           st.sets(st.integers(0, 29)))
    @settings(max_examples=100)
    def test_cancellation_removes_exactly_those(self, times, to_cancel):
        queue = EventQueue()
        handles = [queue.push(t, lambda: None) for t in times]
        for index in to_cancel:
            if index < len(handles):
                handles[index].cancel()
        remaining = 0
        while queue.pop() is not None:
            remaining += 1
        expected = len(times) - len([i for i in to_cancel if i < len(times)])
        assert remaining == expected


# --------------------------------------------------------------------- #
# clocks and resilience arithmetic
# --------------------------------------------------------------------- #


class TestClockProperties:
    @given(st.integers(1, 20), st.floats(0, 10, allow_nan=False))
    @settings(max_examples=100)
    def test_offsets_within_window_and_sorted(self, n, skew):
        offsets = skewed_offsets(n, skew)
        assert len(offsets) == n
        assert min(offsets) == 0.0
        assert max(offsets) <= skew + 1e-9
        assert offsets == sorted(offsets)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=200)
    def test_quantize_idempotent(self, value):
        assert quantize(quantize(value)) == quantize(value)


class TestResilienceProperties:
    @given(st.integers(1, 200), st.integers(0, 199))
    @settings(max_examples=200)
    def test_requirements_match_their_arithmetic(self, n, f):
        if f >= n:
            return
        expected = {
            "3f+1": n >= 3 * f + 1,
            "5f-1": n >= 5 * f - 1,
            "5f+1": n >= 5 * f + 1,
            "f<n/3": 3 * f < n,
            "f<=n/3": 3 * f <= n,
            "f<n/2": 2 * f < n,
            "f<n": True,
        }
        for requirement, holds in expected.items():
            if holds:
                validate_resilience(n, f, requirement=requirement)
            else:
                with pytest.raises(ValueError, match="violated"):
                    validate_resilience(n, f, requirement=requirement)
        # The central quorum-intersection fact the n - f quorums rest on:
        if n >= 3 * f + 1:
            assert 2 * (n - f) - n >= f + 1

    @given(st.integers(-5, 20), st.integers(-5, 25))
    @settings(max_examples=200)
    def test_out_of_range_budgets_rejected(self, n, f):
        if n >= 1 and 0 <= f < n:
            return
        with pytest.raises(ValueError, match="need"):
            validate_resilience(n, f, requirement="f<n")


# --------------------------------------------------------------------- #
# protocol invariants under randomized schedules and fault sets
# --------------------------------------------------------------------- #


class TestBrbInvariants:
    @given(
        st.integers(0, 10_000),
        st.sampled_from([(4, 1), (7, 2), (10, 3)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_good_case_at_most_2_rounds(self, seed, config):
        # "Good-case latency 2 rounds" is a max over schedules: no schedule
        # may exceed 2, while lucky ones can measure 1 (commits can land
        # before the last slow *proposal* delivery closes round 1).
        n, f = config
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=UniformDelay(0.05, 2.0, seed=seed),
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert 1 <= result.round_latency() <= 2

    @given(st.integers(0, 10_000), st.sets(st.integers(1, 6), max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_agreement_under_crashes(self, seed, crashed):
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=UniformDelay(0.05, 2.0, seed=seed),
            byzantine=frozenset(crashed),
            behavior_factory=CrashBehavior,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_agreement_under_equivocation_splits(self, split, seed):
        behavior = equivocating_broadcaster(
            make_broadcaster=Brb2Round.broadcaster_factory(broadcaster=0),
            groups={
                "zero": frozenset(range(1, 1 + split)),
                "one": frozenset(range(1 + split, 7)),
            },
        )
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="x"),
            delay_policy=UniformDelay(0.05, 2.0, seed=seed),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
        )
        assert len(set(result.commits.values())) <= 1


class TestSyncBbInvariants:
    @given(
        st.floats(0.05, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_2delta_bound_holds_for_any_delta_and_skew(self, delta, skew_frac):
        delta = quantize(delta)
        skew = quantize(min(skew_frac, 1.0) * delta)
        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Bb2Delta.factory(
                broadcaster=0, input_value="v", big_delta=1.0
            ),
            delay_policy=FixedDelay(delta),
            start_offsets=skewed_offsets(7, skew),
        )
        assert result.committed_value() == "v"
        # 2*delta measured from the broadcaster's start; stragglers add
        # at most the skew.
        assert result.latency_from(0.0) <= 2 * delta + skew + 1e-9

    @given(st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_fig9_grid_guarantee(self, m):
        delta = 0.37
        result = run_broadcast(
            n=5,
            f=2,
            party_factory=BbDelta15Delta.factory(
                broadcaster=0, input_value="v", big_delta=1.0,
                grid_samples=m,
            ),
            delay_policy=FixedDelay(delta),
        )
        latency = result.latency_from(0.0)
        assert latency <= (1 + 1 / (2 * m)) * 1.0 + 1.5 * delta + 1e-9
        assert latency >= 1.0 + 1.5 * delta - 1e-9
