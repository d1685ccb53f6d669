"""Counter-based randomness: the shard-safe stream primitives.

``CounterStream`` prices each draw as a pure hash of ``(seed, sender,
recipient, per-link counter)``, so any executor that walks a link's
copies in the same per-link order reproduces the same values — the
property that lets ``UniformDelay(stream="counter")`` and counter-stream
``FaultPlan`` compilations run sharded without schedule drift.  This
module pins the primitives themselves; the end-to-end shard parity lives
in ``test_sharded.py``.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultPlanError
from repro.sim.delays import CounterStream, UniformDelay, splitmix64
from repro.sim.faults import Crash, DropLink, FaultPlan

from fault_route_oracle import copy_key, draws


class TestSplitmix64:
    def test_deterministic_and_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15):
            a = splitmix64(x)
            assert a == splitmix64(x)
            assert 0 <= a < 2**64

    def test_nearby_inputs_decorrelate(self):
        outputs = {splitmix64(x) for x in range(1000)}
        assert len(outputs) == 1000


class TestCounterStream:
    def test_same_seed_same_sequence(self):
        a = CounterStream(42)
        b = CounterStream(42)
        seq_a = [draws(a, 3, 7).random() for _ in range(50)]
        seq_b = [draws(b, 3, 7).random() for _ in range(50)]
        assert seq_a == seq_b
        assert all(0.0 <= u < 1.0 for u in seq_a)

    def test_links_are_independent(self):
        # Interleaving draws across links must not change any link's
        # own sequence — the heart of shard-safety: each shard walks
        # only its own links, in its own order.
        solo = CounterStream(7)
        expected = {
            (s, r): [draws(solo, s, r).random() for _ in range(10)]
            for s in range(3)
            for r in range(3)
            if s != r
        }
        interleaved = CounterStream(7)
        got = {link: [] for link in expected}
        for _ in range(10):
            for link in expected:
                got[link].append(draws(interleaved, *link).random())
        assert got == expected

    def test_seed_and_salt_produce_distinct_streams(self):
        base = [draws(CounterStream(1), 0, 1).random() for _ in range(1)]
        other_seed = [draws(CounterStream(2), 0, 1).random()]
        salted = [draws(CounterStream(1, salt=99), 0, 1).random()]
        assert base != other_seed
        assert base != salted

    def test_draws_walk_within_one_copy(self):
        # One copy_key, many in-copy draws (what the injector's
        # primitives consume): deterministic, and distinct from the
        # next copy's draws.
        first = draws(CounterStream(5), 1, 2)
        again = draws(CounterStream(5), 1, 2)
        assert [first.random() for _ in range(5)] == [
            again.random() for _ in range(5)
        ]
        stream = CounterStream(5)
        draws(stream, 1, 2)
        second_copy = draws(stream, 1, 2)
        assert first.random() != second_copy.random()


class TestUniformDelayCounterMode:
    def test_rejects_unknown_stream(self):
        with pytest.raises(ValueError):
            UniformDelay(0.1, 1.0, seed=1, stream="quantum")

    def test_shard_safety_by_stream(self):
        assert not UniformDelay(0.1, 1.0, seed=1).shard_safe()
        assert UniformDelay(
            0.1, 1.0, seed=1, stream="counter"
        ).shard_safe()

    def test_delay_in_bounds_and_seed_pinned(self):
        a = UniformDelay(0.25, 0.75, seed=11, stream="counter")
        b = UniformDelay(0.25, 0.75, seed=11, stream="counter")
        for _ in range(20):
            d = a.delay(0, 1, None, 0.0)
            assert d == b.delay(0, 1, None, 0.0)
            assert 0.25 <= d <= 0.75

    def test_multicast_matches_per_copy_delays(self):
        # The vectorized fan-out path must price exactly what n calls
        # to delay() would: both tick the same per-link counters.
        fanout = UniformDelay(0.05, 1.0, seed=3, stream="counter")
        single = UniformDelay(0.05, 1.0, seed=3, stream="counter")
        recipients = [1, 2, 3, 4, 5]
        vector = fanout.delays_for_multicast(0, recipients, None, 0.0)
        assert list(vector) == [
            single.delay(0, r, None, 0.0) for r in recipients
        ]

    def test_split_fanout_matches_whole_fanout(self):
        # Sharded worlds call delays_for_multicast once per shard-local
        # range; the concatenation must equal one whole-fan-out call.
        whole = UniformDelay(0.05, 1.0, seed=9, stream="counter")
        split = UniformDelay(0.05, 1.0, seed=9, stream="counter")
        all_at_once = list(
            whole.delays_for_multicast(2, range(0, 8), None, 0.0)
        )
        piecewise = list(
            split.delays_for_multicast(2, range(0, 3), None, 0.0)
        ) + list(split.delays_for_multicast(2, range(3, 8), None, 0.0))
        assert piecewise == all_at_once


@st.composite
def packed_fan_outs(draw):
    """A world size, a sender at an edge or anywhere, one of its two
    multicast ranges or any sub-range, and the link traffic before it:
    whole repeats of the fan-out and a few unicasts, so the counters
    enter both equal and unequal."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(2, 2001)))
    sender = draw(st.one_of(
        st.sampled_from([0, 1, n - 2, n - 1]), st.integers(0, n - 1),
    ))
    below, above = range(0, sender), range(sender + 1, n)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    recipients = draw(st.sampled_from(
        [r for r in (below, above) if r] + [range(lo, hi)]
    ))
    unicasts = draw(st.lists(st.sampled_from(recipients), max_size=4))
    return dict(
        n=n, sender=sender, recipients=recipients,
        seed=draw(st.integers(0, 2**64 - 1)),
        salt=draw(st.sampled_from([0, 1, 0x5EED, 2**63 + 5])),
        repeats=draw(st.integers(0, 3)), unicasts=unicasts,
    )


class TestPackedPass:
    """``CounterStream.packed_words`` is the per-copy loop's SplitMix64,
    run on every 128-bit lane of one int at once: bit for bit the same
    words, and the same counter ticks."""

    @settings(max_examples=150, deadline=None)
    @given(case=packed_fan_outs())
    def test_packed_words_match_the_scalar_loop(self, case):
        sender, recipients = case["sender"], case["recipients"]
        packed = CounterStream(case["seed"], salt=case["salt"])
        scalar = CounterStream(case["seed"], salt=case["salt"])
        for stream in (packed, scalar):
            for recipient in case["unicasts"]:
                copy_key(stream, sender, recipient)
        for _ in range(case["repeats"] + 1):
            words = packed.packed_words(sender, recipients)
            assert list(words) == [
                splitmix64(copy_key(scalar, sender, recipient))
                for recipient in recipients
            ]
        assert packed._counters == scalar._counters
        assert packed._lanes[0] == recipients.stop

    @settings(max_examples=60, deadline=None)
    @given(case=packed_fan_outs())
    def test_uniform_fan_out_matches_list_recipients(self, case):
        # A ``range`` slices its recipient keys off the stream's table,
        # the same recipients as a list pack theirs one by one.
        sender, recipients = case["sender"], case["recipients"]
        ranged = UniformDelay(0.05, 1.0, seed=case["seed"], stream="counter")
        listed = UniformDelay(0.05, 1.0, seed=case["seed"], stream="counter")
        for _ in range(case["repeats"] + 1):
            assert ranged.delays_for_multicast(
                sender, recipients, None, 0.0
            ) == listed.delays_for_multicast(
                sender, list(recipients), None, 0.0
            )
        assert ranged._counter._counters == listed._counter._counters

    def test_constants_are_one_table_sized_to_the_largest_fan_out(self):
        stream = CounterStream(11)
        for size in range(1, 2002, 50):
            stream.packed_words(0, range(1, size + 1))
            # Grown to exactly what the largest fan-out so far needed.
            assert stream._lanes[0] == size + 1
        # Smaller fan-outs slice it; nothing is kept per size.
        for size in (3, 300, 1001):
            stream.packed_words(1, range(2, size))
            assert stream._lanes[0] == 2002
        lanes, ones, keys = stream._lanes
        assert ones.bit_length() <= 128 * lanes
        assert keys.bit_length() <= 128 * lanes


class TestFaultPlanStream:
    def test_default_is_sequential_and_not_shard_safe(self):
        plan = FaultPlan(crashes=(Crash(party=1, at=0.5),))
        assert plan.stream == "sequential"
        assert not plan.shard_safe()

    def test_counter_stream_is_shard_safe(self):
        plan = FaultPlan(
            crashes=(Crash(party=1, at=0.5),), stream="counter"
        )
        plan.validate(4)
        assert plan.shard_safe()

    def test_leader_crashes_never_shard_safe(self):
        from repro.sim.faults import CrashLeader

        plan = FaultPlan(
            leader_crashes=(CrashLeader(view=1, at=0.0),),
            stream="counter",
        )
        assert not plan.shard_safe()

    def test_validate_rejects_unknown_stream(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(stream="quantum").validate(4)

    def test_json_round_trip_preserves_stream(self):
        plan = FaultPlan(
            drops=(DropLink(src=2, prob=0.5),),
            seed=13,
            stream="counter",
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.stream == "counter"
        assert FaultPlan.from_json(FaultPlan().to_json()).stream == (
            "sequential"
        )

    def test_without_preserves_stream(self):
        drop = DropLink(src=2, prob=0.5)
        plan = FaultPlan(
            crashes=(Crash(party=1, at=0.5),),
            drops=(drop,),
            stream="counter",
        )
        shrunk = plan.without(drop)
        assert shrunk.drops == ()
        assert shrunk.stream == "counter"
