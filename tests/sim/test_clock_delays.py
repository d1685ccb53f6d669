"""Tests for local clocks, skew generation, and delay policies."""
import pytest

from repro.sim.clock import LocalClock, skewed_offsets
from repro.sim.delays import (
    FixedDelay,
    FunctionDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.types import INF

NAN = float("nan")


class TestLocalClock:
    def test_local_global_roundtrip(self):
        clock = LocalClock(2.5)
        assert clock.local_time(10.0) == 7.5
        assert clock.global_time(7.5) == 10.0

    def test_zero_offset(self):
        clock = LocalClock()
        assert clock.local_time(3.0) == 3.0

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            LocalClock(-1.0)


class TestSkewedOffsets:
    def test_zero_pattern(self):
        assert skewed_offsets(4, 0.5, pattern="zero") == [0.0] * 4

    def test_staggered_spans_window(self):
        offsets = skewed_offsets(5, 1.0, pattern="staggered")
        assert offsets[0] == 0.0
        assert offsets[-1] == 1.0
        assert offsets == sorted(offsets)
        assert all(0 <= o <= 1.0 for o in offsets)

    def test_max_pattern(self):
        assert skewed_offsets(3, 0.7, pattern="max") == [0.0, 0.7, 0.7]

    def test_single_party(self):
        assert skewed_offsets(1, 1.0) == [0.0]

    def test_zero_skew_any_pattern(self):
        assert skewed_offsets(3, 0.0, pattern="max") == [0.0] * 3

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            skewed_offsets(3, 1.0, pattern="nope")

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            skewed_offsets(3, -0.1)


class TestDelayPolicies:
    def test_fixed(self):
        policy = FixedDelay(0.25)
        assert policy.delay(0, 1, "m", 0.0) == 0.25

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedDelay(-0.1)

    def test_uniform_is_seed_deterministic(self):
        a = UniformDelay(0.1, 0.9, seed=7)
        b = UniformDelay(0.1, 0.9, seed=7)
        seq_a = [a.delay(0, 1, None, 0.0) for _ in range(20)]
        seq_b = [b.delay(0, 1, None, 0.0) for _ in range(20)]
        assert seq_a == seq_b
        assert all(0.1 <= d <= 0.9 for d in seq_a)

    def test_uniform_bounds_validated(self):
        with pytest.raises(ValueError):
            UniformDelay(0.9, 0.1, seed=1)

    def test_per_link(self):
        policy = PerLinkDelay({(0, 1): 2.0, (1, 0): INF}, default=0.5)
        assert policy.delay(0, 1, None, 0.0) == 2.0
        assert policy.delay(1, 0, None, 0.0) == INF
        assert policy.delay(2, 3, None, 0.0) == 0.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FixedDelay(NAN),
            lambda: FixedDelay(INF),
            lambda: UniformDelay(NAN, 1.0, seed=1),
            lambda: UniformDelay(0.0, NAN, seed=1),
            lambda: UniformDelay(0.0, INF, seed=1),
            lambda: UniformDelay(0.0, INF, seed=1, stream="counter"),
            lambda: PerLinkDelay({(0, 1): NAN}, default=0.5),
            lambda: PerLinkDelay({}, default=NAN),
        ],
        ids=[
            "fixed-nan", "fixed-inf", "uniform-nan-low", "uniform-nan-high",
            "uniform-inf", "uniform-inf-counter", "per-link-nan-link",
            "per-link-nan-default",
        ],
    )
    def test_nan_and_silent_drops_rejected(self, build):
        # NaN used to surface only at the first multicast, as a misleading
        # "non-finite instant"; an infinite fixed or uniform delay used to
        # drop every copy and end the run at t=0 with no commit and no
        # error.  ``PerLinkDelay`` keeps ``INF`` per link on purpose (the
        # lower-bound constructions cut links with it).
        with pytest.raises(ValueError):
            build()

    def test_function_delay(self):
        policy = FunctionDelay(lambda s, r, p, t: 0.1 * (s + r))
        assert policy.delay(1, 2, None, 0.0) == pytest.approx(0.3)

