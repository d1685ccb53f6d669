"""Tests for the timing model wrappers."""
import pytest

from repro.errors import ConfigurationError
from repro.net import AsynchronyModel, PartialSynchronyModel, SynchronyModel


class TestSynchronyModel:
    def test_valid_parameters(self):
        model = SynchronyModel(delta=0.2, big_delta=1.0, skew=0.1)
        assert model.worst_case_policy().delay(0, 1, None, 0.0) == 0.2

    def test_delta_cannot_exceed_big_delta(self):
        with pytest.raises(ConfigurationError):
            SynchronyModel(delta=2.0, big_delta=1.0)

    def test_delta_positive(self):
        with pytest.raises(ConfigurationError):
            SynchronyModel(delta=0.0, big_delta=1.0)

    def test_negative_skew_rejected(self):
        with pytest.raises(ConfigurationError):
            SynchronyModel(delta=0.5, big_delta=1.0, skew=-0.1)

    def test_offsets_respect_skew(self):
        model = SynchronyModel(delta=0.5, big_delta=1.0, skew=0.5)
        offsets = model.offsets(5)
        assert max(offsets) - min(offsets) <= 0.5

    def test_random_policy_bounded_by_delta(self):
        model = SynchronyModel(delta=0.5, big_delta=1.0)
        policy = model.random_policy(seed=3)
        for _ in range(50):
            assert 0 <= policy.delay(0, 1, None, 0.0) <= 0.5


class TestPartialSynchronyModel:
    def test_stable_policy_uses_post_gst_delay(self):
        model = PartialSynchronyModel(big_delta=1.0, post_gst_delay=0.3)
        assert model.stable_policy().delay(0, 1, None, 5.0) == 0.3

    def test_default_post_gst_delay_is_big_delta(self):
        model = PartialSynchronyModel(big_delta=1.0)
        assert model.post_gst_delay == 1.0

    def test_policy_caps_in_flight_messages_at_gst(self):
        model = PartialSynchronyModel(big_delta=1.0, gst=10.0)
        policy = model.random_policy(seed=1)
        for t in (0.0, 5.0, 9.9):
            delay = policy.delay(0, 1, None, t)
            assert t + delay <= 11.0 + 1e-9

    def test_post_gst_messages_bounded(self):
        model = PartialSynchronyModel(big_delta=1.0, gst=10.0)
        policy = model.random_policy(seed=1)
        for t in (10.0, 20.0):
            assert policy.delay(0, 1, None, t) <= 1.0 + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PartialSynchronyModel(big_delta=0.0)
        with pytest.raises(ConfigurationError):
            PartialSynchronyModel(big_delta=1.0, gst=-1.0)
        with pytest.raises(ConfigurationError):
            PartialSynchronyModel(big_delta=1.0, post_gst_delay=2.0)


class TestAsynchronyModel:
    def test_policy_mean(self):
        model = AsynchronyModel(mean_delay=2.0)
        assert model.policy().delay(0, 1, None, 0.0) == 2.0

    def test_random_policy_spread(self):
        model = AsynchronyModel(mean_delay=1.0, spread=0.5)
        policy = model.random_policy(seed=9)
        for _ in range(50):
            assert 0.5 <= policy.delay(0, 1, None, 0.0) <= 1.5

    def test_zero_spread_is_fixed(self):
        model = AsynchronyModel(mean_delay=1.0, spread=0.0)
        policy = model.random_policy(seed=9)
        assert policy.delay(0, 1, None, 0.0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AsynchronyModel(mean_delay=0.0)
        with pytest.raises(ConfigurationError):
            AsynchronyModel(spread=1.5)
