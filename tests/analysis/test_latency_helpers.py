"""Tests for the latency measurement helpers."""
import pytest

from repro.analysis.latency import (
    measure_round_good_case,
    measure_sync_good_case,
)
from repro.errors import ConfigurationError
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.protocols.sync.bb_2delta import Bb2Delta


class TestMeasureSync:
    def test_reports_time_not_rounds(self):
        meas = measure_sync_good_case(
            Bb2Delta, n=7, f=2, delta=0.25, big_delta=1.0
        )
        assert meas.time_latency == pytest.approx(0.5)
        assert meas.round_latency is None
        assert meas.protocol == "Bb2Delta"
        assert meas.messages > 0

    def test_latency_measured_from_broadcaster_start(self):
        # With the "max" skew pattern and broadcaster 1 (which starts at
        # the skew offset), the latency is still relative to *its* start.
        meas = measure_sync_good_case(
            Bb2Delta, n=7, f=2, delta=0.25, big_delta=1.0, skew=0.25,
            broadcaster=1, skew_pattern="max",
        )
        assert meas.result.start_offsets == [0.0] + [0.25] * 6
        assert meas.time_latency == pytest.approx(0.5)

    def test_offsets_respect_skew(self):
        meas = measure_sync_good_case(
            Bb2Delta, n=7, f=2, delta=0.5, big_delta=1.0, skew=0.5
        )
        offsets = meas.result.start_offsets
        assert max(offsets) - min(offsets) <= 0.5

    def test_result_object_attached(self):
        meas = measure_sync_good_case(
            Bb2Delta, n=7, f=2, delta=0.25, big_delta=1.0
        )
        assert meas.result.committed_value() == "v"

    @pytest.mark.parametrize(
        "delta,big_delta,skew",
        [(2.0, 1.0, 0.0), (0.0, 1.0, 0.0), (-0.5, 1.0, 0.0), (0.5, 1.0, -0.1)],
        ids=["delta-above-Delta", "delta-zero", "delta-negative",
             "negative-skew"],
    )
    def test_invalid_timing_rejected(self, delta, big_delta, skew):
        with pytest.raises(ConfigurationError):
            measure_sync_good_case(
                Bb2Delta, n=7, f=2, delta=delta, big_delta=big_delta,
                skew=skew,
            )


class TestMeasureRounds:
    def test_runs_async_rounds(self):
        meas = measure_round_good_case(Brb2Round, n=7, f=2)
        assert meas.round_latency == 2
        assert meas.time_latency is None

    def test_psync_good_case(self):
        meas = measure_round_good_case(PsyncVbb5f1, n=9, f=2, big_delta=1.0)
        assert meas.round_latency == 2

    def test_custom_input_value(self):
        meas = measure_round_good_case(
            Brb2Round, n=4, f=1, input_value=("batch", 7)
        )
        assert meas.result.committed_value() == ("batch", 7)
