"""Tests for the percentile latency-distribution benchmark."""
import pytest

from repro.analysis.engine import SweepEngine
from repro.analysis.sweeps import (
    latency_percentiles,
    sweep_latency_distribution,
)


class TestLatencyPercentiles:
    def test_nearest_rank_values_are_observed_samples(self):
        sample = [0.4, 0.1, 0.3, 0.2]
        out = latency_percentiles(sample, percentiles=(50, 90, 99))
        assert out["p50"] == 0.2
        assert out["p90"] == 0.4
        assert out["p99"] == 0.4
        assert set(out.values()) <= set(sample)

    def test_single_sample(self):
        assert latency_percentiles([1.5]) == {
            "p50": 1.5, "p90": 1.5, "p99": 1.5
        }

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            latency_percentiles([])


class TestSweepLatencyDistribution:
    def test_rows_shape_and_ordering(self):
        rows = sweep_latency_distribution(
            grid=[("brb_2round", 4, 1), ("brb_2round", 7, 2)],
            samples=6,
            delta=0.5,
        )
        assert [(r["n"], r["f"]) for r in rows] == [(4, 1), (7, 2)]
        for row in rows:
            assert row["samples"] == 6
            assert row["min"] <= row["p50"] <= row["p90"] <= row["p99"]
            assert row["p99"] <= row["max"]
            assert 0.0 < row["mean"] <= row["max"]

    def test_deterministic_across_worker_counts(self):
        kwargs = dict(grid=[("brb_2round", 4, 1)], samples=5, delta=1.0)
        serial = sweep_latency_distribution(
            engine=SweepEngine(workers=1), **kwargs
        )
        parallel = sweep_latency_distribution(
            engine=SweepEngine(workers=2), **kwargs
        )
        assert serial == parallel

    def test_base_seed_changes_distribution(self):
        kwargs = dict(grid=[("brb_2round", 4, 1)], samples=5, delta=1.0)
        a = sweep_latency_distribution(engine=SweepEngine(base_seed=0), **kwargs)
        b = sweep_latency_distribution(engine=SweepEngine(base_seed=1), **kwargs)
        assert a != b

    def test_protocol_triples_cover_second_family(self):
        rows = sweep_latency_distribution(
            grid=[("brb_2round", 4, 1), ("psync_vbb_5f1", 7, 1)],
            samples=4,
            delta=1.0,
        )
        assert [(r["protocol"], r["n"]) for r in rows] == [
            ("brb_2round", 4), ("psync_vbb_5f1", 7),
        ]
        for row in rows:
            assert row["min"] <= row["p50"] <= row["p99"] <= row["max"]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            sweep_latency_distribution(
                grid=[("nope", 4, 1)], samples=2, delta=1.0
            )
