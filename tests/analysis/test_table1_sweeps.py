"""Tests for the Table 1 generator and the figure sweeps."""
import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis import (
    format_table,
    generate_table1,
    sweep_async_rounds,
    sweep_dishonest_majority,
    sweep_fig9_tradeoff,
    sweep_sync_regimes,
)
from repro.analysis import table1 as table1_mod
from repro.analysis.table1 import REGIMES
from repro.lowerbounds import WITNESSES
from repro.sim.delays import FixedDelay
from repro.sim.runner import World

#: Recorded at the parent of the PR that made Table 1 a table (PR 16).
GOLDEN = json.loads(
    (Path(__file__).parent / "table1_golden.json").read_text()
)
TABLE1 = [regime for regime in REGIMES if regime.witness]


@pytest.fixture(scope="module")
def table1():
    return generate_table1(delta=0.25, big_delta=1.0)


class TestTable1:
    def test_has_all_eight_rows(self, table1):
        assert len(table1) == 8

    def test_every_row_matches_the_paper(self, table1):
        for row in table1:
            assert row.matches, f"row mismatch: {row}"

    def test_round_rows(self, table1):
        rounds = {
            row.resilience: row.measured
            for row in table1
            if "round" in row.bound
        }
        assert rounds["n >= 3f+1"] == "2 rounds"
        assert rounds["n >= 5f-1"] == "2 rounds"
        assert rounds["3f+1 <= n <= 5f-2"] == "3 rounds"

    def test_sync_rows_numeric(self, table1):
        by_bound = {row.bound: float(row.measured) for row in table1
                    if row.timing.startswith("synchrony")}
        assert by_bound["2*delta"] == pytest.approx(0.5)
        assert by_bound["Delta + delta"] == pytest.approx(1.25)
        assert by_bound["Delta + 1.5*delta"] == pytest.approx(1.375)

    def test_format_table_renders(self, table1):
        text = format_table(table1)
        assert "psync-BB" in text
        assert "Delta + 1.5*delta" in text
        assert "NO" not in text


class TestOffGridDelta:
    """The Figure 9 row is judged by its own m: two-sided, at any delta."""

    def test_every_row_matches_at_delta_03(self):
        rows = generate_table1(delta=0.3, big_delta=1.0)
        assert all(row.matches for row in rows), format_table(rows)
        fig9 = next(r for r in rows if r.bound == "Delta + 1.5*delta")
        # Between the tight bound and the m = 8 guarantee (1.45, 1.5125).
        assert 1.45 < float(fig9.measured) <= (1 + 1 / 16) + 1.5 * 0.3

    def test_latency_below_the_tight_bound_does_not_match(self, monkeypatch):
        real = table1_mod.measure_sync_good_case

        def too_fast(protocol_cls, **kwargs):
            meas = real(protocol_cls, **kwargs)
            if protocol_cls.__name__ != "BbDelta15Delta":
                return meas
            return dataclasses.replace(
                meas, time_latency=meas.time_latency - 0.05
            )

        monkeypatch.setattr(table1_mod, "measure_sync_good_case", too_fast)
        verdicts = {
            row.bound: row.matches
            for row in generate_table1(delta=0.25, big_delta=1.0)
        }
        assert verdicts.pop("Delta + 1.5*delta") is False
        assert all(verdicts.values())


class TestRegimeTable:
    """The categorization is complete and self-consistent."""

    def test_table1_rows_in_paper_order_with_pinned_bounds(self, table1):
        assert [(r.problem, r.resilience) for r in TABLE1] == [
            (row.problem, row.resilience) for row in table1
        ]
        assert [r.bound for r in TABLE1] == [
            "2 rounds", "2 rounds", "3 rounds", "2*delta", "Delta + delta",
            "Delta + delta", "Delta + 1.5*delta",
            "(floor(n/(n-f))-1)*Delta <= L <= O(n/(n-f))*Delta",
        ]
        assert [r.expected(0.25, 1.0, r.n, r.f) for r in TABLE1] == [
            2, 2, 3, 0.5, 1.25, 1.25, 1.375, 7.0
        ]
        # The comparison protocols follow the table and prove nothing.
        assert [r.witness for r in REGIMES[len(TABLE1):]] == [None, None]

    @pytest.mark.parametrize(
        "regime", REGIMES, ids=[r.protocol.__name__ for r in REGIMES]
    )
    def test_sample_size_is_inside_the_regime(self, regime):
        assert regime.admits(regime.n, regime.f)
        # The protocol's own validate_resilience call accepts it.
        kwargs = {} if regime.timing == "asynchrony" else {"big_delta": 1.0}
        world = World(n=regime.n, f=regime.f, delay_policy=FixedDelay(1.0))
        world.populate(
            regime.protocol.factory(broadcaster=0, input_value="v", **kwargs)
        )

    def test_resilience_ranges_partition(self):
        def model(regime):
            return regime.timing.split(" (")[0], regime.start

        for regime in TABLE1:
            for other in TABLE1:
                if other is not regime and model(other) == model(regime):
                    assert not other.admits(regime.n, regime.f), (
                        f"{regime.resilience} sample also in "
                        f"{other.resilience}"
                    )

    def test_every_table1_row_names_a_registered_witness(self):
        assert {r.witness for r in TABLE1} == set(WITNESSES)


class TestGoldenParity:
    """Field-for-field what the hand-written blocks produced."""

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_table1_rows(self, delta):
        rows = generate_table1(delta=delta, big_delta=1.0)
        assert [
            list(dataclasses.astuple(row)) for row in rows
        ] == GOLDEN["table1"][str(delta)]

    def test_sync_sweep_series_and_points(self):
        series = sweep_sync_regimes(deltas=[0.25, 0.5, 1.0])
        assert [
            [name, [[p.x, p.latency, p.label] for p in points]]
            for name, points in series.items()
        ] == GOLDEN["sweep"]


class TestSyncSweep:
    @pytest.fixture(scope="class")
    def series(self):
        return sweep_sync_regimes(deltas=[0.2, 0.5, 1.0])

    def test_exact_formulas(self, series):
        for point in series["2delta (f<n/3)"]:
            assert point.latency == pytest.approx(2 * point.x)
        for point in series["Delta+delta (f=n/3)"]:
            assert point.latency == pytest.approx(1.0 + point.x)
        for point in series["Delta+delta (sync start)"]:
            assert point.latency == pytest.approx(1.0 + point.x)
        for point in series["Delta+1.5delta (unsync)"]:
            assert point.latency == pytest.approx(1.0 + 1.5 * point.x)
        for point in series["Delta+2delta (baseline)"]:
            assert point.latency == pytest.approx(1.0 + 2 * point.x)

    def test_worst_case_baseline_is_flat_and_slow(self, series):
        latencies = [p.latency for p in series["DolevStrong (worst-case)"]]
        assert all(lat == pytest.approx(6.0) for lat in latencies)

    def test_ordering_between_regimes_at_small_delta(self, series):
        # At delta << Delta: 2delta < Delta+delta < Delta+1.5delta <
        # Delta+2delta < DolevStrong.
        at = {name: pts[0].latency for name, pts in series.items()}
        assert (
            at["2delta (f<n/3)"]
            < at["Delta+delta (f=n/3)"]
            <= at["Delta+delta (sync start)"]
            < at["Delta+1.5delta (unsync)"]
            < at["Delta+2delta (baseline)"]
            < at["DolevStrong (worst-case)"]
        )


class TestTradeoffSweep:
    def test_latency_improves_with_m_and_respects_bounds(self):
        delta, big_delta = 0.3, 1.0
        points = sweep_fig9_tradeoff(
            grid_sizes=[1, 2, 4, 8, 16], delta=delta, big_delta=big_delta
        )
        latencies = [p.latency for p in points]
        # Monotone non-increasing in m, within the paper's guarantee.
        assert latencies == sorted(latencies, reverse=True)
        for point in points:
            m = int(point.x)
            assert point.latency <= (1 + 1 / (2 * m)) * big_delta + (
                1.5 * delta
            ) + 1e-9
            assert point.latency >= big_delta + 1.5 * delta - 1e-9


class TestDishonestMajoritySweep:
    def test_latency_tracks_the_ratio(self):
        records = sweep_dishonest_majority(
            configs=[(4, 2), (6, 4), (8, 6), (10, 8)]
        )
        latencies = [r["latency"] for r in records]
        assert latencies == sorted(latencies)
        for record in records:
            assert record["latency"] == pytest.approx(record["upper_shape"])
            assert record["latency"] >= record["lower_bound"]

    def test_gap_is_roughly_factor_two(self):
        # The paper's open problem: a factor-2 gap between LB and UB.
        records = sweep_dishonest_majority(configs=[(8, 6), (10, 8)])
        for record in records:
            assert record["upper_shape"] <= 4 * max(record["lower_bound"], 1)


class TestAsyncSweep:
    def test_round_latencies_constant_in_n(self):
        records = sweep_async_rounds(configs=[(4, 1), (7, 2), (10, 3)])
        for record in records:
            assert record["brb_2round"] == 2
            assert record["bracha"] == 3


class TestEquivocatingVoterSweep:
    def test_detection_grows_with_corruption(self):
        from repro.analysis.sweeps import sweep_equivocating_voters

        rows = sweep_equivocating_voters(
            n=16, f=5, equivocator_counts=[0, 2, 5]
        )
        assert [r["equivocators"] for r in rows] == [0, 2, 5]
        for row in rows:
            assert row["all_committed"]
            assert row["agreement"]
            assert row["quorum_checks"] > 0
        assert rows[0]["equivocations_detected"] == 0
        # Each corrupted point has seeded random delays of its own, so
        # the counts need not be strictly monotone across points — but
        # every corrupted run must expose at least its equivocators.
        for row in rows[1:]:
            assert row["equivocations_detected"] >= row["equivocators"]

    def test_deterministic_across_workers(self):
        from repro.analysis.engine import SweepEngine
        from repro.analysis.sweeps import sweep_equivocating_voters

        serial = sweep_equivocating_voters(
            n=10, f=3, equivocator_counts=[1, 3]
        )
        parallel = sweep_equivocating_voters(
            n=10, f=3, equivocator_counts=[1, 3],
            engine=SweepEngine(workers=2),
        )
        assert serial == parallel

    def test_crashers_knob_mixes_fault_flavors(self):
        """Spend the budget as crashes + equivocations in one run: honest
        parties still commit, the equivocators are still exposed, and the
        crashed parties (silent, not double-voting) are not."""
        from repro.analysis.sweeps import sweep_equivocating_voters

        rows = sweep_equivocating_voters(
            n=10, f=3, equivocator_counts=[0, 2], crashers=1
        )
        assert [r["crashers"] for r in rows] == [1, 1]
        for row in rows:
            assert row["all_committed"]
            assert row["agreement"]
        assert rows[0]["equivocations_detected"] == 0
        assert rows[1]["equivocations_detected"] >= 2
