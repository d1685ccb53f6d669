"""Tests for the chaos sweep: plan generation, execution, shrinking.

The acceptance-critical case lives here: a deliberately over-budget plan
(f+1 crashes against brb_2round's f=2... plus decoy primitives) must be
*caught* by the termination monitor and then *shrunk* to the minimal
reproducer — exactly the crash set, decoys stripped.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.chaos import (
    _TIERS,
    CHAOS_SPECS,
    CHAOS_TIERS,
    _plan,
    random_fault_plan,
    run_chaos,
    run_chaos_plan,
    run_reproducer,
    shrink_failing_plan,
    shrink_plan,
    sweep_chaos,
)
from repro.analysis.engine import SweepEngine
from repro.errors import InvariantViolation
from repro.protocols import PROTOCOLS
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay
from repro.sim.faults import Crash, DuplicateLink, FaultPlan, ReorderJitter
from repro.sim.invariants import judge
from repro.sim.runner import RunResult, World


class TestRandomFaultPlan:
    def test_deterministic_in_protocol_and_seed(self):
        for protocol in CHAOS_SPECS:
            assert random_fault_plan(protocol, 3) == random_fault_plan(
                protocol, 3
            ), protocol

    def test_every_spec_generates_tolerated_plans(self):
        for protocol, spec in CHAOS_SPECS.items():
            for seed in range(12):
                plan = random_fault_plan(protocol, seed)
                deadline = plan.quiet_time() + spec.slack
                assert plan.check_tolerated(
                    n=spec.n, f=spec.f, deadline=deadline
                ) == [], (protocol, seed)
                assert 0 not in plan.crashed_parties(), (protocol, seed)
                assert len(plan.crashed_parties()) <= spec.f

    def test_sync_specs_never_alter_delays(self):
        """A synchronous protocol is entitled to its delta bound: no
        jitter, partitions or churn may be generated for it."""
        for protocol, spec in CHAOS_SPECS.items():
            if spec.timing != "sync":
                continue
            for seed in range(20):
                plan = random_fault_plan(protocol, seed)
                assert not plan.jitters, (protocol, seed)
                assert not plan.partitions, (protocol, seed)
                assert not plan.churns, (protocol, seed)


class TestRunChaosPlan:
    def test_tolerated_plan_yields_no_violation(self):
        plan = random_fault_plan("brb_2round", 1)
        row = run_chaos_plan("brb_2round", plan)
        assert row["violation"] is None
        assert row["commits"] >= CHAOS_SPECS["brb_2round"].n - len(
            plan.crashed_parties()
        )

    def test_row_reports_injection_counters(self):
        plan = FaultPlan(
            duplicates=(DuplicateLink(prob=1.0, end=2.0),), seed=4
        )
        row = run_chaos_plan("brb_2round", plan)
        assert row["violation"] is None
        assert row["messages_duplicated"] > 0
        assert row["faults_injected"] >= row["messages_duplicated"]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            run_chaos_plan("no_such_protocol", FaultPlan())


class TestShardedChaos:
    """Counter-stream plans under sharded execution.

    A ``stream="counter"`` plan runs shard-safe and the monitor battery
    is replayed over the merged RunResult: the sharded row must replay
    its single-process twin's schedule — same commits and fault
    counters — while actually exchanging cross-shard batches.
    """

    def _counter_plan(self, seed: int) -> FaultPlan:
        return replace(
            random_fault_plan("brb_2round", seed), stream="counter"
        )

    @pytest.mark.parametrize("seed", [1, 5])
    def test_sharded_run_matches_single_process(self, seed):
        plan = self._counter_plan(seed)
        single = run_chaos_plan("brb_2round", plan, shards=1)
        sharded = run_chaos_plan("brb_2round", plan, shards=2)
        assert single["violation"] is None
        assert sharded["violation"] is None
        assert sharded["shards"] == 2
        assert sharded["shard_batches_exchanged"] > 0
        assert sharded["shard_bytes_sent"] > 0
        assert sharded["shard_fallback_reason"] is None
        for field in (
            "commits",
            "faults_injected",
            "messages_dropped",
            "messages_duplicated",
            "messages_held",
        ):
            assert sharded[field] == single[field], field

    def test_sequential_plan_rejected_when_sharded(self):
        plan = random_fault_plan("brb_2round", 1)
        assert plan.stream == "sequential"
        with pytest.raises(ValueError):
            run_chaos_plan("brb_2round", plan, shards=2)

    @pytest.mark.parametrize("tier", CHAOS_TIERS)
    def test_every_tier_shards_with_parity(self, tier):
        """Every tier's battery is replayed over the merged result, so
        every tier runs sharded: each spec's counter-stream rows at
        shards 2 and 3 equal the single-process row but for the shard
        counters and ``events_processed`` (a shard's local calendar
        events differ; the schedule does not)."""
        def comparable(row):
            return {
                key: value for key, value in row.items()
                if not key.startswith("shard") and key != "events_processed"
            }

        for protocol in _TIERS[tier].specs:
            for seed in (0, 1, 2):
                plan = _plan(tier, protocol, seed, "counter")
                single = run_chaos_plan(protocol, plan, tier=tier)
                assert single["violation"] is None, (protocol, seed)
                if _TIERS[tier].gate is not None:
                    assert _TIERS[tier].gate(single) is None
                for shards in (2, 3):
                    row = run_chaos_plan(
                        protocol, plan, tier=tier, shards=shards
                    )
                    assert row["shards"] == shards, (protocol, seed)
                    assert comparable(row) == comparable(single), (
                        protocol, seed, shards,
                    )

    def test_over_budget_counter_plan_fails_the_same_way_sharded(self):
        """The replayed battery names the same breach whether the merged
        result came from one process or two."""
        plan = replace(_OVER_BUDGET, stream="counter")
        single = run_chaos_plan("brb_2round", plan, shards=1)
        sharded = run_chaos_plan("brb_2round", plan, shards=2)
        assert sharded["shards"] == 2
        for row in (single, sharded):
            assert row["violation"]["invariant"] == "termination"
        assert sharded["violation"]["party"] == single["violation"]["party"]


class _Recommitter(Brb2Round):
    """Party 5 re-commits ``"other"`` right after its first commit."""

    def commit(self, value):
        super().commit(value)
        if self.id == 5:
            super().commit("other")


class TestIntegrityOnEveryStream:
    """A re-commit of another value breaches integrity on every stream
    and shard count: the replayed battery reads it from
    ``RunResult.commit_conflicts``."""

    @pytest.mark.parametrize(
        "stream, shards", [("sequential", 1), ("counter", 1), ("counter", 2)]
    )
    def test_recommit_is_an_integrity_violation(
        self, stream, shards, monkeypatch
    ):
        monkeypatch.setitem(PROTOCOLS, "brb_2round", _Recommitter)
        row = run_chaos_plan(
            "brb_2round", FaultPlan(stream=stream), shards=shards
        )
        assert row["shards"] == shards
        assert row["violation"]["invariant"] == "integrity"
        assert row["violation"]["party"] == 5


#: Stub merged results for the replayed battery, over n=4, f=1,
#: broadcaster 0 with input "v": (label, plan, commits, invariant the
#: battery must name, or None for a clean verdict).
REPLAY_TABLE = [
    ("all commit the input", FaultPlan(),
     {0: "v", 1: "v", 2: "v", 3: "v"}, None),
    ("split commit values", FaultPlan(),
     {0: "v", 1: "v", 2: "w", 3: "v"}, "agreement"),
    ("wrong value under an honest broadcaster", FaultPlan(),
     {0: "w", 1: "w", 2: "w", 3: "w"}, "validity"),
    ("one live honest party missing", FaultPlan(),
     {0: "v", 1: "v", 2: "v"}, "termination"),
    ("only a plan-crashed party missing",
     FaultPlan(crashes=(Crash(3, 0.0),)),
     {0: "v", 1: "v", 2: "v"}, None),
    ("foreign value under a plan-crashed broadcaster",
     FaultPlan(crashes=(Crash(0, 0.0),)),
     {1: "w", 2: "w", 3: "w"}, None),
]


def stub_result(commits: dict) -> RunResult:
    return RunResult(
        n=4, f=1, byzantine=frozenset(), commits=commits,
        commit_global_times={p: 1.0 + p for p in commits},
        commit_rounds={},
    )


class TestReplayedBattery:
    """``judge`` over a stub result: what every chaos run is judged by."""

    @pytest.mark.parametrize(
        "plan, commits, expected",
        [row[1:] for row in REPLAY_TABLE],
        ids=[row[0] for row in REPLAY_TABLE],
    )
    def test_names_the_invariant(self, plan, commits, expected):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), fault_plan=plan,
            protocol_name="brb_2round",
        )
        monitors = _TIERS["good-case"].battery(plan, "v", 0.0, 10.0)
        named = None
        try:
            judge(monitors, world, stub_result(commits))
        except InvariantViolation as exc:
            named = exc.invariant
            assert exc.protocol == "brb_2round"
        assert named == expected


class TestSweepChaos:
    def test_grid_subset_is_clean_and_deterministic(self):
        kwargs = dict(
            protocols=["brb_2round", "psync_pbft", "dolev_strong"],
            plans_per_protocol=2,
            engine=SweepEngine(base_seed=0),
        )
        rows = sweep_chaos(**kwargs)
        assert len(rows) == 6
        assert all(row["violation"] is None for row in rows)
        kwargs["engine"] = SweepEngine(base_seed=0)
        assert sweep_chaos(**kwargs) == rows

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            sweep_chaos(protocols=["nope"], plans_per_protocol=1)


#: f+1 = 3 crashes against brb_2round (n=7, f=2) kill the vote quorum —
#: an over-budget plan the monitors must catch — plus two decoy
#: primitives the shrinker must strip.
_OVER_BUDGET = FaultPlan(
    crashes=(Crash(1, 0.0), Crash(2, 0.0), Crash(3, 0.0)),
    duplicates=(DuplicateLink(prob=0.5, end=4.0),),
    jitters=(ReorderJitter(jitter=1.0, end=3.0),),
    seed=7,
)


class TestShrinking:
    def test_over_budget_plan_is_caught_and_shrunk_to_minimal(self):
        """The acceptance case: catch the violation, strip the decoys."""
        row = run_chaos_plan("brb_2round", _OVER_BUDGET)
        assert row["violation"] is not None
        assert row["violation"]["invariant"] == "termination"
        assert row["violation"]["protocol"] == "brb_2round"

        minimal = shrink_failing_plan("brb_2round", _OVER_BUDGET)
        assert set(minimal.primitives()) == set(_OVER_BUDGET.crashes)
        assert not minimal.duplicates and not minimal.jitters
        # 1-minimality: removing any remaining primitive repairs the run.
        for primitive in minimal.primitives():
            repaired = run_chaos_plan(
                "brb_2round", minimal.without(primitive)
            )
            assert repaired["violation"] is None, primitive

    def test_shrink_plan_requires_a_failing_start(self):
        with pytest.raises(ValueError):
            shrink_plan(FaultPlan(), lambda plan: False)

    def test_shrink_plan_greedy_fixpoint(self):
        crash = Crash(1, 0.0)
        plan = FaultPlan(
            crashes=(crash,),
            jitters=(ReorderJitter(jitter=1.0),),
            duplicates=(DuplicateLink(),),
        )
        shrunk = shrink_plan(plan, lambda p: crash in p.primitives())
        assert shrunk.primitives() == [crash]


class TestRunChaos:
    def test_summary_shape_and_violation_reproducer(self):
        summary = run_chaos(
            plans_per_protocol=2,
            protocols=["brb_2round", "bb_2delta"],
            shrink=False,
        )
        assert summary["plans"] == 4
        assert summary["violations"] == []

    def test_violation_entry_carries_minimal_plan(self, monkeypatch):
        """Force the sweep onto the over-budget plan so the CLI path
        exercises shrinking end to end."""
        import repro.analysis.chaos as chaos_mod

        def rigged(protocol, seed):
            return _OVER_BUDGET

        monkeypatch.setattr(chaos_mod, "random_fault_plan", rigged)
        summary = run_chaos(
            plans_per_protocol=1, protocols=["brb_2round"], shrink=True
        )
        assert summary["plans"] == 1
        (entry,) = summary["violations"]
        assert entry["violation"]["invariant"] == "termination"
        assert sorted(entry["minimal_plan"]) == sorted(
            repr(c) for c in _OVER_BUDGET.crashes
        )

    def test_reproducer_is_for_the_schedule_that_ran(
        self, monkeypatch, tmp_path
    ):
        """``shards=2`` puts the plan on the counter stream even when the
        world then falls back to one process (``instrumentation="full"``
        needs round accounting): the shrunk, emitted plan must be that
        counter-stream plan, not its sequential twin."""
        import repro.analysis.chaos as chaos_mod

        monkeypatch.setattr(
            chaos_mod, "random_fault_plan", lambda protocol, seed: _OVER_BUDGET
        )
        summary = run_chaos(
            plans_per_protocol=1, protocols=["brb_2round"], shards=2,
            instrumentation="full", emit_dir=str(tmp_path),
        )
        (entry,) = summary["violations"]
        assert entry["shards"] == 1
        assert entry["shard_fallback_reason"] == "observers"
        assert entry["stream"] == "counter"
        emitted = json.loads(Path(entry["reproducer"]).read_text())
        assert emitted["plan"]["stream"] == "counter"
        replay = run_reproducer(entry["reproducer"])
        assert replay["record"]["stream"] == "counter"
        assert replay["record"]["violation"]["invariant"] == "termination"
