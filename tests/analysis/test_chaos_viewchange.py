"""Tests for the view-change chaos tier and the reproducer files.

Every psync protocol must commit in a view >= 2 under the pinned
leader-crash plan with zero violations; the seeded view-change
generator must stay deterministic and always kill view 1; total loss
on an honest party's inbound links must fail termination while the same
window held is only delay; and reproducer files must round-trip
through JSON so the regression corpus can replay them, while a file
naming a retry policy is refused.
"""
from __future__ import annotations

import json

import pytest

from repro.analysis.chaos import (
    CHAOS_SPECS_VIEWCHANGE,
    VIEWCHANGE_MAX_VIEW,
    load_reproducer,
    random_viewchange_plan,
    run_chaos,
    run_chaos_plan,
    run_reproducer,
    run_viewchange_smoke,
    viewchange_smoke_plans,
    write_reproducer,
)
from repro.errors import FaultPlanError
from repro.sim.faults import CrashLeader, DropLink, FaultPlan, Holdback

#: Total inbound loss for one honest brb_2round party, long enough to
#: swallow every good-case message: untolerated, and fatal to
#: termination.
TOTAL_LOSS_PLAN = FaultPlan(
    drops=(DropLink(dst=3, start=0.0, end=4.0, prob=1.0),), seed=11
)

#: The same window held instead of lost: delay, inside the model.
HELD_PLAN = FaultPlan(
    holdbacks=(Holdback(dst=3, start=0.0, end=4.0),), seed=11
)


class TestRandomViewchangePlan:
    def test_deterministic_in_protocol_and_seed(self):
        for protocol in CHAOS_SPECS_VIEWCHANGE:
            assert random_viewchange_plan(
                protocol, 5
            ) == random_viewchange_plan(protocol, 5), protocol

    def test_every_plan_kills_view_1(self):
        for protocol in CHAOS_SPECS_VIEWCHANGE:
            for seed in range(12):
                plan = random_viewchange_plan(protocol, seed)
                assert plan.leader_crashes or plan.holdbacks, (
                    protocol, seed,
                )
                # Symbolic leader crashes target view 1 specifically.
                for lc in plan.leader_crashes:
                    assert lc.view == 1
                # Holdbacks starve the broadcaster past the view timer.
                spec = CHAOS_SPECS_VIEWCHANGE[protocol]
                for hold in plan.holdbacks:
                    assert hold.src == 0
                    assert hold.end > 4 * spec.big_delta

    def test_seeds_explore_different_disruptions(self):
        plans = {
            random_viewchange_plan("psync_pbft", seed) for seed in range(16)
        }
        assert len(plans) > 4


class TestViewchangeTierExecution:
    #: protocol -> (messages_sent, events_processed) of its smoke plan,
    #: recorded before the pacemaker moved into ``ViewParty``.
    SMOKE_PINS = {
        "psync_fab": (116, 128),
        "psync_pbft": (58, 66),
        "psync_vbb_5f1": (49, 57),
    }

    def test_pinned_leader_crash_commits_in_view_2(self):
        for protocol, plan in viewchange_smoke_plans():
            record = run_chaos_plan(protocol, plan, tier="viewchange")
            assert record["violation"] is None, (protocol, record)
            assert record["tier"] == "viewchange"
            assert record["max_commit_view"] == 2, (protocol, record)
            assert (
                record["messages_sent"], record["events_processed"]
            ) == self.SMOKE_PINS[protocol], (protocol, record)
            assert record["commit_views"], protocol
            assert max(record["commit_views"]) <= VIEWCHANGE_MAX_VIEW

    def test_smoke_gate_passes(self):
        smoke = run_viewchange_smoke()
        assert smoke["ok"], smoke["failures"]
        assert {row["protocol"] for row in smoke["rows"]} == set(
            CHAOS_SPECS_VIEWCHANGE
        )

    def test_empty_plan_stays_in_view_1(self):
        # The reason the tier gates on max_commit_view >= 2: a plan that
        # fails to disrupt commits in view 1 and proves nothing.
        record = run_chaos_plan("psync_pbft", FaultPlan(), tier="viewchange")
        assert record["violation"] is None
        assert record["max_commit_view"] == 1

    def test_viewchange_tier_rejects_non_psync_protocols(self):
        with pytest.raises(KeyError):
            run_chaos_plan("brb_2round", FaultPlan(), tier="viewchange")

    def test_run_chaos_sweeps_both_tiers(self):
        summary = run_chaos(
            plans_per_protocol=2,
            protocols=["psync_pbft"],
            tiers=("good-case", "viewchange"),
            shrink=False,
        )
        assert summary["plans"] == 4
        assert summary["violations"] == []
        tiers = [row["tier"] for row in summary["rows"]]
        assert tiers.count("good-case") == 2
        assert tiers.count("viewchange") == 2

    def test_viewchange_tier_skips_protocols_outside_its_grid(self):
        summary = run_chaos(
            plans_per_protocol=1,
            protocols=["brb_2round"],
            tiers=("good-case", "viewchange"),
            shrink=False,
        )
        assert summary["plans"] == 1
        assert summary["rows"][0]["tier"] == "good-case"


class TestLossVersusHold:
    def test_holdback_turns_fatal_loss_into_delay(self):
        lost = run_chaos_plan("brb_2round", TOTAL_LOSS_PLAN)
        assert lost["violation"]["invariant"] == "termination"
        assert lost["messages_dropped"] > 0
        held = run_chaos_plan("brb_2round", HELD_PLAN)
        assert held["violation"] is None
        assert held["messages_held"] > 0
        assert held["messages_dropped"] == 0

    def test_only_the_held_plan_is_tolerated(self):
        assert TOTAL_LOSS_PLAN.check_tolerated(n=4, f=1, deadline=20.0)
        assert HELD_PLAN.check_tolerated(n=4, f=1, deadline=20.0) == []

    def test_deadline_is_stretched_by_the_release(self):
        bare = run_chaos_plan("brb_2round", FaultPlan(seed=11))["deadline"]
        held = run_chaos_plan("brb_2round", HELD_PLAN)["deadline"]
        assert held == bare + HELD_PLAN.quiet_time() == bare + 4.0


class TestReproducerFiles:
    def test_round_trip_and_replay(self, tmp_path):
        plan = FaultPlan(leader_crashes=(CrashLeader(view=1),), seed=7)
        path = write_reproducer(
            tmp_path,
            protocol="psync_pbft",
            plan=plan,
            tier="viewchange",
            note="pinned leader crash",
        )
        assert path.name == "psync_pbft-viewchange-seed7.json"
        loaded = load_reproducer(path)
        assert loaded["plan"] == plan
        assert loaded["tier"] == "viewchange"
        assert "reliable" not in json.loads(path.read_text())
        assert loaded["expect"] == "clean"
        replay = run_reproducer(path)
        assert replay["ok"], replay

    def test_retry_policy_is_rejected_with_the_file_named(self, tmp_path):
        # An old reproducer that leaned on a retry policy must not replay
        # without it as an unexplained termination violation.
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=TOTAL_LOSS_PLAN
        )
        doc = json.loads(path.read_text())
        doc["reliable"] = None
        path.write_text(json.dumps(doc))
        assert load_reproducer(path)["plan"] == TOTAL_LOSS_PLAN
        doc["reliable"] = {"rto": 1.5, "backoff": 1.5, "max_retries": 3}
        path.write_text(json.dumps(doc))
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(caught.value).startswith(f"{path}: 'reliable' key set")

    def test_malformed_plan_is_rejected_with_the_file_named(self, tmp_path):
        # A typo'd kind must not replay as an empty, vacuously clean plan.
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=TOTAL_LOSS_PLAN
        )
        doc = json.loads(path.read_text())
        doc["plan"]["dorps"] = doc["plan"].pop("drops")
        path.write_text(json.dumps(doc))
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(path) in str(caught.value)
        assert "'dorps'" in str(caught.value)

    def test_truncated_file_is_rejected_with_the_file_named(self, tmp_path):
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=TOTAL_LOSS_PLAN
        )
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(caught.value).startswith(f"{path}: not valid JSON")

    @pytest.mark.parametrize("key", ["plan", "protocol"])
    def test_missing_key_is_rejected_with_the_file_named(self, tmp_path, key):
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=TOTAL_LOSS_PLAN
        )
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(caught.value) == f"{path}: no {key!r} key"

    def test_expected_violation_reproducers_gate_on_failing(self, tmp_path):
        # A reproducer may also pin a *known-bad* outcome: total loss on
        # an honest party's inbound links must keep violating termination.
        path = write_reproducer(
            tmp_path,
            protocol="brb_2round",
            plan=TOTAL_LOSS_PLAN,
            expect="violation",
        )
        replay = run_reproducer(path)
        assert replay["ok"], replay
        assert replay["record"]["violation"]["invariant"] == "termination"
