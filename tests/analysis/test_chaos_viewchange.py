"""Tests for the view-change chaos tier and the reliable-drop demo.

The PR 8 gates: every psync protocol must commit in a view >= 2 under
the pinned leader-crash plan with zero violations; the seeded
view-change generator must stay deterministic and always kill view 1;
an honest-link total-loss plan must fail termination bare and survive
with the reliable channel attached; and reproducer files must round-trip
through JSON so the regression corpus can replay them.
"""
from __future__ import annotations

import json

import pytest

from repro.analysis.chaos import (
    CHAOS_SPECS_VIEWCHANGE,
    RELIABLE_DEMO_LINK,
    RELIABLE_DEMO_PLAN,
    VIEWCHANGE_MAX_VIEW,
    load_reproducer,
    random_viewchange_plan,
    run_chaos,
    run_chaos_plan,
    run_reliable_drop_demo,
    run_reproducer,
    run_viewchange_smoke,
    viewchange_smoke_plans,
    write_reproducer,
)
from repro.errors import FaultPlanError
from repro.sim.faults import CrashLeader, FaultPlan
from repro.sim.retransmit import ReliableLink


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


class TestReliableDropDemo:
    def test_retransmission_turns_fatal_loss_into_delay(self):
        demo = run_reliable_drop_demo()
        assert demo["ok"], demo
        assert demo["without"]["violation"]["invariant"] == "termination"
        assert demo["with"]["violation"] is None
        assert demo["with"]["retransmissions"] > 0
        assert demo["with"]["retries_exhausted"] == 0

    def test_demo_link_tail_outlives_the_drop_window(self):
        drop = RELIABLE_DEMO_PLAN.drops[0]
        assert RELIABLE_DEMO_LINK.backoff_tail() > drop.end - drop.start

    def test_reliable_deadline_is_stretched_by_the_tail(self):
        bare = run_chaos_plan("brb_2round", RELIABLE_DEMO_PLAN)["deadline"]
        stretched = run_chaos_plan(
            "brb_2round", RELIABLE_DEMO_PLAN, reliable=RELIABLE_DEMO_LINK
        )["deadline"]
        assert stretched == bare + RELIABLE_DEMO_LINK.backoff_tail()


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
        assert loaded["reliable"] is None
        assert loaded["expect"] == "clean"
        replay = run_reproducer(path)
        assert replay["ok"], replay

    def test_reliable_link_survives_the_round_trip(self, tmp_path):
        link = ReliableLink(rto=1.5, backoff=1.5, max_retries=3)
        path = write_reproducer(
            tmp_path,
            protocol="brb_2round",
            plan=RELIABLE_DEMO_PLAN,
            reliable=link,
        )
        loaded = load_reproducer(path)
        assert loaded["reliable"] == link
        replay = run_reproducer(path)
        assert replay["ok"], replay

    def test_malformed_plan_is_rejected_with_the_file_named(self, tmp_path):
        # A typo'd kind must not replay as an empty, vacuously clean plan.
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=RELIABLE_DEMO_PLAN
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
            tmp_path, protocol="brb_2round", plan=RELIABLE_DEMO_PLAN
        )
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(caught.value).startswith(f"{path}: not valid JSON")

    @pytest.mark.parametrize("key", ["plan", "protocol"])
    def test_missing_key_is_rejected_with_the_file_named(self, tmp_path, key):
        path = write_reproducer(
            tmp_path, protocol="brb_2round", plan=RELIABLE_DEMO_PLAN
        )
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(FaultPlanError) as caught:
            load_reproducer(path)
        assert str(caught.value) == f"{path}: no {key!r} key"

    def test_expected_violation_reproducers_gate_on_failing(self, tmp_path):
        # A reproducer may also pin a *known-bad* outcome: the demo plan
        # without retransmission must keep violating termination.
        path = write_reproducer(
            tmp_path,
            protocol="brb_2round",
            plan=RELIABLE_DEMO_PLAN,
            expect="violation",
        )
        replay = run_reproducer(path)
        assert replay["ok"], replay
        assert replay["record"]["violation"]["invariant"] == "termination"
