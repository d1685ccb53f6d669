"""Tests for the deterministic fault-injection engine.

Covers the plan primitives and their validation, the injector's seams
(send suppression, delivery discard, drop/duplicate/jitter/partition/
churn routing), the determinism contracts (same plan + seed => identical
schedules across presets and on the calendar and heap queues), the no-fault
byte-parity guarantee and the GstDelay scalar-vs-batch parity under
churned send times.
"""
from __future__ import annotations

import pytest

from repro.errors import FaultPlanError
from repro.protocols import PROTOCOLS
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay, GstDelay, UniformDelay
from repro.sim.faults import (
    Crash,
    CrashLeader,
    CrashWindow,
    DropLink,
    DuplicateLink,
    FaultInjector,
    FaultPlan,
    GstChurn,
    Holdback,
    Partition,
    ReorderJitter,
)
from repro.sim.retransmit import ReliableLink
from repro.sim.runner import World
from repro.types import INF


class TestFaultPlan:
    def test_primitives_and_len(self):
        plan = FaultPlan(
            crashes=(Crash(1, 0.5),),
            duplicates=(DuplicateLink(),),
            jitters=(ReorderJitter(jitter=1.0),),
        )
        assert len(plan) == 3
        assert len(FaultPlan()) == 0
        assert plan.crashed_parties() == frozenset({1})

    def test_without_removes_one_primitive(self):
        crash = Crash(1, 0.0)
        plan = FaultPlan(crashes=(crash, Crash(2, 0.0)))
        smaller = plan.without(crash)
        assert len(smaller) == 1
        assert smaller.crashed_parties() == frozenset({2})
        # Removing a primitive that is not in the plan is a no-op copy.
        assert len(plan.without(Crash(5, 9.9))) == 2

    def test_quiet_time(self):
        plan = FaultPlan(
            crashes=(Crash(1, 1.0, recover=3.0), Crash(2, 5.0)),
            partitions=(
                Partition(groups=((0, 1), (2, 3)), start=0.0, end=2.0,
                          flush_delay=0.5),
            ),
            churns=(GstChurn(windows=((0.0, 4.0),), bound=1.5),),
        )
        # crash-stop at 5.0 contributes its *crash* instant only; the
        # churn window resolving at 4.0 + 1.5 dominates.
        assert plan.quiet_time() == 5.5

    def test_validate_rejects_bad_primitives(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(Crash(9, 0.0),)).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(Crash(1, 2.0, recover=1.0),)).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(drops=(DropLink(prob=1.5),)).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                partitions=(
                    Partition(groups=((0,),), start=0.0, end=INF),
                ),
            ).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                partitions=(
                    Partition(groups=((0, 1), (1, 2)), start=0.0, end=1.0),
                ),
            ).validate(4)

    def test_check_tolerated(self):
        ok = FaultPlan(crashes=(Crash(1, 0.0),))
        assert ok.check_tolerated(n=4, f=1, deadline=10.0) == []
        over = FaultPlan(crashes=(Crash(1, 0.0), Crash(2, 0.0)))
        assert over.check_tolerated(n=4, f=1, deadline=10.0)
        late_heal = FaultPlan(
            partitions=(
                Partition(groups=((0, 1), (2, 3)), start=0.0, end=20.0),
            ),
        )
        assert late_heal.check_tolerated(n=4, f=1, deadline=10.0)
        honest_drop = FaultPlan(drops=(DropLink(src=1, prob=0.5),))
        assert honest_drop.check_tolerated(n=4, f=1, deadline=10.0)
        # The same drop out of a crashed party is spent budget.
        faulty_drop = FaultPlan(
            crashes=(Crash(1, 0.0),), drops=(DropLink(src=1, prob=0.5),)
        )
        assert faulty_drop.check_tolerated(n=4, f=1, deadline=10.0) == []


class TestViewChangePrimitives:
    def test_crash_leader_resolves_through_the_rotation(self):
        plan = FaultPlan(
            leader_crashes=(CrashLeader(view=2, recover=5.0),), seed=9
        )
        resolved = plan.resolve_leaders(lambda view: (view - 1) % 4)
        assert resolved.leader_crashes == ()
        assert resolved.crashes == (Crash(1, 0.0, recover=5.0),)
        assert resolved.seed == 9
        # Without symbolic entries resolution is the identity.
        assert FaultPlan().resolve_leaders(lambda v: 0) == FaultPlan()

    def test_injector_rejects_unresolved_leader_crashes(self):
        plan = FaultPlan(leader_crashes=(CrashLeader(view=1),))
        with pytest.raises(FaultPlanError):
            FaultInjector(plan, n=4)

    def test_validate_covers_the_new_primitives(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(leader_crashes=(CrashLeader(view=0),)).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                holdbacks=(Holdback(start=0.0, end=INF),)
            ).validate(4)
        with pytest.raises(FaultPlanError):
            FaultPlan(holdbacks=(Holdback(src=9),)).validate(4)

    def test_holdback_retimes_instead_of_dropping(self):
        injector = FaultInjector(
            FaultPlan(
                holdbacks=(
                    Holdback(src=0, start=0.0, end=4.0, flush_delay=0.0),
                ),
            ),
            n=4,
        )
        # Held to the window's release instant, never lost.
        assert injector.route(0, 1, 0.0, 1.0) == [4.0]
        assert injector.route(2, 1, 0.0, 1.0) == [1.0]  # other links free
        # A natural delivery past the release is untouched.
        assert injector.route(0, 1, 3.9, 4.9) == [4.9]
        assert injector.messages_held == 1
        assert injector.messages_dropped == 0

    def test_quiet_time_grows_a_retransmission_tail(self):
        link = ReliableLink(rto=1.0, backoff=2.0, max_retries=2)  # tail 3
        plan = FaultPlan(
            drops=(DropLink(dst=1, start=0.0, end=4.0, prob=1.0),),
            holdbacks=(Holdback(src=0, start=0.0, end=2.0, flush_delay=0.5),),
            leader_crashes=(CrashLeader(view=1, recover=3.0),),
        )
        assert plan.quiet_time() == 4.0
        assert plan.quiet_time(link) == 7.0
        # Crash-stop leader crashes stay spent budget, tail or not.
        stop = FaultPlan(leader_crashes=(CrashLeader(view=1),))
        assert stop.quiet_time(link) == 0.0

    def test_check_tolerated_with_view_change_primitives(self):
        leader = FaultPlan(leader_crashes=(CrashLeader(view=1),))
        assert leader.check_tolerated(n=4, f=1, deadline=20.0) == []
        two_views = FaultPlan(
            leader_crashes=(CrashLeader(view=1), CrashLeader(view=2)),
        )
        assert two_views.check_tolerated(n=4, f=1, deadline=20.0)
        late_hold = FaultPlan(
            holdbacks=(Holdback(src=0, start=0.0, end=30.0),),
        )
        assert late_hold.check_tolerated(n=4, f=1, deadline=20.0)

    def test_reliable_link_makes_finite_honest_drops_tolerated(self):
        plan = FaultPlan(
            drops=(DropLink(dst=1, start=0.0, end=2.0, prob=1.0),),
        )
        assert plan.check_tolerated(n=4, f=1, deadline=20.0)
        # tail 2+4+8+16=30 > window 2: every copy retries past the loss.
        assert plan.check_tolerated(
            n=4, f=1, deadline=20.0, reliable=ReliableLink()
        ) == []
        # A never-closing drop window is fatal even with retries.
        forever = FaultPlan(drops=(DropLink(dst=1, prob=1.0),))
        assert forever.check_tolerated(
            n=4, f=1, deadline=20.0, reliable=ReliableLink()
        )

    def test_json_round_trip_covers_every_field(self):
        plan = FaultPlan(
            crashes=(Crash(1, 0.5, recover=2.0), Crash(2, 0.0)),
            drops=(DropLink(src=0, dst=3, start=0.0, end=4.0, prob=1.0),),
            duplicates=(DuplicateLink(prob=0.4, end=2.0, echo_delay=0.1),),
            jitters=(ReorderJitter(jitter=0.7, end=3.0),),
            partitions=(
                Partition(groups=((0, 1), (2, 3)), start=0.2, end=2.5,
                          flush_delay=0.8),
            ),
            churns=(GstChurn(windows=((0.0, 4.0),), bound=1.5),),
            leader_crashes=(CrashLeader(view=2, at=0.1, recover=6.0),
                            CrashLeader(view=3)),
            holdbacks=(Holdback(src=0, start=0.0, end=5.0, flush_delay=0.5),),
            seed=42,
        )
        doc = plan.to_json()
        assert FaultPlan.from_json(doc) == plan
        # INF survives the JSON detour (encoded, not a float inf).
        import json

        assert FaultPlan.from_json(json.loads(json.dumps(doc))) == plan

    @pytest.mark.parametrize(
        "doc, named",
        [
            # A typo'd kind used to load as an empty ("clean") plan.
            ({"crashs": [{"party": 1, "at": 0.0, "recover": "inf"}]},
             "crashs"),
            # A typo'd field used to be dropped.
            ({"drops": [{"src": None, "dst": 3, "start": 0.0, "end": 4.0,
                         "porb": 0.5}]}, "porb"),
            # A missing required field used to be a bare KeyError.
            ({"crashes": [{"party": 1}]}, "at"),
            ({"partitions": [{"groups": [[0], [1]], "start": 0.0}]}, "end"),
        ],
    )
    def test_from_json_rejects_malformed_documents(self, doc, named):
        with pytest.raises(FaultPlanError, match=repr(named)):
            FaultPlan.from_json(doc)

    def test_from_json_defaults_what_may_be_absent(self):
        # Plan-level keys (committed reproducers predate "stream") and
        # primitive fields that have a dataclass default.
        assert FaultPlan.from_json({"seed": 3}) == FaultPlan(seed=3)
        assert FaultPlan.from_json(
            {"crashes": [{"party": 1, "at": 0.5}], "jitters": [{"jitter": 1}]}
        ) == FaultPlan(
            crashes=(Crash(1, 0.5),), jitters=(ReorderJitter(jitter=1.0),)
        )

    def test_without_removes_new_primitives(self):
        hold = Holdback(src=0, end=5.0)
        lc = CrashLeader(view=1)
        plan = FaultPlan(leader_crashes=(lc,), holdbacks=(hold,))
        assert len(plan) == 2
        assert len(plan.without(hold)) == 1
        assert len(plan.without(hold).without(lc)) == 0


class TestCrashWindow:
    def test_is_down_and_recovery(self):
        window = CrashWindow(3).add(1.0, 2.0).add(5.0)
        assert not window.is_down(0.5)
        assert window.is_down(1.0)
        assert not window.is_down(2.0)  # half-open [at, recover)
        assert window.is_down(99.0)  # crash-stop tail
        assert window.next_recovery_after(0.0) == 2.0
        assert window.next_recovery_after(3.0) is None

    def test_from_plan_crashes(self):
        window = CrashWindow(1, [Crash(1, 2.0, 3.0), Crash(2, 0.0)])
        assert window.windows == [(2.0, 3.0)]  # only party 1's crashes


class TestFaultInjector:
    def test_crash_seam_blocks_sends_and_deliveries(self):
        injector = FaultInjector(
            FaultPlan(crashes=(Crash(1, 1.0, recover=2.0),)), n=4
        )
        assert not injector.block_send(1, 0.5)
        assert injector.block_send(1, 1.5)
        assert injector.block_delivery(1, 1.5)
        assert not injector.block_delivery(1, 2.0)
        assert not injector.block_send(2, 1.5)  # other parties unaffected
        assert injector.faults_injected == 2
        assert injector.messages_dropped == 1

    def test_certain_drop_loses_the_copy(self):
        injector = FaultInjector(
            FaultPlan(drops=(DropLink(src=0, dst=1, prob=1.0),)), n=4
        )
        assert injector.route(0, 1, 0.0, 1.0) == []
        assert injector.route(0, 2, 0.0, 1.0) == [1.0]
        assert injector.messages_dropped == 1

    def test_duplicate_adds_echo(self):
        injector = FaultInjector(
            FaultPlan(duplicates=(DuplicateLink(prob=1.0, echo_delay=0.5),)),
            n=4,
        )
        assert injector.route(0, 1, 0.0, 1.0) == [1.0, 1.5]
        assert injector.messages_duplicated == 1

    def test_partition_holds_until_heal(self):
        injector = FaultInjector(
            FaultPlan(
                partitions=(
                    Partition(groups=((0, 1), (2, 3)), start=0.0, end=4.0,
                              flush_delay=0.0),
                ),
            ),
            n=4,
        )
        assert injector.route(0, 2, 0.0, 1.0) == [4.0]  # held to the heal
        assert injector.route(0, 1, 0.0, 1.0) == [1.0]  # same group: untouched
        assert injector.messages_held == 1

    def test_routing_is_deterministic_per_seed(self):
        plan = FaultPlan(
            drops=(DropLink(src=1, prob=0.5),),
            crashes=(Crash(1, 0.0),),
            jitters=(ReorderJitter(jitter=1.0),),
            seed=77,
        )
        trace_a = [
            FaultInjector(plan, n=4).route(0, r, 0.1, 1.0) for r in (1, 2, 3)
        ]
        injector = FaultInjector(plan, n=4)
        trace_b = [injector.route(0, r, 0.1, 1.0) for r in (1, 2, 3)]
        # Per-injector streams restart from the plan seed; a fresh
        # injector consuming the same schedule replays the same routes.
        fresh = [
            FaultInjector(plan, n=4).route(0, r, 0.1, 1.0) for r in (1, 2, 3)
        ]
        assert trace_a == fresh
        assert trace_b[0] == trace_a[0]

    def test_validate_runs_at_compile_time(self):
        with pytest.raises(FaultPlanError):
            FaultInjector(FaultPlan(crashes=(Crash(9, 0.0),)), n=4)


def _run_brb(
    *, plan=None, preset="full", seed=3, n=7, f=2,
):
    world = World(
        n=n,
        f=f,
        delay_policy=UniformDelay(0.0, 1.0, seed=seed),
        instrumentation=preset,
        fault_plan=plan,
    )
    world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
    return world.run()


def _snapshot(result):
    return (
        tuple(sorted(result.commits.items())),
        tuple(sorted(result.commit_global_times.items())),
        result.messages_sent,
        result.final_time,
        result.events_processed,
    )


class TestWorldIntegration:
    def test_empty_plan_matches_no_plan_everywhere(self):
        """The CI faults-off parity claim: an *attached but empty* plan
        exercises the injector code path yet changes nothing."""
        for preset in ("full", "perf"):
            baseline = _snapshot(_run_brb(preset=preset))
            empty = _snapshot(_run_brb(plan=FaultPlan(), preset=preset))
            assert baseline == empty, preset

    def test_crash_within_budget_spares_live_parties(self):
        plan = FaultPlan(crashes=(Crash(5, 0.0), Crash(6, 0.0)))
        result = _run_brb(plan=plan)
        live = set(range(5))
        assert live <= set(result.commits)
        assert set(result.commits.values()) == {"v"}
        assert 5 not in result.commits and 6 not in result.commits
        assert result.faults_injected > 0

    @pytest.mark.parametrize(
        "protocol, n, f", [("bb_2delta", 7, 2), ("dolev_strong", 5, 2)]
    )
    def test_crashed_party_commits_nothing(self, protocol, n, f):
        """A crash-stop party's own timers still fire; the one that would
        commit BOTTOM must record nothing."""
        world = World(
            n=n,
            f=f,
            delay_policy=FixedDelay(0.5),
            fault_plan=FaultPlan(crashes=(Crash(party=n - 1, at=0.0),)),
        )
        world.populate(
            PROTOCOLS[protocol].factory(broadcaster=0, input_value="v")
        )
        result = world.run(until=100.0)
        assert result.commits == {p: "v" for p in range(n - 1)}
        assert not world.agents[n - 1].has_committed

    def test_fault_counters_reach_run_result(self):
        plan = FaultPlan(
            duplicates=(DuplicateLink(prob=1.0, end=2.0),),
            crashes=(Crash(6, 0.0),),
        )
        result = _run_brb(plan=plan)
        assert result.messages_duplicated > 0
        assert result.messages_dropped > 0  # deliveries into the crash
        assert result.faults_injected >= (
            result.messages_duplicated + result.messages_dropped
        )

    def test_plan_outcome_identical_across_presets(self):
        plan = FaultPlan(
            crashes=(Crash(6, 0.5, recover=2.0),),
            jitters=(ReorderJitter(jitter=0.7, end=3.0),),
            duplicates=(DuplicateLink(prob=0.4, end=2.0),),
            seed=11,
        )
        outcomes = {
            preset: (
                _run_brb(plan=plan, preset=preset).commits,
                _run_brb(plan=plan, preset=preset).commit_global_times,
            )
            for preset in ("full", "perf")
        }
        assert outcomes["full"] == outcomes["perf"]

    def test_partition_heal_flush_deterministic_across_backends(
        self, reference_queue
    ):
        """Same seed => identical post-heal flush schedule in every
        preset and on the reference heap queue (the injector RNG is
        consumed in scheduling order, which all of them share)."""
        plan = FaultPlan(
            partitions=(
                Partition(
                    groups=((0, 1, 2, 3), (4, 5, 6)),
                    start=0.2,
                    end=2.5,
                    flush_delay=0.8,
                ),
            ),
            jitters=(ReorderJitter(jitter=0.4, end=1.5),),
            seed=29,
        )
        snapshots = [
            _snapshot(_run_brb(plan=plan, preset=preset))
            for preset in ("full", "perf")
        ]
        with reference_queue():
            snapshots.append(_snapshot(_run_brb(plan=plan)))
        assert len(set(snapshots)) == 1
        result = _run_brb(plan=plan)
        assert result.messages_held > 0
        assert result.partition_windows == 1
        assert set(result.commits) == set(range(7))


class TestGstDelayBatchParity:
    def test_scalar_vs_batch_identical_straddling_gst(self):
        """Churned send times straddling GST: the batch fan-out must
        consume the wrapped policy's stream exactly as n scalar calls
        would, and apply the GST cap per copy."""
        recipients = list(range(1, 8))
        # Send instants generated by a churn primitive's window edges:
        # before, exactly at, and after GST.
        churn = GstChurn(windows=((3.0, 5.0),), bound=1.0)
        sends = [2.9, 3.0, 4.999, 5.0, 5.1]
        assert churn.window_at(3.0) and churn.window_at(4.999)
        assert churn.window_at(5.0) is None

        def make_policy():
            return GstDelay(
                gst=5.0,
                big_delta=1.0,
                pre_gst=UniformDelay(0.0, 9.0, seed=123),
            )

        scalar_policy = make_policy()
        batch_policy = make_policy()
        for send_time in sends:
            scalar = [
                scalar_policy.delay(0, r, ("m", send_time), send_time)
                for r in recipients
            ]
            batch = batch_policy.delays_for_multicast(
                0, recipients, ("m", send_time), send_time
            )
            assert scalar == batch, send_time
            for value in batch:
                latest = max(send_time, 5.0) + 1.0
                assert send_time + value <= latest + 1e-9

