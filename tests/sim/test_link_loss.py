"""Tests for link loss versus link delay.

The paper's channels are reliable, so the fault model has two ways to
touch an honest copy on its link: :class:`DropLink` loses it (outside
the tolerated model) and :class:`Holdback` only makes it late (inside
it).  Covers both primitives' validation, quiet time and JSON form; the
injector's per-copy treatment of held and dropped copies; and the
network integration: honest loss is fatal to termination while the same
window held is only delay, a crash window loses what is delivered into
it, the fault counters reach ``RunResult``, a plan that touches nothing
changes nothing, and a held schedule is deterministic across presets
and on the calendar and heap queues.
"""
from __future__ import annotations

import pytest

from repro.errors import FaultPlanError
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import UniformDelay
from repro.sim.faults import (
    Crash,
    DropLink,
    FaultInjector,
    FaultPlan,
    Holdback,
)
from repro.sim.runner import World
from repro.types import INF

from fault_route_oracle import route_one


class TestLinkPrimitives:
    @pytest.mark.parametrize(
        "primitive",
        [
            DropLink(prob=-0.1),
            DropLink(prob=1.5),
            DropLink(start=3.0, end=1.0),
            DropLink(dst=4),
            Holdback(flush_delay=-1.0),
            Holdback(start=0.0, end=INF),
            Holdback(src=-1),
        ],
        ids=[
            "drop-prob-below-0",
            "drop-prob-above-1",
            "drop-window-reversed",
            "drop-dst-out-of-range",
            "hold-flush-below-0",
            "hold-never-releases",
            "hold-src-out-of-range",
        ],
    )
    def test_validation_rejects_bad_fields(self, primitive):
        kind = "drops" if isinstance(primitive, DropLink) else "holdbacks"
        with pytest.raises(FaultPlanError):
            FaultPlan(**{kind: (primitive,)}).validate(4)

    def test_quiet_is_the_release_of_the_last_late_copy(self):
        assert Holdback(start=1.0, end=4.0, flush_delay=0.5).quiet() == 4.5
        assert Holdback(start=1.0, end=4.0).quiet() == 4.0
        assert DropLink(start=0.0, end=2.0).quiet() == 2.0
        # A never-closing drop adds no quiet time: its loss is permanent.
        assert DropLink().quiet() == 0.0
        plan = FaultPlan(
            drops=(DropLink(dst=1, start=0.0, end=2.0),),
            holdbacks=(Holdback(dst=2, start=0.0, end=3.0, flush_delay=1.0),),
        )
        assert plan.quiet_time() == 4.0

    def test_json_round_trip(self):
        plan = FaultPlan(
            drops=(DropLink(src=1, dst=2, start=0.5, end=2.0, prob=0.25),),
            holdbacks=(Holdback(dst=3, start=0.0, end=4.0, flush_delay=0.5),),
            seed=13,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        bare = FaultPlan(drops=(DropLink(),), holdbacks=(Holdback(),))
        assert FaultPlan.from_json(bare.to_json()) == bare


class TestInjectorHoldAndDrop:
    def test_held_copies_land_within_the_flush_spread(self):
        injector = FaultInjector(
            FaultPlan(
                holdbacks=(Holdback(dst=1, start=0.0, end=4.0,
                                    flush_delay=1.0),),
                seed=5,
            ),
            n=4,
        )
        landings = [
            t for _ in range(20)
            for t in route_one(injector, 0, 1, 0.0, 1.0)
        ]
        assert len(landings) == 20
        assert all(4.0 <= t <= 5.0 for t in landings)
        assert len(set(landings)) > 1  # spread, not one flush instant
        assert injector.messages_held == 20
        assert injector.messages_dropped == 0

    def test_window_selects_by_send_instant_half_open(self):
        injector = FaultInjector(
            FaultPlan(holdbacks=(Holdback(start=1.0, end=3.0),)), n=4
        )
        assert route_one(injector, 0, 1, 0.5, 1.5) == [1.5]
        assert route_one(injector, 0, 1, 1.0, 1.5) == [3.0]
        assert route_one(injector, 0, 1, 2.9, 3.1) == [3.1]
        assert route_one(injector, 0, 1, 3.0, 3.2) == [3.2]
        assert injector.messages_held == 1

    def test_each_held_copy_counts_once(self):
        injector = FaultInjector(
            FaultPlan(holdbacks=(Holdback(dst=2, start=0.0, end=4.0),)), n=4
        )
        landings, _ = injector.route(0, (1, 2, 3, 2), 0.0, (1.0,) * 4)
        assert list(landings) == [1.0, 4.0, 1.0, 4.0]
        assert injector.messages_held == 2
        assert injector.faults_injected == 2

    def test_drop_takes_the_copy_before_any_holdback_sees_it(self):
        injector = FaultInjector(
            FaultPlan(
                drops=(DropLink(dst=1, start=0.0, end=4.0),),
                holdbacks=(Holdback(dst=1, start=0.0, end=4.0),),
            ),
            n=4,
        )
        assert route_one(injector, 0, 1, 0.0, 1.0) == []
        assert injector.messages_dropped == 1
        assert injector.messages_held == 0

    def test_partial_drop_loses_some_copies_reproducibly(self):
        plan = FaultPlan(drops=(DropLink(dst=1, prob=0.5),), seed=9)

        def trace():
            injector = FaultInjector(plan, n=4)
            kept = [route_one(injector, 0, 1, 0.0, 1.0) for _ in range(40)]
            return kept, injector.messages_dropped

        kept, dropped = trace()
        assert 0 < dropped < 40
        assert sum(1 for landing in kept if not landing) == dropped
        assert all(landing in ([], [1.0]) for landing in kept)
        assert trace() == (kept, dropped)


def _run_brb(*, plan=None, preset="full", seed=3):
    world = World(
        n=7,
        f=2,
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


#: Total loss into party 6 while the whole protocol plays out: every
#: original copy is sent before t=2, so party 6 stays permanently dark.
TOTAL_LOSS = FaultPlan(drops=(DropLink(dst=6, start=0.0, end=2.0, prob=1.0),))

#: The same window, held instead of lost.
HELD = FaultPlan(holdbacks=(Holdback(dst=6, start=0.0, end=2.0),))


class TestNetworkIntegration:
    def test_honest_link_loss_is_fatal(self):
        result = _run_brb(plan=TOTAL_LOSS)
        assert 6 not in result.commits
        assert set(result.commits) == set(range(6))
        assert result.messages_dropped > 0

    def test_held_copies_are_delay_not_loss(self):
        result = _run_brb(plan=HELD)
        assert set(result.commits) == set(range(7))
        assert set(result.commits.values()) == {"v"}
        assert result.messages_held > 0
        assert result.messages_dropped == 0
        # The held party commits only once its copies are released.
        assert result.commit_global_times[6] >= 2.0

    def test_permanent_loss_is_fatal_and_counted(self):
        forever = FaultPlan(drops=(DropLink(dst=6, prob=1.0),))
        result = _run_brb(plan=forever)
        assert 6 not in result.commits
        assert result.messages_dropped == result.faults_injected > 0

    def test_crashed_recipient_loses_what_is_delivered_into_the_crash(self):
        # A recovering party is not re-sent what it missed while down.
        plan = FaultPlan(crashes=(Crash(6, 0.0, recover=3.0),))
        result = _run_brb(plan=plan)
        assert 6 not in result.commits
        assert set(result.commits) == set(range(6))
        assert result.messages_dropped > 0

    def test_empty_hold_window_stays_byte_identical(self):
        """A holdback whose window holds no send is indistinguishable
        from a run without a plan, in every preset."""
        late = FaultPlan(holdbacks=(Holdback(start=50.0, end=60.0),))
        for preset in ("full", "perf"):
            bare = _snapshot(_run_brb(preset=preset))
            assert _snapshot(_run_brb(plan=late, preset=preset)) == bare, (
                preset
            )

    def test_zero_probability_drop_changes_no_outcome(self):
        bare = _run_brb()
        never = _run_brb(plan=FaultPlan(drops=(DropLink(dst=6, prob=0.0),)))
        assert _snapshot(never) == _snapshot(bare)
        assert never.messages_dropped == 0

    def test_hold_schedule_deterministic_across_presets_and_backends(
        self, reference_queue
    ):
        spread = FaultPlan(
            holdbacks=(Holdback(dst=6, start=0.0, end=2.0, flush_delay=1.5),),
            seed=5,
        )

        def run(preset):
            return _snapshot(_run_brb(plan=spread, preset=preset))

        snapshots = [run("full"), run("perf")]
        with reference_queue():
            snapshots.append(run("full"))
        assert len(set(snapshots)) == 1

    def test_fault_counters_zero_without_a_plan(self):
        result = _run_brb()
        assert result.messages_dropped == 0
        assert result.messages_held == 0
        assert result.messages_duplicated == 0
        assert result.faults_injected == 0
