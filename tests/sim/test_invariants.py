"""Tests for the runtime invariant monitors.

Unit-level: each monitor raises its structured violation with the
protocol/party/time/trace context attached, and exempts parties the
fault budget already spent.  Integration-level: monitors attached to a
:class:`World` observe real commits through the instrumentation bundle,
and a party re-committing a different value trips the integrity monitor
from inside ``Party.commit``.
"""
from __future__ import annotations

import pytest

from repro.errors import (
    AgreementViolation,
    IntegrityViolation,
    InvariantViolation,
    TerminationViolation,
    ValidityViolation,
    ViewProgressViolation,
)
from repro.analysis.chaos import judge
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import Crash, FaultPlan
from repro.sim.invariants import (
    AgreementMonitor,
    IntegrityMonitor,
    TerminationAfterGst,
    TerminationMonitor,
    ValidityMonitor,
    ViewProgress,
    standard_monitors,
)
from repro.sim.runner import World


class _FakeWorld:
    """The minimal surface a monitor touches during bind/finalize."""

    def __init__(self, *, n=4, faulty=frozenset(), protocol="proto"):
        self.n = n
        self.byzantine = frozenset(faulty)
        self.fault_plan = None
        self.protocol_name = protocol

    @property
    def faulty_ids(self):
        return self.byzantine


class TestAgreementMonitor:
    def test_two_values_raise_with_context(self):
        monitor = AgreementMonitor()
        monitor.bind(_FakeWorld())
        monitor.on_commit(0, "a", 1.0)
        with pytest.raises(AgreementViolation) as excinfo:
            monitor.on_commit(1, "b", 2.0)
        violation = excinfo.value
        assert violation.invariant == "agreement"
        assert violation.protocol == "proto"
        assert violation.party == 1
        assert violation.time == 2.0
        assert ("commit", 0, "a", 1.0) in violation.trace
        assert ("commit", 1, "b", 2.0) in violation.trace

    def test_matching_values_pass(self):
        monitor = AgreementMonitor()
        monitor.bind(_FakeWorld())
        monitor.on_commit(0, "a", 1.0)
        monitor.on_commit(1, "a", 2.0)
        monitor.on_commit(2, "a", 3.0)

    def test_faulty_parties_exempt(self):
        monitor = AgreementMonitor()
        monitor.bind(_FakeWorld(faulty={3}))
        monitor.on_commit(0, "a", 1.0)
        monitor.on_commit(3, "b", 2.0)  # Byzantine: no constraint


class TestValidityMonitor:
    def test_wrong_value_raises(self):
        monitor = ValidityMonitor(broadcaster=0, expected="v")
        monitor.bind(_FakeWorld())
        with pytest.raises(ValidityViolation) as excinfo:
            monitor.on_commit(2, "w", 1.5)
        assert excinfo.value.invariant == "validity"
        assert excinfo.value.party == 2

    def test_no_constraint_under_faulty_broadcaster(self):
        monitor = ValidityMonitor(broadcaster=0, expected="v")
        monitor.bind(_FakeWorld(faulty={0}))
        monitor.on_commit(2, "w", 1.5)  # any value is fine


class TestIntegrityMonitor:
    def test_conflicting_recommit_raises(self):
        monitor = IntegrityMonitor()
        monitor.bind(_FakeWorld())
        monitor.on_commit(1, "a", 1.0)
        with pytest.raises(IntegrityViolation) as excinfo:
            monitor.on_commit_conflict(1, "a", "b", 2.0)
        assert excinfo.value.invariant == "integrity"
        assert ("recommit", 1, "b", 2.0) in excinfo.value.trace

    def test_idempotent_recommit_is_silent(self):
        monitor = IntegrityMonitor()
        monitor.bind(_FakeWorld())
        monitor.on_commit(1, "a", 1.0)
        monitor.on_commit(1, "a", 2.0)  # same value: no conflict callback


class TestTerminationMonitor:
    def test_missing_commit_raises_at_finalize(self):
        world = _FakeWorld(n=4, faulty={3})
        monitor = TerminationMonitor(deadline=10.0)
        monitor.bind(world)
        for party in (0, 1):
            monitor.on_commit(party, "v", 5.0)
        with pytest.raises(TerminationViolation) as excinfo:
            monitor.finalize(world)
        violation = excinfo.value
        assert violation.invariant == "termination"
        assert "never committed [2]" in str(violation)
        assert ("no-commit", 2, None, 10.0) in violation.trace

    def test_late_commit_raises(self):
        world = _FakeWorld(n=2)
        monitor = TerminationMonitor(deadline=10.0)
        monitor.bind(world)
        monitor.on_commit(0, "v", 5.0)
        monitor.on_commit(1, "v", 11.0)
        with pytest.raises(TerminationViolation) as excinfo:
            monitor.finalize(world)
        assert "committed late [(1, 11.0)]" in str(excinfo.value)

    def test_all_on_time_passes(self):
        world = _FakeWorld(n=2)
        monitor = TerminationMonitor(deadline=10.0)
        monitor.bind(world)
        monitor.on_commit(0, "v", 5.0)
        monitor.on_commit(1, "v", 9.0)
        monitor.finalize(world)


class TestTerminationAfterGst:
    def test_deadline_is_gst_plus_bound(self):
        monitor = TerminationAfterGst(gst=6.0, bound=4.0)
        assert monitor.deadline == 10.0
        assert monitor.invariant == "termination-after-gst"

    def test_commit_within_the_bound_passes(self):
        world = _FakeWorld(n=2)
        monitor = TerminationAfterGst(gst=6.0, bound=4.0)
        monitor.bind(world)
        monitor.on_commit(0, "v", 9.0)
        monitor.on_commit(1, "v", 9.5)
        monitor.finalize(world)

    def test_commit_past_the_bound_raises(self):
        world = _FakeWorld(n=2)
        monitor = TerminationAfterGst(gst=6.0, bound=4.0)
        monitor.bind(world)
        monitor.on_commit(0, "v", 9.0)
        monitor.on_commit(1, "v", 11.0)
        with pytest.raises(TerminationViolation) as excinfo:
            monitor.finalize(world)
        assert excinfo.value.invariant == "termination-after-gst"


class TestViewProgress:
    def test_monotone_bounded_views_pass(self):
        monitor = ViewProgress(max_view=3)
        monitor.bind(_FakeWorld())
        monitor.on_view(0, 1, 0.0)
        monitor.on_view(0, 2, 4.0)
        monitor.on_view(1, 1, 0.0)
        monitor.on_view(0, 3, 8.0)

    def test_view_regression_raises(self):
        monitor = ViewProgress(max_view=5)
        monitor.bind(_FakeWorld())
        monitor.on_view(0, 2, 4.0)
        with pytest.raises(ViewProgressViolation) as excinfo:
            monitor.on_view(0, 1, 5.0)
        assert excinfo.value.invariant == "view-progress"
        assert excinfo.value.party == 0

    def test_view_past_the_cap_raises(self):
        monitor = ViewProgress(max_view=2)
        monitor.bind(_FakeWorld())
        monitor.on_view(0, 2, 4.0)
        with pytest.raises(ViewProgressViolation):
            monitor.on_view(0, 3, 8.0)

    def test_faulty_parties_exempt(self):
        monitor = ViewProgress(max_view=2)
        monitor.bind(_FakeWorld(faulty={3}))
        monitor.on_view(3, 9, 1.0)  # a Byzantine party may claim anything

    def test_world_routes_view_notes_to_monitors(self):
        from repro.protocols.psync.pbft import PbftPsync

        monitor = ViewProgress(max_view=3)
        world = World(
            n=4,
            f=1,
            delay_policy=FixedDelay(0.1),
            fault_plan=FaultPlan(crashes=(Crash(0, 0.0),)),
            monitors=[monitor],
        )
        world.populate(
            PbftPsync.factory(broadcaster=0, input_value="v", big_delta=1.0)
        )
        world.run(until=50.0)
        # The crashed leader forced everyone through views 1 and 2.
        assert monitor._views[1] == 2


class TestStandardMonitors:
    def test_battery_composition(self):
        basic = standard_monitors()
        assert [m.invariant for m in basic] == ["agreement", "integrity"]
        full = standard_monitors(
            expected="v", deadline=9.0, protocol="brb_2round"
        )
        assert [m.invariant for m in full] == [
            "agreement", "integrity", "validity", "termination"
        ]
        assert all(m.protocol == "brb_2round" for m in full)

    def test_violations_are_invariant_violations(self):
        monitor = standard_monitors(expected="v")[2]
        monitor.bind(_FakeWorld())
        with pytest.raises(InvariantViolation):
            monitor.on_commit(1, "w", 0.5)


def _judged_brb(monitors, *, until=None, **world_kwargs):
    """BRB n=4 under seeded uniform delays with ``monitors`` attached,
    finalized after the run the way the chaos harness does it."""
    world = World(
        n=4, f=1, delay_policy=UniformDelay(0.0, 1.0, seed=5),
        monitors=monitors, **world_kwargs,
    )
    world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
    result = world.run(until=until)
    judge(monitors, world)
    return result


class TestWorldIntegration:
    def test_clean_run_passes_the_full_battery(self):
        result = _judged_brb(
            standard_monitors(
                expected="v", deadline=50.0, protocol="brb_2round"
            ),
            protocol_name="brb_2round",
        )
        assert set(result.commits.values()) == {"v"}

    def test_plan_crashed_parties_are_exempt(self):
        """A crash inside the budget stops party 3 from ever committing;
        the termination monitor must treat it as spent fault budget."""
        result = _judged_brb(
            standard_monitors(expected="v", deadline=50.0),
            fault_plan=FaultPlan(crashes=(Crash(3, 0.0),)),
        )
        assert 3 not in result.commits
        assert set(result.commits) == {0, 1, 2}

    def test_over_budget_crashes_trip_termination(self):
        with pytest.raises(TerminationViolation) as excinfo:
            _judged_brb(
                standard_monitors(expected="v", deadline=50.0),
                until=50.0,
                fault_plan=FaultPlan(
                    crashes=(Crash(2, 0.0), Crash(3, 0.0)),
                ),
                protocol_name="brb_2round",
            )
        assert excinfo.value.protocol == "brb_2round"
        assert excinfo.value.invariant == "termination"

    def test_commit_conflict_reaches_integrity_monitor(self):
        """Force a second, different commit through the party runtime:
        ``Party.commit`` must route the conflict to the monitors."""
        world = World(
            n=4,
            f=1,
            delay_policy=FixedDelay(1.0),
            monitors=[IntegrityMonitor()],
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        world.run()
        party = world.agents[1]
        assert party.has_committed
        with pytest.raises(IntegrityViolation) as excinfo:
            party.commit("something-else")
        assert excinfo.value.party == 1
