"""Tests for timed crash behaviors and the mixed crash+equivocate factory."""
from repro.adversary.behaviors import CrashBehavior, crash_at
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast

from vote_attacks import crash_and_equivocate


class Chatter(Party):
    """Says hello on start, echoes back every hello; records everything."""

    def __init__(self, world, pid):
        super().__init__(world, pid)
        self.heard = []
        self.started_at = None

    def on_start(self):
        self.started_at = self.world.sim.now
        self.multicast(("hello", self.id), include_self=False)

    def on_message(self, sender, payload):
        self.heard.append((self.world.sim.now, sender, payload))


def _chatter_world(*, behavior_factory, n=4):
    world = World(
        n=n, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({n - 1})
    )
    world.populate(lambda w, pid: Chatter(w, pid), behavior_factory)
    world.run()
    return world


class TestBareCrashBehavior:
    def test_default_is_crash_from_start(self):
        world = _chatter_world(behavior_factory=CrashBehavior)
        crasher = world.agents[3]
        assert crasher.is_down(0.0) and crasher.is_down(1e9)
        # Nothing from party 3 ever reached an honest party.
        for pid in (0, 1, 2):
            senders = {s for _, s, _ in world.agents[pid].heard}
            assert senders == {0, 1, 2} - {pid}


class TestTimedCrashBehavior:
    def test_honest_until_crash_then_silent(self):
        world = _chatter_world(
            behavior_factory=crash_at(
                at=1.5, party_factory=lambda w, pid: Chatter(w, pid)
            )
        )
        crasher = world.agents[3]
        brain = crasher.hosted[CrashBehavior.BRAIN]
        assert brain.started_at == 0.0
        # The brain's hello (sent at 0, up) went out...
        for pid in (0, 1, 2):
            senders = {s for _, s, _ in world.agents[pid].heard}
            assert 3 in senders
        # ...and the peers' hellos landed at t=1.0, still before the
        # crash; from 1.5 on the party is permanently dark.
        assert {s for _, s, _ in brain.heard} == {0, 1, 2}
        assert world.agents[3].is_down(1.5) and world.agents[3].is_down(1e9)

    def test_window_gates_deliveries_and_sends(self):
        world = _chatter_world(
            behavior_factory=crash_at(
                at=0.5,
                recover=1.5,
                party_factory=lambda w, pid: Chatter(w, pid),
            )
        )
        crasher = world.agents[3]
        assert not crasher.is_down(0.0)
        assert crasher.is_down(1.0)
        assert not crasher.is_down(1.5)
        brain = crasher.hosted[CrashBehavior.BRAIN]
        # Hellos from 0/1/2 arrive at t=1.0 — inside [0.5, 1.5) — and are
        # lost (a copy landing in a crash window is dropped, not redelivered).
        assert brain.heard == []

    def test_covered_start_reboots_at_recovery(self):
        """A window covering the start offset delays the brain's start to
        the first recovery instant — a replica rebooting mid-protocol."""
        world = _chatter_world(
            behavior_factory=crash_at(
                at=0.0,
                recover=2.5,
                party_factory=lambda w, pid: Chatter(w, pid),
            )
        )
        brain = world.agents[3].hosted[CrashBehavior.BRAIN]
        assert brain.started_at == 2.5
        # Its late hello (sent at 2.5, after recovery) reaches everyone.
        for pid in (0, 1, 2):
            assert (3.5, 3, ("hello", 3)) in world.agents[pid].heard

    def test_crash_never_recovering_without_brain_stays_inert(self):
        world = _chatter_world(behavior_factory=crash_at(at=0.0))
        assert world.agents[3].hosted == {}
        assert world.agents[3].is_down(123.0)


class TestCrashAndEquivocate:
    def test_mixed_adversary_within_budget_still_commits(self):
        """f=3 budget split as one crasher + two equivocators: honest
        parties flag the double votes and commit the real value."""
        n, f = 10, 3
        byzantine = frozenset({7, 8, 9})
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            byzantine=byzantine,
            behavior_factory=crash_and_equivocate(
                broadcaster=0, crashers=frozenset({9})
            ),
            delay_policy=FixedDelay(1.0),
            instrumentation="full",
        )
        assert set(result.commits) == set(range(7))
        assert set(result.commits.values()) == {"v"}
        assert result.equivocations_detected > 0

    def test_crashers_route_to_timed_crash_behavior(self):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({3})
        )
        build = crash_and_equivocate(
            broadcaster=0, crashers=frozenset({3}), crash_time=2.0
        )
        agent = build(world, 3)
        assert isinstance(agent, CrashBehavior)
        assert not agent.is_down(1.0)
        assert agent.is_down(2.0)
        assert agent.window.next_recovery_after(0.0) is None  # crash-stop
