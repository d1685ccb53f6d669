"""A terminated party drops what it is handed, with no effect at all.

``Party.deliver`` states the contract: once a party has terminated, a
copy handed to it sends nothing, schedules nothing, commits nothing,
enters no view and moves no quorum tracker.  Two delivery shortcuts rest
on it: a full drain culls a per-copy delivery to a terminated party
(``Simulator.cull_copies``), and a folded run skips a terminated
recipient (``walk_run`` / ``walk_vote_run``).  A protocol that reacted to
a copy after terminating would make both shortcuts change its run.

For every class of ``repro.protocols.PROTOCOLS`` and for ``SmrReplica``
this records every message a real run delivers — the good case, plus a
run whose broadcaster is crashed from the start, which drives the
partially synchronous protocols through a view change — and hands each
one to every honest party of a finished run after terminating it.
"""
import pytest

from repro.analysis.chaos import CHAOS_SPECS
from repro.protocols import PROTOCOLS
from repro.protocols.quorum import QuorumTracker
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.runner import World
from repro.smr import KeyValueStore, smr_factory
from repro.smr.replica import SmrReplica

#: Long enough for a view change to finish at these sizes.
HORIZON = 40.0


def _factory(name, n):
    if name == "smr":
        return smr_factory(
            leader=0,
            workload=[("set", "a", 1), ("set", "b", 2)],
            state_machine_factory=KeyValueStore,
        )
    spec = CHAOS_SPECS[name]
    kwargs = {} if spec.timing == "async" else {"big_delta": spec.big_delta}
    return PROTOCOLS[name].factory(broadcaster=0, input_value="v", **kwargs)


def _world(name, byzantine=frozenset(), preset="perf"):
    if name == "smr":
        n, f, policy = 9, 2, FixedDelay(0.5)
    else:
        spec = CHAOS_SPECS[name]
        n, f = spec.n, spec.f
        policy = (
            FixedDelay(spec.big_delta)
            if spec.timing == "sync"
            else UniformDelay(0.1, 0.8, seed=5, stream="counter")
        )
    world = World(
        n=n, f=f, delay_policy=policy, byzantine=byzantine,
        instrumentation=preset,
    )
    world.populate(_factory(name, n))
    return world


def _recorded(name):
    """Every ``(sender, payload)`` handed to an inbox over two runs."""
    seen = []
    for byzantine in (frozenset(), frozenset({0})):
        world = _world(name, byzantine)
        inboxes = world.network._inboxes
        for pid, inbox in enumerate(inboxes):
            if inbox is not None:
                inboxes[pid] = (
                    lambda sender, payload, inbox=inbox:
                    (seen.append((sender, payload)), inbox(sender, payload))
                )
        world.run(until=HORIZON)
    return seen


def _trackers(party):
    """Each quorum tracker's state, the party's own and its hosted
    parties' (an SMR replica's slots)."""
    owners = [party, *getattr(party, "hosted", {}).values()]
    return [
        (
            name, tracker.value_counts(), tracker.checks, tracker.batched,
            sorted(tracker.equivocators),
        )
        for owner in owners
        for name, tracker in vars(owner).items()
        if isinstance(tracker, QuorumTracker)
    ]


def _state(world, party):
    return (
        world.network.messages_sent,
        world.sim.bucket_appends,
        party.has_committed,
        party.committed_value,
        party.commit_global_time,
        getattr(party, "current_view", None),
        len(world.instrumentation.view_changes),
        len(world.instrumentation.commit_conflicts),
        _trackers(party),
    )


@pytest.mark.parametrize("preset", ["perf", "full"])
@pytest.mark.parametrize("name", [*sorted(PROTOCOLS), "smr"])
def test_terminated_party_ignores_every_message(name, preset):
    messages = _recorded(name)
    kinds = {
        payload[0] if isinstance(payload, tuple) and payload else
        type(payload).__name__
        for _, payload in messages
    }
    assert messages and kinds
    world = _world(name, preset=preset)
    world.run(until=HORIZON)
    parties = world.honest_parties()
    assert all(type(p) is (SmrReplica if name == "smr" else PROTOCOLS[name])
               for p in parties)
    for party in parties:
        party.terminate()
        before = _state(world, party)
        for sender, payload in messages:
            party.deliver(sender, payload)
        assert _state(world, party) == before, party.id


def test_contract_sees_a_reacting_party():
    """The check is not vacuous: a live party handed the same messages
    does move (it sends, or tallies)."""
    messages = _recorded("brb_2round")
    world = _world("brb_2round")
    party = world.honest_parties()[1]
    before = _state(world, party)
    for sender, payload in messages:
        party.deliver(sender, payload)
    assert _state(world, party) != before
