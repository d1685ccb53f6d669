"""A hosted party is indistinguishable from an attached one.

Every protocol in ``PROTOCOLS`` is run once all-honest and then with one
id replaced by a host that takes nothing away (a pass-all filter, a
one-brain partition with everyone a member, a crash window that never
opens).  Under a link-keyed delay stream the executions must coincide:
the honest parties cannot tell, and the hosted brain commits what that
id committed when it was attached to the world directly.
"""
import pytest

from repro.adversary.behaviors import (
    CrashBehavior,
    FilteredHonestBehavior,
    SplitBrainBehavior,
    crash_at,
    pass_all,
)
from repro.analysis.chaos import CHAOS_SPECS
from repro.protocols import PROTOCOLS
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.runner import World
from repro.smr import KeyValueStore, smr_factory
from repro.types import INF

#: host label -> (party factory -> behavior factory), each honest-equivalent.
HOSTS = {
    "filtered": lambda party: FilteredHonestBehavior.factory(
        party_factory=party, send_filter=pass_all
    ),
    "split-brain": lambda party: SplitBrainBehavior.factory(
        brain_factories={"all": party}, membership=lambda peer: "all"
    ),
    "crash-never": lambda party: CrashBehavior.factory(
        at=INF, party_factory=party
    ),
}


def _outcomes(protocol, host=None, hosted_id=None):
    """``{party: (committed value, commit time)}``, the brain's included."""
    spec = CHAOS_SPECS[protocol]
    kwargs = {} if spec.timing == "async" else {"big_delta": spec.big_delta}
    party = PROTOCOLS[protocol].factory(
        broadcaster=0, input_value="v", **kwargs
    )
    world = World(
        n=spec.n,
        f=spec.f,
        delay_policy=UniformDelay(0.1, 0.8, seed=17, stream="counter"),
        byzantine=frozenset() if host is None else frozenset({hosted_id}),
    )
    world.populate(party, None if host is None else HOSTS[host](party))
    world.run(until=200.0)
    parties = dict(world.agents)
    if host is not None:
        (parties[hosted_id],) = world.agents[hosted_id].hosted.values()
    return {
        pid: (p.committed_value, p.commit_global_time)
        for pid, p in parties.items()
    }


@pytest.fixture(scope="module")
def all_honest():
    return {protocol: _outcomes(protocol) for protocol in PROTOCOLS}


def test_every_protocol_has_a_sample_size():
    assert set(CHAOS_SPECS) == set(PROTOCOLS)
    assert all(spec.n <= 11 and spec.f >= 1 for spec in CHAOS_SPECS.values())


@pytest.mark.parametrize("hosted_id", ["broadcaster", "last"])
@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_hosted_equals_attached(all_honest, protocol, host, hosted_id):
    pid = 0 if hosted_id == "broadcaster" else CHAOS_SPECS[protocol].n - 1
    reference = all_honest[protocol]
    assert all(value == "v" for value, _ in reference.values())
    assert _outcomes(protocol, host, pid) == reference


class TestNestedHosts:
    """An ``SmrReplica`` — itself a host of slot instances — as a brain."""

    WORKLOAD = [("set", f"k{i}", i) for i in range(4)]

    def _run(self, behavior):
        replica = smr_factory(
            leader=0,
            workload=self.WORKLOAD,
            state_machine_factory=KeyValueStore,
            big_delta=1.0,
        )
        world = World(
            n=9, f=2, delay_policy=FixedDelay(0.1), byzantine=frozenset({8})
        )
        world.populate(replica, behavior(replica))
        world.run(until=500.0)
        return world

    def test_replica_hosted_as_a_pass_all_brain_commits_the_full_log(self):
        world = self._run(HOSTS["filtered"])
        (brain,) = world.agents[8].hosted.values()
        assert brain.committed_log == self.WORKLOAD
        assert sorted(brain.hosted) == [0, 1, 2, 3]
        reference = world.agents[1]
        assert brain.commit_times == reference.commit_times
        assert brain.committed_value == reference.committed_value

    def test_replica_crashing_and_recovering_does_not_block_the_rest(self):
        world = self._run(
            lambda replica: crash_at(
                at=0.15, recover=0.5, party_factory=replica
            )
        )
        honest = world.honest_parties()
        assert len(honest) == 8
        assert all(r.committed_log == self.WORKLOAD for r in honest)
        assert len({r.state_machine.snapshot() for r in honest}) == 1
