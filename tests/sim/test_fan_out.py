"""Rule table for ``Network._fan_out``, run against all three emitters.

Every send in the simulator — unicast, multicast, retransmission, the
sharded network's remote ranges — prices its copies and hands the delay
vector to ``_fan_out``, the one place the delivery rules live.  These
tests pin the rules once and replay them through each emitter a network
can be built with: ``_emit_run`` (nothing attached), ``_emit_routed``
(a fault injector, here with an empty plan) and
``ShardNetwork._emit_remote`` (outbuf wire records).
"""
import pytest

from repro.crypto.messages import clear_digest_cache, digest_stats
from repro.errors import SimulationError
from repro.sim.delays import FixedDelay
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network
from repro.sim.scheduler import Simulator
from repro.sim.shard import ShardNetwork
from repro.types import INF

N = 6
EMITTERS = ("run", "routed", "remote")


class Harness:
    """Party 0 fans out to parties 1..5 through one kind of emitter."""

    def __init__(self, kind, *, start_offsets=None, byzantine=frozenset()):
        self.kind = kind
        self.sim = Simulator()
        kwargs = dict(n=N, start_offsets=start_offsets, byzantine=byzantine)
        if kind == "remote":
            # Party 0 is the whole local range: every recipient is remote.
            self.net = ShardNetwork(
                self.sim, FixedDelay(1.0), lo=0, hi=1, **kwargs
            )
            self.recipients = range(1, N)
            self.emit = self.net._emit_remote
        else:
            injector = (
                FaultInjector(FaultPlan(), n=N) if kind == "routed" else None
            )
            self.net = Network(
                self.sim, FixedDelay(1.0), fault_injector=injector, **kwargs
            )
            self.recipients = list(range(1, N))
            self.emit = self.net._emit
        self.landed = []
        for party in range(N):
            self.net.attach(
                party,
                lambda sender, payload, party=party: self.landed.append(
                    (party, self.sim.now)
                ),
            )

    def fan_out(self, delays, payload=("m",)):
        return self.net._fan_out(
            0, self.recipients, delays, payload, 0.0, self.emit
        )

    def emitted(self) -> int:
        """Physical units the emitter produced: events or wire records."""
        if self.kind == "remote":
            return len(self.net.outbuf)
        return self.sim.pending_events()

    def landings(self) -> dict:
        """``recipient -> delivery instant`` of every copy that lands."""
        if self.kind == "remote":
            return {
                recipient: time
                for _, _, lo, hi, time in self.net.outbuf
                for recipient in range(lo, hi)
            }
        self.sim.run()
        assert len(self.landed) == len(dict(self.landed))
        return dict(self.landed)


#: name -> (delays, start offsets, expected landings, emitted units per
#: emitter kind).  A run is one unit for ``run``/``remote`` and one unit
#: per copy for ``routed``.
RULES = {
    "equal positive delays form one run": (
        [1.0] * 5, None,
        {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0},
        {"run": 1, "routed": 5, "remote": 1},
    ),
    "an INF run is dropped, its neighbours keep their runs": (
        [INF, 0.5, 0.5, INF, INF], None,
        {2: 0.5, 3: 0.5},
        {"run": 1, "routed": 2, "remote": 1},
    ),
    "distinct delays are singletons": (
        [0.1, 0.2, 0.3, 0.2, 0.1], None,
        {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.2, 5: 0.1},
        {"run": 5, "routed": 5, "remote": 5},
    ),
    "a same-instant run stays per copy": (
        [0.0] * 5, None,
        {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0},
        {"run": 5, "routed": 5, "remote": 1},
    ),
    "staggered starts quantize per recipient": (
        [1.0] * 5, [0.0, 0.0, 2.5, 0.0, 0.0, 7.0],
        {1: 1.0, 2: 2.5, 3: 1.0, 4: 1.0, 5: 7.0},
        {"run": 5, "routed": 5, "remote": 5},
    ),
    "instants are quantized": (
        [1 / 3] * 5, None,
        dict.fromkeys(range(1, 6), 0.333333333333),
        {"run": 1, "routed": 5, "remote": 1},
    ),
}


@pytest.mark.parametrize("kind", EMITTERS)
@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_table(rule, kind):
    delays, start_offsets, landings, emitted = RULES[rule]
    harness = Harness(kind, start_offsets=start_offsets)
    # The local emitters digested the payload for the order key; a wire
    # record needs none (the destination digests).
    assert (harness.fan_out(delays) is None) == (kind == "remote")
    assert harness.emitted() == emitted[kind]
    assert harness.landings() == landings


def test_only_unobserved_later_runs_fold():
    folded = Harness("run")
    folded.fan_out([1.0, 1.0, 1.0, 2.0, 2.0])
    assert folded.net.delivery_runs_batched == 2
    assert folded.net.deliveries_batched == 5
    same_instant = Harness("run")
    same_instant.fan_out([0.0] * 5)
    assert same_instant.net.delivery_runs_batched == 0
    singleton = Harness("run")
    singleton.fan_out([INF, INF, 1.0, INF, INF])
    assert singleton.emitted() == 1
    assert singleton.net.delivery_runs_batched == 0


@pytest.mark.parametrize("kind", EMITTERS)
def test_withheld_fan_out_is_never_digested(kind):
    harness = Harness(kind)
    clear_digest_cache()
    digest_stats.reset()
    assert harness.fan_out([INF] * 5, payload=("withheld", kind)) is None
    assert harness.emitted() == 0
    assert digest_stats.digests_computed == 0


@pytest.mark.parametrize("kind", EMITTERS)
def test_negative_delay_raises_before_anything_is_scheduled(kind):
    harness = Harness(kind)
    with pytest.raises(SimulationError, match="negative delay -0.5"):
        harness.fan_out([1.0, 2.0, -0.5, 1.0, 1.0])
    assert harness.emitted() == 0


@pytest.mark.parametrize("kind", EMITTERS)
def test_delay_vector_must_match_recipients(kind):
    harness = Harness(kind)
    with pytest.raises(SimulationError, match="4 delays for 5 recipients"):
        harness.fan_out([1.0] * 4)
    assert harness.emitted() == 0


@pytest.mark.parametrize("kind", EMITTERS)
def test_honest_override_multicast_raises_before_any_copy(kind):
    # Party 1 is Byzantine, so the copy 0 -> 1 alone would be legal; the
    # multicast as a whole is not, and must not leave that copy queued.
    harness = Harness(kind, byzantine=frozenset({1}))
    with pytest.raises(SimulationError, match="delay overrides require"):
        harness.net.multicast(0, ("m",), delay_override=3.0)
    assert harness.emitted() == 0
    assert harness.net.messages_sent == 0


def test_byzantine_override_multicast_is_one_fan_out():
    harness = Harness("run", byzantine=frozenset({0}))
    harness.net.multicast(0, ("m",), include_self=False, delay_override=3.0)
    assert harness.net.messages_sent == 5
    assert harness.landings() == dict.fromkeys(range(1, 6), 3.0)
