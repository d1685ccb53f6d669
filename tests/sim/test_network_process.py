"""Integration tests for network + party runtime via a tiny echo protocol."""
import pytest

from repro.errors import SimulationError
from repro.sim.delays import FixedDelay, PerLinkDelay
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast
from repro.types import INF


class EchoParty(Party):
    """Party 0 multicasts "ping" at start; everyone replies "pong" to 0."""

    def on_start(self):
        if self.id == 0:
            self.multicast(("ping",), include_self=False)

    def on_message(self, sender, payload):
        if payload == ("ping",):
            self.send(0, ("pong", self.id))
        elif payload[0] == "pong" and self.id == 0:
            self.commit(("heard", payload[1]))


class TestNetworkDelivery:
    def test_fixed_delay_delivery_times(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(EchoParty)
        world.run()
        party0 = world.agents[0]
        # ping at t=0, pong sent at t=1, arrives t=2.
        assert party0.commit_global_time == 2.0

    def test_per_link_delays(self):
        policy = PerLinkDelay({(0, 1): 0.5, (1, 0): 0.25}, default=2.0)
        world = World(n=3, f=0, delay_policy=policy)
        world.populate(EchoParty)
        world.run()
        # Party 1's pong: ping arrives 0.5, reply arrives 0.75.
        assert world.agents[0].commit_global_time == 0.75

    def test_infinite_delay_drops_message(self):
        policy = PerLinkDelay({(0, 1): INF, (0, 2): INF}, default=1.0)
        world = World(n=3, f=0, delay_policy=policy)
        world.populate(EchoParty)
        world.run()
        assert not world.agents[0].has_committed

    def test_fully_dropped_multicast_never_digests(self):
        # A payload the adversary withholds on every link is never
        # scheduled, so its order-key digest must never be computed.
        from repro.crypto.messages import clear_digest_cache, digest_stats

        policy = PerLinkDelay({(0, 1): INF, (0, 2): INF}, default=1.0)
        world = World(n=3, f=0, delay_policy=policy)
        world.populate(EchoParty)
        clear_digest_cache()
        digest_stats.reset()
        world.run()
        assert digest_stats.digests_computed == 0
        assert world.network.messages_sent == 2  # sends counted, not delivered
        clear_digest_cache()

    def test_message_counters(self):
        world = World(n=4, f=0, delay_policy=FixedDelay(1.0))
        world.populate(EchoParty)
        world.run()
        # 3 pings + 3 pongs.
        assert world.network.messages_sent == 6
        assert world.network.messages_delivered == 6

    def test_delay_override_requires_byzantine_endpoint(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(EchoParty)
        with pytest.raises(SimulationError):
            world.network.send(0, 1, "x", delay_override=0.0)

    def test_buffering_until_recipient_start(self):
        # Party 1 starts at t=5; the ping sent at t=0 with delay 1 must be
        # buffered and delivered at t=5 (local time 0).
        world = World(
            n=2,
            f=0,
            delay_policy=FixedDelay(1.0),
            start_offsets=[0.0, 5.0],
        )
        world.populate(EchoParty)
        world.run()
        party1 = world.agents[1]
        recvs = [e for e in party1.transcript.entries if e.kind == "recv"]
        assert recvs[0].local_time == 0.0
        # pong sent at t=5 arrives at t=6.
        assert world.agents[0].commit_global_time == 6.0


class TestPartyRuntime:
    def test_local_timers_fire_at_local_time(self):
        class TimerParty(Party):
            def on_start(self):
                self.fired_at = None
                self.at_local_time(3.0, self._fire)

            def _fire(self):
                self.fired_at = (self.local_time(), self.world.sim.now)

        world = World(
            n=2, f=0, delay_policy=FixedDelay(1.0), start_offsets=[0.0, 2.0]
        )
        world.populate(TimerParty)
        world.run()
        assert world.agents[0].fired_at == (3.0, 3.0)
        assert world.agents[1].fired_at == (3.0, 5.0)

    def test_past_local_time_runs_now(self):
        class LateTimer(Party):
            def on_start(self):
                self.calls = []
                self.at_local_time(2.0, lambda: self.at_local_time(
                    1.0, lambda: self.calls.append(self.local_time())
                ))

        world = World(n=1, f=0, delay_policy=FixedDelay(1.0))
        world.populate(LateTimer)
        world.run()
        assert world.agents[0].calls == [2.0]

    def test_terminate_cancels_timers_and_ignores_messages(self):
        class Quitter(Party):
            def on_start(self):
                self.late_fired = False
                self.at_local_time(10.0, self._late)
                if self.id == 0:
                    self.multicast(("ping",), include_self=False)
                self.terminate()

            def _late(self):
                self.late_fired = True

            def on_message(self, sender, payload):
                raise AssertionError("terminated party processed a message")

        world = World(n=2, f=0, delay_policy=FixedDelay(1.0))
        world.populate(Quitter)
        world.run()
        assert not world.agents[1].late_fired

    def test_commit_is_recorded_once(self):
        class DoubleCommitter(Party):
            def on_start(self):
                self.commit("first")
                self.commit("second")

        world = World(n=1, f=0, delay_policy=FixedDelay(1.0))
        world.populate(DoubleCommitter)
        result = world.run()
        assert result.commits == {0: "first"}

    def test_causal_round_accounting(self):
        # proposal (round 0) -> vote (round 1) -> commit at round 2,
        # matching the paper's Appendix A example.
        class MiniBrb(Party):
            def on_start(self):
                if self.id == 0:
                    self.multicast(("propose",))

            def on_message(self, sender, payload):
                if payload == ("propose",):
                    self.multicast(("vote", self.id))
                elif payload[0] == "vote":
                    votes = getattr(self, "votes", set())
                    votes.add(payload[1])
                    self.votes = votes
                    if len(votes) >= self.n - self.f:
                        self.commit("v")

        result = run_broadcast(
            n=4, f=1, party_factory=MiniBrb, delay_policy=FixedDelay(1.0)
        )
        assert result.all_honest_committed()
        assert result.round_latency() == 2

    def test_run_result_latency(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(EchoParty)
        world.run()

        class AlwaysCommit(EchoParty):
            def on_start(self):
                super().on_start()
                self.commit("x")

        result = run_broadcast(
            n=3, f=0, party_factory=AlwaysCommit,
            delay_policy=FixedDelay(1.0),
        )
        assert result.all_honest_committed()
        assert result.agreement_holds()
        assert result.latency_from(0.0) == 0.0


class TestFanoutRanges:
    """A multicast fans out as ranges; runs carry slices of them."""

    def test_late_attach_receives_inflight_run(self):
        # A batched run event captures its recipient range at multicast
        # time; inboxes must be resolved at *fire* time, so a party
        # attached while the run is in flight still receives its copy
        # (exactly like the per-copy path, which also probes the inbox
        # at delivery).
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        sim = Simulator()
        network = Network(sim, FixedDelay(1.0), n=4)
        got: list[tuple[int, int]] = []
        for pid in (0, 2, 3):
            network.attach(
                pid, lambda s, p, pid=pid: got.append((pid, s))
            )
        network.multicast(0, ("hello",), include_self=False)
        assert network.delivery_runs_batched == 1
        # Party 1 attaches after the run was scheduled but before it
        # fires: the recipient range must not have been filtered against
        # attach-time inboxes.
        network.attach(1, lambda s, p: got.append((1, s)))
        sim.run()
        assert sorted(got) == [(1, 0), (2, 0), (3, 0)]
        assert network.deliveries_batched == 3
        assert network.messages_delivered == 3

    @staticmethod
    def _multicast_landings(network, sim, sender, parties):
        """Recipients of one multicast from ``sender``, in delivery order
        (local inboxes, then any remote wire records)."""
        got: list[int] = []
        for pid in parties:
            network.attach(pid, lambda s, p, pid=pid: got.append(pid))
        network.multicast(sender, ("m", sender), include_self=False)
        sim.run()
        for _, _, lo, hi, _ in getattr(network, "outbuf", ()):
            got.extend(range(lo, hi))
        return got

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_multicast_reaches_everyone_but_sender_once_in_order(self, n):
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        for sender in sorted({0, 1, n // 2, n - 1}):
            sim = Simulator()
            network = Network(sim, FixedDelay(1.0), n=n)
            got = self._multicast_landings(network, sim, sender, range(n))
            assert got == [r for r in range(n) if r != sender]
            assert network.messages_sent == n - 1

    @pytest.mark.parametrize("delay", ["fixed", "uniform"])
    def test_shard_multicast_from_either_edge_of_its_range(self, delay):
        # The shard's own range [3, 7) holds the sender at both edges;
        # locals come through the inboxes, the rest as wire records.
        from repro.sim.delays import UniformDelay
        from repro.sim.scheduler import Simulator
        from repro.sim.shard import ShardNetwork

        n, lo, hi = 10, 3, 7
        for sender in (lo, hi - 1):
            sim = Simulator()
            policy = (
                FixedDelay(1.0) if delay == "fixed"
                else UniformDelay(0.1, 1.0, seed=3, stream="counter")
            )
            network = ShardNetwork(sim, policy, n=n, lo=lo, hi=hi)
            got = self._multicast_landings(
                network, sim, sender, range(lo, hi)
            )
            local = [r for r in got if lo <= r < hi]
            if delay == "fixed":
                assert local == [r for r in range(lo, hi) if r != sender]
            assert sorted(got) == [r for r in range(n) if r != sender]

    def test_sequential_stream_draws_are_unchanged_by_the_split(self):
        # A sequential stream is consumed in pricing order: the fan-out's
        # two ranges must draw exactly what one everyone-but-sender
        # vector would, recipient by recipient.
        from repro.sim.clock import quantize
        from repro.sim.delays import UniformDelay
        from repro.sim.network import Network
        from repro.sim.scheduler import Simulator

        n, sender = 9, 4
        sim = Simulator()
        network = Network(
            sim, UniformDelay(0.1, 1.0, seed=11), n=n
        )
        landed: dict[int, float] = {}
        for pid in range(n):
            network.attach(
                pid, lambda s, p, pid=pid: landed.__setitem__(pid, sim.now)
            )
        network.multicast(sender, ("m",), include_self=False)
        sim.run()
        others = [r for r in range(n) if r != sender]
        reference = UniformDelay(0.1, 1.0, seed=11).delays_for_multicast(
            sender, others, ("m",), 0.0
        )
        assert landed == {
            r: quantize(d) for r, d in zip(others, reference)
        }
