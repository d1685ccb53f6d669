"""Tests for the pluggable instrumentation layer and batched delays.

The load-bearing property: instrumentation is a *mode*, never a semantics
change.  The same seed and protocol must yield byte-identical commit
outcomes under ``full``, ``rounds`` and ``perf``; only the recorded
observability differs.
"""
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import (
    FixedDelay,
    FunctionDelay,
    GstDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.instrumentation import (
    Instrumentation,
    full_instrumentation,
    perf_instrumentation,
    resolve_instrumentation,
    rounds_instrumentation,
)
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast
from repro.types import INF


class Committer(Party):
    def on_start(self):
        self.commit("v")


def brb_run(instrumentation, *, n=7, f=2, seed=11):
    return run_broadcast(
        n=n,
        f=f,
        party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        delay_policy=UniformDelay(0.1, 1.0, seed=seed),
        instrumentation=instrumentation,
    )


class TestPresets:
    def test_full_records_everything(self):
        instr = full_instrumentation()
        assert instr.records_rounds
        assert instr.records_transcripts
        assert not instr.records_envelopes
        assert instr.transcript_for(3) is not None

    def test_rounds_drops_transcripts(self):
        instr = rounds_instrumentation()
        assert instr.records_rounds
        assert not instr.records_transcripts
        assert instr.transcript_for(3) is None

    def test_perf_drops_all_observers(self):
        instr = perf_instrumentation()
        assert instr.accountant is None
        assert instr.transcript_for(3) is None
        assert instr.envelopes is None

    def test_resolve_default_is_full(self):
        assert resolve_instrumentation(None).name == "full"

    def test_resolve_passes_instances_through(self):
        instr = Instrumentation(name="mine", rounds=False)
        assert resolve_instrumentation(instr) is instr

    def test_resolve_rejects_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            resolve_instrumentation("verbose")

    def test_envelopes_require_full(self):
        with pytest.raises(ConfigurationError):
            resolve_instrumentation("perf", record_envelopes=True)
        instr = resolve_instrumentation("full", record_envelopes=True)
        assert instr.records_envelopes


class TestModeEquivalence:
    """Same seed, different instrumentation => same outcome."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            mode: brb_run(mode) for mode in ("full", "rounds", "perf")
        }

    def test_identical_commits(self, runs):
        assert runs["full"].commits == runs["perf"].commits
        assert runs["full"].commits == runs["rounds"].commits
        assert runs["full"].all_honest_committed()

    def test_identical_commit_times_and_counts(self, runs):
        full, perf = runs["full"], runs["perf"]
        assert full.commit_global_times == perf.commit_global_times
        assert full.messages_sent == perf.messages_sent
        assert full.final_time == perf.final_time
        assert full.events_processed == perf.events_processed

    def test_rounds_mode_keeps_round_accounting(self, runs):
        assert runs["rounds"].commit_rounds == runs["full"].commit_rounds
        assert runs["rounds"].round_latency() == runs["full"].round_latency()

    def test_perf_mode_has_no_rounds(self, runs):
        assert runs["perf"].commit_rounds == {}
        assert not runs["perf"].rounds_recorded
        with pytest.raises(ValueError):
            runs["perf"].round_latency()

    def test_result_records_its_mode(self, runs):
        assert runs["full"].instrumentation == "full"
        assert runs["perf"].instrumentation == "perf"


class TestPerfModeRecordsNothing:
    def test_zero_transcript_entries(self):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), instrumentation="perf"
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        world.run()
        for party in world.honest_parties():
            assert party.transcript is None
        assert world.accountant is None
        assert world.network.envelopes == []
        assert world.commit_order  # commit tracking stays on

    def test_perf_mode_reaches_proxy_world_parties(self):
        # SMR slot instances live behind a proxy world; the outer mode
        # must propagate so perf runs shed their transcripts too.
        from repro.smr import KeyValueStore, smr_factory

        world = World(
            n=5, f=1, delay_policy=FixedDelay(0.1), instrumentation="perf"
        )
        world.populate(
            smr_factory(
                leader=0,
                workload=[("set", "k", 1)],
                state_machine_factory=KeyValueStore,
                big_delta=1.0,
            )
        )
        world.run(until=100.0)
        for replica in world.honest_parties():
            assert replica.transcript is None
            for slot_party in replica.hosted.values():
                assert slot_party.transcript is None
        snapshots = {r.state_machine.snapshot() for r in world.honest_parties()}
        assert len(snapshots) == 1

    def test_full_mode_still_records_transcripts(self):
        world = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        world.run()
        for party in world.honest_parties():
            assert party.transcript is not None
            assert any(
                e.kind == "recv" for e in party.transcript.entries
            )


class TestBatchedDelays:
    """delays_for_multicast == one delay() call per recipient, always."""

    RECIPIENTS = [1, 2, 3, 4]

    def assert_batched_matches(self, make_policy):
        batched = make_policy().delays_for_multicast(
            0, self.RECIPIENTS, ("msg",), 0.5
        )
        single = make_policy()  # fresh instance: same internal state
        loop = [single.delay(0, r, ("msg",), 0.5) for r in self.RECIPIENTS]
        assert batched == loop

    def test_fixed(self):
        self.assert_batched_matches(lambda: FixedDelay(0.7))

    def test_uniform_same_seed_same_stream(self):
        self.assert_batched_matches(
            lambda: UniformDelay(0.2, 0.9, seed=42)
        )

    def test_per_link(self):
        self.assert_batched_matches(
            lambda: PerLinkDelay({(0, 2): 0.1, (0, 4): INF}, default=1.5)
        )

    def test_function(self):
        self.assert_batched_matches(
            lambda: FunctionDelay(lambda s, r, p, t: 0.1 * (r + 1) + t)
        )

    def test_gst_wrapping_uniform(self):
        def make():
            return GstDelay(
                gst=5.0,
                big_delta=1.0,
                pre_gst=UniformDelay(0.0, 10.0, seed=7),
            )

        batched = make().delays_for_multicast(0, self.RECIPIENTS, "m", 2.0)
        single = make()
        loop = [single.delay(0, r, "m", 2.0) for r in self.RECIPIENTS]
        assert batched == loop
        assert all(0 <= d <= 5.0 - 2.0 + 1.0 for d in batched)

    def test_base_implementation_calls_delay_in_recipient_order(self):
        from repro.sim.delays import DelayPolicy

        class CountingPolicy(DelayPolicy):
            def __init__(self):
                self.calls = []

            def delay(self, sender, recipient, payload, send_time):
                self.calls.append(recipient)
                return 1.0

        policy = CountingPolicy()
        assert policy.delays_for_multicast(0, [1, 2, 3], "m", 0.0) == [
            1.0, 1.0, 1.0,
        ]
        assert policy.calls == [1, 2, 3]


class TestBatchedMulticastEndToEnd:
    def test_uniform_policy_run_matches_per_recipient_semantics(self):
        # Two identically-seeded runs must be identical even though one
        # samples delays per multicast and the other per recipient (the
        # base-class fallback path, forced via a subclass).
        class PerRecipientUniform(UniformDelay):
            def delays_for_multicast(self, sender, recipients, payload, t):
                return [
                    self.delay(sender, r, payload, t) for r in recipients
                ]

        factory = Brb2Round.factory(broadcaster=0, input_value="v")
        batched = run_broadcast(
            n=5, f=1, party_factory=factory,
            delay_policy=UniformDelay(0.1, 1.0, seed=3),
        )
        fallback = run_broadcast(
            n=5, f=1, party_factory=factory,
            delay_policy=PerRecipientUniform(0.1, 1.0, seed=3),
        )
        assert batched.commits == fallback.commits
        assert batched.commit_global_times == fallback.commit_global_times
        assert batched.final_time == fallback.final_time

    def test_byzantine_override_multicast_still_guarded(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(Committer)
        with pytest.raises(SimulationError):
            world.network.multicast(0, "m", delay_override=0.5)


class TestBundleReuseGuard:
    def test_bundle_cannot_attach_to_two_worlds(self):
        # Bundles hold per-execution state (accountant, commit order);
        # reuse would silently mix two runs' records.
        bundle = rounds_instrumentation()
        World(n=3, f=0, delay_policy=FixedDelay(1.0), instrumentation=bundle)
        with pytest.raises(ConfigurationError):
            World(
                n=3, f=0, delay_policy=FixedDelay(1.0),
                instrumentation=bundle,
            )

    def test_preset_names_stay_reusable(self):
        for _ in range(2):
            World(
                n=3, f=0, delay_policy=FixedDelay(1.0),
                instrumentation="perf",
            )


class TestPopulateGuard:
    def test_second_populate_rejected(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(Committer)
        with pytest.raises(ConfigurationError):
            world.populate(Committer)

    def test_guard_applies_even_with_crash_only_byzantine(self):
        # All-Byzantine-crash worlds attach nobody, so only the guard
        # (not Network.attach) can catch the double start scheduling.
        world = World(
            n=2, f=2, delay_policy=FixedDelay(1.0),
            byzantine=frozenset({0, 1}),
        )
        world.populate(Committer)
        with pytest.raises(ConfigurationError):
            world.populate(Committer)
        assert len(world.sim._queue) == 0
