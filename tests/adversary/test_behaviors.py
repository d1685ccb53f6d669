"""Tests for Byzantine behavior plug-ins."""
import pytest

from repro.adversary.behaviors import (
    CrashBehavior,
    FilteredHonestBehavior,
    ScriptStep,
    ScriptedBehavior,
    SplitBrainBehavior,
    fixed_delay_toward,
    pass_all,
)
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.analysis.engine import SweepEngine, SweepTask
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import World, run_broadcast
from repro.types import INF

from vote_attacks import (
    crash_and_equivocate,
    equivocate_votes,
    forge_vote_quorum,
)


class Gossip(Party):
    """Broadcaster (id 0) multicasts its input; everyone records receipt."""

    def __init__(self, world, pid, input_value=None):
        super().__init__(world, pid)
        self.input_value = input_value
        self.heard = {}

    def on_start(self):
        if self.input_value is not None:
            self.multicast(("val", self.input_value), include_self=False)

    def on_message(self, sender, payload):
        if payload[0] == "val":
            self.heard[sender] = payload[1]


def gossip_factory(world, pid):
    value = "v0" if pid == 0 else None
    return Gossip(world, pid, input_value=value)


class TestCrashBehavior:
    def test_crashed_party_sends_nothing(self):
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(gossip_factory, CrashBehavior)
        world.run()
        assert world.agents[1].heard == {}
        assert world.agents[2].heard == {}


class TestScriptedBehavior:
    def test_script_plays_back_with_chosen_delays(self):
        def script(behavior):
            return [
                ScriptStep(time=1.0, recipient=1, payload=("val", "x")),
                ScriptStep(
                    time=1.0, recipient=2, payload=("val", "y"), delay=3.0
                ),
            ]

        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            gossip_factory,
            lambda w, pid: ScriptedBehavior(w, pid, script_builder=script),
        )
        world.run()
        assert world.agents[1].heard == {0: "x"}
        assert world.agents[2].heard == {0: "y"}
        # Delay override of 3.0: delivered at t=4.
        assert world.agents[2].transcript.instants[0] == 4.0

    def test_script_can_sign_with_own_key(self):
        captured = {}

        class Verifier(Gossip):
            def on_message(self, sender, payload):
                captured[self.id] = self.verify(payload)

        def script(behavior):
            return [
                ScriptStep(
                    time=0.0, recipient=1, payload=behavior.signer.sign("m")
                )
            ]

        world = World(
            n=2, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            lambda w, pid: Verifier(w, pid),
            lambda w, pid: ScriptedBehavior(w, pid, script_builder=script),
        )
        world.run()
        assert captured[1] is True


class TestFilteredHonestBehavior:
    def test_pass_all_is_honest_equivalent(self):
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            gossip_factory,
            lambda w, pid: FilteredHonestBehavior(
                w, pid, party_factory=gossip_factory, send_filter=pass_all
            ),
        )
        world.run()
        assert world.agents[1].heard == {0: "v0"}
        assert world.agents[2].heard == {0: "v0"}

    def test_silent_toward_group(self):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            gossip_factory,
            lambda w, pid: FilteredHonestBehavior(
                w,
                pid,
                party_factory=gossip_factory,
                send_filter=fixed_delay_toward(dict.fromkeys({1, 2}, INF)),
            ),
        )
        world.run()
        assert world.agents[1].heard == {}
        assert world.agents[2].heard == {}
        assert world.agents[3].heard == {0: "v0"}

    def test_fixed_delay_toward(self):
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            gossip_factory,
            lambda w, pid: FilteredHonestBehavior(
                w,
                pid,
                party_factory=gossip_factory,
                send_filter=fixed_delay_toward({1: 5.0}),
            ),
        )
        world.run()
        assert world.agents[1].transcript.instants[0] == 5.0
        assert world.agents[2].transcript.instants[0] == 1.0  # policy delay

    def test_inner_party_can_receive(self):
        # Byzantine wrapping honest logic still processes incoming messages.
        class Repeater(Gossip):
            def on_message(self, sender, payload):
                super().on_message(sender, payload)
                if payload[0] == "val" and self.id != 0:
                    self.multicast(("echo", self.id), include_self=False)

        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({1})
        )
        echo_seen = {}

        class Listener(Gossip):
            def on_message(self, sender, payload):
                super().on_message(sender, payload)
                if payload[0] == "echo":
                    echo_seen[self.id] = sender

        def honest_factory(w, pid):
            value = "v0" if pid == 0 else None
            return Listener(w, pid, input_value=value)

        world.populate(
            honest_factory,
            lambda w, pid: FilteredHonestBehavior(
                w,
                pid,
                party_factory=lambda iw, ipid: Repeater(iw, ipid),
                send_filter=pass_all,
            ),
        )
        world.run()
        assert echo_seen.get(2) == 1


class TestSplitBrainEquivocation:
    def test_two_brains_send_different_values(self):
        behavior_factory = equivocating_broadcaster(
            make_broadcaster=lambda w, pid, v: Gossip(w, pid, input_value=v),
            groups={"zero": frozenset({1}), "one": frozenset({2})},
        )
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(gossip_factory, behavior_factory)
        world.run()
        assert world.agents[1].heard == {0: "zero"}
        assert world.agents[2].heard == {0: "one"}

    def test_uncovered_party_hears_nothing(self):
        behavior_factory = equivocating_broadcaster(
            make_broadcaster=lambda w, pid, v: Gossip(w, pid, input_value=v),
            groups={"zero": frozenset({1})},
        )
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(gossip_factory, behavior_factory)
        world.run()
        assert world.agents[2].heard == {}

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            equivocating_broadcaster(
                make_broadcaster=lambda w, pid, v: Gossip(w, pid, v),
                groups={
                    "a": frozenset({1, 2}),
                    "b": frozenset({2, 3}),
                },
            )

    def test_brains_share_one_signing_key(self):
        # Equivocating signatures must verify (it is the corrupted party's
        # own key) — that is exactly what equivocation detection detects.
        class SignedGossip(Gossip):
            def on_start(self):
                if self.input_value is not None:
                    self.multicast(
                        self.signer.sign(("val", self.input_value)),
                        include_self=False,
                    )

            def on_message(self, sender, payload):
                if self.verify(payload):
                    self.heard[sender] = payload.payload[1]

        behavior_factory = equivocating_broadcaster(
            make_broadcaster=lambda w, pid, v: SignedGossip(
                w, pid, input_value=v
            ),
            groups={"x": frozenset({1}), "y": frozenset({2})},
        )
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({0})
        )
        world.populate(
            lambda w, pid: SignedGossip(w, pid), behavior_factory
        )
        world.run()
        assert world.agents[1].heard == {0: "x"}
        assert world.agents[2].heard == {0: "y"}


class TestByzantineBudget:
    def test_budget_enforced(self):
        with pytest.raises(Exception):
            World(
                n=3,
                f=0,
                delay_policy=FixedDelay(1.0),
                byzantine=frozenset({0}),
            )


class TestEquivocatingVoter:
    """The ``equivocate_votes`` adversary double-signs per voting round."""

    def _run(self, *, n=7, f=2, byzantine=frozenset({5, 6}), **kwargs):
        from repro.protocols.brb_2round import Brb2Round

        return run_broadcast(
            n=n,
            f=f,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            byzantine=byzantine,
            behavior_factory=equivocate_votes(broadcaster=0, **kwargs),
        )

    def test_liveness_and_agreement_survive(self):
        result = self._run()
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
        assert result.committed_value() == "v"

    def test_detection_path_exercised(self):
        result = self._run()
        # Every honest tracker that saw both votes flags each of the two
        # equivocators; early terminators may miss the second vote.
        assert result.equivocations_detected > 0

    def test_custom_second_value(self):
        result = self._run(second_value="decoy")
        assert result.committed_value() == "v"
        assert result.equivocations_detected > 0

    def test_brb_tracker_detects_byzantine_double_vote(self):
        """An equivocating vote pair flags the signer, commit unaffected."""
        result = self._run()
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
        assert result.committed_value() == "v"
        assert result.equivocations_detected > 0

    def test_honest_runs_detect_nothing(self):
        from repro.protocols.brb_2round import Brb2Round

        result = run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        )
        assert result.equivocations_detected == 0


def equivocating_voters_point(*, n, f, equivocators, crashers, seed):
    """One 2-round-BRB run under ``equivocators`` double-voters and
    ``crashers`` crash-from-start parties, all on the top ids so the
    broadcaster (0) stays honest; seeded uniform delays."""
    from repro.protocols.brb_2round import Brb2Round
    from repro.sim.delays import UniformDelay

    result = run_broadcast(
        n=n,
        f=f,
        party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        byzantine=frozenset(range(n - equivocators - crashers, n)),
        behavior_factory=crash_and_equivocate(
            broadcaster=0, crashers=frozenset(range(n - crashers, n))
        ),
        delay_policy=UniformDelay(0.0, 1.0, seed=seed),
        instrumentation="perf",
    )
    return {
        "equivocators": equivocators,
        "crashers": crashers,
        "all_committed": result.all_honest_committed(),
        "agreement": len(set(result.commits.values())) <= 1,
        "equivocations_detected": result.equivocations_detected,
        "quorum_checks": result.quorum_checks,
    }


class TestEquivocatingVoterSweep:
    """Corruption levels as a seeded grid through the sweep engine."""

    @staticmethod
    def _sweep(*, n, f, counts, crashers=0, workers=1):
        tasks = [
            SweepTask(
                equivocating_voters_point,
                dict(n=n, f=f, equivocators=k, crashers=crashers),
                key=("equivocate-votes", n, f, k, crashers),
                inject_seed=True,
            )
            for k in counts
        ]
        return SweepEngine(workers=workers).run(tasks)

    def test_detection_grows_with_corruption(self):
        rows = self._sweep(n=16, f=5, counts=[0, 2, 5])
        assert [r["equivocators"] for r in rows] == [0, 2, 5]
        for row in rows:
            assert row["all_committed"]
            assert row["agreement"]
            assert row["quorum_checks"] > 0
        assert rows[0]["equivocations_detected"] == 0
        # Each corrupted point has seeded random delays of its own, so
        # the counts need not be strictly monotone across points — but
        # every corrupted run must expose at least its equivocators.
        for row in rows[1:]:
            assert row["equivocations_detected"] >= row["equivocators"]

    def test_deterministic_across_workers(self):
        serial = self._sweep(n=10, f=3, counts=[1, 3])
        parallel = self._sweep(n=10, f=3, counts=[1, 3], workers=2)
        assert serial == parallel

    def test_crashers_knob_mixes_fault_flavors(self):
        """Spend the budget as crashes + equivocations in one run: honest
        parties still commit, the equivocators are still exposed, and the
        crashed parties (silent, not double-voting) are not."""
        rows = self._sweep(n=10, f=3, counts=[0, 2], crashers=1)
        assert [r["crashers"] for r in rows] == [1, 1]
        for row in rows:
            assert row["all_committed"]
            assert row["agreement"]
        assert rows[0]["equivocations_detected"] == 0
        assert rows[1]["equivocations_detected"] >= 2


class TestForgedVoteQuorum:
    """Deferred verification must reject a forged batch at the crossing."""

    def _run(self, *, mixed, delay_seed=None):
        from repro.protocols.brb_2round import Brb2Round
        from repro.sim.delays import UniformDelay

        policy = (
            UniformDelay(0.0, 1.0, seed=delay_seed)
            if delay_seed is not None
            else FixedDelay(1.0)
        )
        return run_broadcast(
            n=7,
            f=2,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=policy,
            byzantine=frozenset({5, 6}),
            behavior_factory=forge_vote_quorum(
                broadcaster=0, forged_value="forged", mixed=mixed
            ),
        )

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_forged_batch_rejected_same_as_eager(self, seed):
        # The uniform forged batch crosses at the staging step, so a
        # receiver that skipped the crossing-time batch verification
        # would commit "forged"; the mixed batch never reaches staging
        # (the uniform-run gate bounces it to the scalar loop).  Both
        # rejection routes must end in the same commit outcome and the
        # same clean tallies as the eager path.
        batched = self._run(mixed=False, delay_seed=seed)
        eager = self._run(mixed=True, delay_seed=seed)
        for result in (batched, eager):
            assert result.all_honest_committed()
            assert len(set(result.commits.values())) <= 1
            assert result.committed_value() == "v"
            # Forged votes fail verification before any tally touch:
            # no equivocators are ever flagged.
            assert result.equivocations_detected == 0
        assert dict(batched.commits) == dict(eager.commits)
        # The forged batch is never absorbed through the vectorized
        # path — rejection happens before commit_staged.
        honest_only = self._run(mixed=False, delay_seed=None)
        assert honest_only.committed_value() == "v"
