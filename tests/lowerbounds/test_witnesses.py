"""Tests for the executable lower-bound witnesses.

Each theorem's witness must (a) machine-verify the proof's
indistinguishability claims and (b) exhibit a real agreement violation in
one of the constructed executions.  Companion tests run the *real*
protocols through comparable schedules and verify they stay safe.
"""
import json
import pkgutil
from pathlib import Path

import pytest

import repro.lowerbounds
from repro.analysis.table1 import REGIMES
from repro.lowerbounds import WITNESSES, run_witness
from repro.lowerbounds import thm04_async_2round as thm04
from repro.lowerbounds import thm07_psync_3round as thm07
from repro.lowerbounds import thm08_sync_2delta as thm08
from repro.lowerbounds import thm09_sync_delta_delta as thm09
from repro.lowerbounds import thm10_sync_delta_15delta as thm10
from repro.lowerbounds import thm19_dishonest_majority as thm19
from repro.types import BOTTOM


#: Recorded at the parent of the PR that introduced the shared execution
#: builder (PR 16): executions, checks, violation and notes per witness.
GOLDEN = json.loads(
    (Path(__file__).parent / "witness_golden.json").read_text()
)


@pytest.fixture(scope="module")
def reports():
    return {key: run_witness(key) for key in WITNESSES}


class TestRegistry:
    def test_registry_is_exactly_the_thm_modules(self):
        found = {
            info.name
            for info in pkgutil.iter_modules(repro.lowerbounds.__path__)
            if info.name.startswith("thm")
        }
        assert set(WITNESSES.values()) == found
        assert len(WITNESSES) == len(found)

    @pytest.mark.parametrize(
        "regime",
        [r for r in REGIMES if r.witness],
        ids=lambda r: r.protocol.__name__,
    )
    def test_every_table1_bound_is_witnessed(self, reports, regime):
        report = reports[regime.witness]
        assert report.all_checks_hold and report.violation_found

    @pytest.mark.parametrize("key", sorted(WITNESSES))
    def test_golden_parity_execution_by_execution(self, reports, key):
        report = reports[key]
        assert {
            "executions": list(report.executions),
            "checks": [
                [c.party, c.execution_a, c.execution_b, c.local_cutoff,
                 c.holds]
                for c in report.checks
            ],
            "violation": str(report.violation),
            "notes": report.notes,
        } == GOLDEN[key]


class TestTheorem4:
    def test_indistinguishability_holds(self, reports):
        assert reports["thm04"].all_checks_hold

    def test_agreement_violation_exhibited(self, reports):
        violation = reports["thm04"].violation
        assert violation is not None
        assert violation.execution == "execution-3"
        assert {violation.value_a, violation.value_b} == {0, 1}

    def test_strawman_commits_in_one_round_in_good_executions(self, reports):
        world = reports["thm04"].executions["execution-1"]
        for party in world.honest_parties():
            assert party.committed_value == 0

    def test_real_protocol_survives_the_schedule(self):
        # 2-round-BRB under the same equivocation split: agreement holds.
        from repro.adversary.broadcaster import equivocating_broadcaster
        from repro.protocols.brb_2round import Brb2Round
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import run_broadcast

        behavior = equivocating_broadcaster(
            make_broadcaster=Brb2Round.broadcaster_factory(broadcaster=0),
            groups={0: thm04.GROUP_A, 1: thm04.GROUP_B},
        )
        result = run_broadcast(
            n=thm04.N,
            f=thm04.F,
            party_factory=Brb2Round.factory(broadcaster=0, input_value=0),
            delay_policy=FixedDelay(thm04.DELAY),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
        )
        assert result.agreement_holds()


class TestTheorem7:
    def test_violation_at_5f_minus_2(self, reports):
        violation = reports["thm07"].violation
        assert violation is not None
        assert "v" in (violation.value_a, violation.value_b)

    def test_fast_committer_used_two_rounds(self, reports):
        world = reports["thm07"].executions["attack"]
        x1 = world.agents[thm07.X1]
        assert x1.committed_value == "v"
        # Committed within the first view (well before the 4*Delta timeout).
        assert x1.commit_global_time < 4 * thm07.DELTA

    def test_vbb_at_5f_minus_1_survives_analogous_attack(self):
        """The paper's protocol defeats the attack one party above."""
        commits = thm07.run_vbb_survival()
        # x1 fast-commits v; the certificate check (equivocation case)
        # locks v during the view change, so everyone else re-commits v.
        assert commits[3] == "v"
        assert set(commits.values()) == {"v"}
        assert len(commits) == 7  # all honest parties

    def test_fab_at_designed_resilience_survives(self):
        """FaB at n = 5f+1: the majority argument holds (>= 2f+1 reports)."""
        from repro.adversary.behaviors import ScriptStep, ScriptedBehavior
        from repro.adversary.broadcaster import equivocating_broadcaster
        from repro.protocols.psync.fab import VIEWCHANGE, VOTE, VOTES, FabPsync
        from repro.sim.delays import FunctionDelay
        from repro.sim.runner import World

        n, f = 11, 2
        broadcaster, z, x1 = 0, 10, 3
        x_group = tuple(range(3, 10))  # 7 honest
        y_group = (1, 2)
        stall = 30.0  # "GST": the adversary must deliver eventually

        def decide(sender, recipient, payload, send_time):
            if (
                hasattr(payload, "payload")
                and isinstance(payload.payload, tuple)
                and payload.payload
                and payload.payload[0] == VOTE
                and payload.payload[2] == 1
                and sender in x_group
                and sender != x1
                and recipient != x1
            ):
                return stall
            if (
                isinstance(payload, tuple)
                and payload
                and payload[0] == VOTES
                and sender == x1
            ):
                return stall
            return 0.1

        def z_script(behavior):
            steps = [
                ScriptStep(
                    time=0.25,
                    recipient=x1,
                    payload=behavior.signer.sign((VOTE, "v", 1)),
                )
            ]
            viewchange = behavior.signer.sign((VIEWCHANGE, 1, "w"))
            for pid in (*x_group, *y_group):
                steps.append(
                    ScriptStep(time=4.05, recipient=pid, payload=viewchange)
                )
            return steps

        split = equivocating_broadcaster(
            make_broadcaster=FabPsync.broadcaster_factory(
                broadcaster=broadcaster, big_delta=1.0
            ),
            groups={"v": frozenset(x_group), "w": frozenset(y_group)},
        )

        def behaviors(world, pid):
            if pid == broadcaster:
                return split(world, pid)
            return ScriptedBehavior(world, pid, script_builder=z_script)

        world = World(
            n=n,
            f=f,
            delay_policy=FunctionDelay(decide),
            byzantine=frozenset({broadcaster, z}),
        )
        world.populate(
            FabPsync.factory(
                broadcaster=broadcaster, input_value="v", big_delta=1.0
            ),
            behaviors,
        )
        world.run(until=100.0)
        commits = {
            p.id: p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert commits[x1] == "v"
        # View-change reports: 6 x-parties say v >= 2f+1 = 5 majority.
        assert set(commits.values()) == {"v"}
        assert len(commits) == len(world.honest_ids)


class TestTheorem8:
    def test_indistinguishability_holds(self, reports):
        assert reports["thm08"].all_checks_hold

    def test_violation(self, reports):
        violation = reports["thm08"].violation
        assert violation is not None
        assert violation.execution == "execution-3"

    def test_strawman_beats_the_bound_in_good_case(self, reports):
        world = reports["thm08"].executions["execution-1"]
        for party in world.honest_parties():
            assert party.commit_local_time == thm08.COMMIT_AT
            assert party.commit_local_time < 2 * thm08.DELTA


class TestTheorem9:
    def test_indistinguishability_holds(self, reports):
        assert reports["thm09"].all_checks_hold

    def test_violation(self, reports):
        violation = reports["thm09"].violation
        assert violation is not None
        assert violation.execution == "execution-3"
        assert {violation.value_a, violation.value_b} == {0, 1}

    def test_strawman_commits_fast_in_good_executions(self, reports):
        world = reports["thm09"].executions["execution-1"]
        commits = {
            p.id: p.commit_global_time
            for p in world.honest_parties()
            if p.has_committed
        }
        # The quorum strawman reaches 2*delta, beating Delta + delta.
        assert commits
        assert all(t <= 2 * thm09.DELTA + 1e-9 for t in commits.values())

    def test_fig5_protocol_survives_the_schedule(self):
        # The real (Delta+delta)-n/3-BB under the same split: agreement.
        from repro.adversary.behaviors import (
            FilteredHonestBehavior,
            pass_all,
        )
        from repro.adversary.broadcaster import equivocating_broadcaster
        from repro.protocols.sync.bb_delta_delta_n3 import BbDeltaDeltaN3
        from repro.sim.delays import PerLinkDelay
        from repro.sim.runner import World

        links = {}
        for a in thm09.GROUP_A:
            for b in thm09.GROUP_B:
                links[(a, b)] = thm09.BIG_DELTA
                links[(b, a)] = thm09.BIG_DELTA
        split = equivocating_broadcaster(
            make_broadcaster=BbDeltaDeltaN3.broadcaster_factory(
                broadcaster=0, big_delta=thm09.BIG_DELTA
            ),
            groups={
                0: frozenset(thm09.GROUP_A),
                1: frozenset(thm09.GROUP_B),
            },
        )

        def behaviors(world, pid):
            if pid == 0:
                return split(world, pid)
            return FilteredHonestBehavior(
                world,
                pid,
                party_factory=lambda w, p: BbDeltaDeltaN3(
                    w, p, broadcaster=0, input_value=None,
                    big_delta=thm09.BIG_DELTA,
                ),
                send_filter=pass_all,
            )

        world = World(
            n=thm09.N,
            f=thm09.F,
            delay_policy=PerLinkDelay(links, default=thm09.DELTA),
            byzantine=frozenset({0, thm09.OTHER_C}),
        )
        world.populate(
            BbDeltaDeltaN3.factory(
                broadcaster=0, input_value=0, big_delta=thm09.BIG_DELTA
            ),
            behaviors,
        )
        world.run(until=100.0)
        commits = {
            p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert len(commits) <= 1


class TestTheorem10:
    def test_all_four_indistinguishability_claims_hold(self, reports):
        report = reports["thm10"]
        assert report.all_checks_hold
        assert len(report.checks) == 4

    def test_g_commits_0_in_e2_and_h_commits_1_in_e3(self, reports):
        report = reports["thm10"]
        e2, e3 = report.executions["E2"], report.executions["E3"]
        assert e2.agents[thm10.G].committed_value == 0
        assert e3.agents[thm10.H].committed_value == 1
        # Both beat the Delta + 1.5*delta bound (the strawman's flaw).
        assert e2.agents[thm10.G].commit_global_time < thm10.CUTOFF
        assert e3.agents[thm10.H].commit_global_time < thm10.CUTOFF

    def test_violation(self, reports):
        violation = reports["thm10"].violation
        assert violation is not None
        assert violation.execution in ("E2", "E3")

    def test_fig9_protocol_survives_the_same_worlds(self):
        # The real (Delta+1.5delta)-BB run through the E2 schedule: no
        # honest disagreement (it is built for unsynchronized start).
        from repro.adversary.behaviors import (
            FilteredHonestBehavior,
            SplitBrainBehavior,
            pass_all,
        )
        from repro.protocols.sync.bb_delta_15delta import BbDelta15Delta
        from repro.sim.delays import PerLinkDelay
        from repro.sim.runner import World
        from repro.types import INF

        delta, big_delta, skew = thm10.DELTA, thm10.BIG_DELTA, thm10.SKEW
        links = {
            (thm10.G, thm10.C): big_delta,
            (thm10.C, thm10.G): big_delta,
            (thm10.C, thm10.A): big_delta - delta,
            (thm10.A, thm10.C): big_delta,
            (thm10.B_BCAST, thm10.C): 1.5 * delta,
            (thm10.C, thm10.B_BCAST): 0.5 * delta,
            (thm10.G, thm10.H): INF,
            (thm10.H, thm10.G): INF,
            (thm10.C, thm10.H): 0.5 * delta,
            (thm10.H, thm10.C): 1.5 * delta,
            (thm10.A, thm10.H): big_delta + skew,
            (thm10.H, thm10.A): big_delta - skew,
        }
        offsets = [0.0] * 5
        offsets[thm10.C] = skew

        def make_party(value):
            def build(world, pid):
                return BbDelta15Delta(
                    world, pid, broadcaster=thm10.B_BCAST,
                    input_value=value, big_delta=big_delta,
                )
            return build

        def behaviors(world, pid):
            if pid == thm10.B_BCAST:
                return SplitBrainBehavior(
                    world,
                    pid,
                    brain_factories={
                        0: make_party(0),
                        1: make_party(1),
                    },
                    membership=lambda p: (
                        0 if p in (thm10.G, thm10.A)
                        else 1 if p in (thm10.C, thm10.H) else None
                    ),
                )
            return FilteredHonestBehavior(
                world, pid,
                party_factory=make_party(None),
                send_filter=pass_all,
            )

        world = World(
            n=5,
            f=2,
            delay_policy=PerLinkDelay(links, default=delta),
            byzantine=frozenset({thm10.B_BCAST, thm10.H}),
            start_offsets=offsets,
        )
        world.populate(make_party(0), behaviors)
        world.run(until=100.0)
        commits = {
            p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert len(commits) <= 1


class TestTheorem19:
    def test_chain_indistinguishability_holds(self, reports):
        assert reports["thm19"].all_checks_hold
        assert len(reports["thm19"].checks) == thm19.D

    def test_violation_in_middle_execution(self, reports):
        violation = reports["thm19"].violation
        assert violation is not None

    def test_endpoints_commit_their_values(self, reports):
        report = reports["thm19"]
        exec0 = report.executions["execution-0"]
        exec5 = report.executions[f"execution-{thm19.D}"]
        assert exec0.agents[1].committed_value == 0
        assert exec5.agents[thm19.D].committed_value == 1

    def test_strawman_beats_the_bound(self, reports):
        bound = (thm19.N // thm19.H - 1) * thm19.BIG_DELTA
        assert thm19.COMMIT_AT < bound

    def test_wan_protocol_survives_equivocation_seeding(self):
        # The real dishonest-majority protocol under the same seeded
        # split (0 low side, 1 high side): equivocation evidence spreads
        # through the vote TrustCasts and everyone lands on BOTTOM.
        from repro.adversary.behaviors import ScriptedBehavior, ScriptStep
        from repro.protocols.sync.dishonest_majority import (
            PROPOSE as WAN_PROPOSE,
            WanStyleBb,
        )
        from repro.sim.delays import FixedDelay
        from repro.sim.runner import World

        def script(behavior):
            p0 = behavior.signer.sign((WAN_PROPOSE, 0))
            p1 = behavior.signer.sign((WAN_PROPOSE, 1))
            steps = [
                ScriptStep(time=0.0, recipient=pid, payload=p0)
                for pid in thm19.LOW_SIDE
            ]
            steps += [
                ScriptStep(time=0.0, recipient=pid, payload=p1)
                for pid in thm19.HIGH_SIDE
            ]
            return steps

        world = World(
            n=thm19.N,
            f=thm19.F,
            delay_policy=FixedDelay(0.2),
            byzantine=frozenset({0}),
        )
        world.populate(
            WanStyleBb.factory(broadcaster=0, input_value=0, big_delta=1.0),
            lambda w, pid: ScriptedBehavior(w, pid, script_builder=script),
        )
        world.run(until=100.0)
        commits = {
            p.committed_value
            for p in world.honest_parties()
            if p.has_committed
        }
        assert commits == {BOTTOM}
