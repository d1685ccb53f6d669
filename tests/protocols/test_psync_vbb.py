"""Tests for the (5f-1)-psync-VBB protocol (Figure 3)."""
import pytest

from repro.adversary.behaviors import (
    CrashBehavior,
    FilteredHonestBehavior,
    fixed_delay_toward,
)
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import FaultPlan, GstChurn
from repro.sim.runner import run_broadcast
from repro.types import INF

DELTA = 1.0


def vbb_factory(n, f, value="v", **kwargs):
    kwargs.setdefault("big_delta", DELTA)
    return PsyncVbb5f1.factory(broadcaster=0, input_value=value, **kwargs)


def run_good_case(n, f, *, policy=None, value="v", **kwargs):
    return run_broadcast(
        n=n,
        f=f,
        party_factory=vbb_factory(n, f, value, **kwargs),
        delay_policy=policy or FixedDelay(0.1),
    )


class TestGoodCase:
    @pytest.mark.parametrize("n,f", [(4, 1), (9, 2), (14, 3), (24, 5)])
    def test_all_commit_broadcaster_value(self, n, f):
        result = run_good_case(n, f)
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    @pytest.mark.parametrize("n,f", [(4, 1), (9, 2), (14, 3)])
    def test_good_case_latency_is_2_rounds(self, n, f):
        result = run_good_case(n, f)
        assert result.round_latency() == 2

    def test_f1_special_case_n4(self):
        # The paper highlights f=1: n = 4 = 3f+1 = 5f-1, so 2 rounds beat
        # 3-round PBFT at PBFT's own minimal configuration.
        result = run_good_case(4, 1)
        assert result.round_latency() == 2

    def test_two_rounds_under_heterogeneous_delays(self):
        result = run_good_case(
            9, 2, policy=UniformDelay(0.05, 0.9, seed=3)
        )
        assert result.round_latency() == 2
        assert result.committed_value() == "v"

    def test_resilience_boundary_rejected(self):
        with pytest.raises(ValueError):
            run_good_case(8, 2)  # n = 5f - 2

    def test_gst_policy_good_case(self):
        # GST = 0: every copy takes the post-GST bound Delta.
        result = run_good_case(9, 2, policy=FixedDelay(DELTA))
        assert result.round_latency() == 2


class TestExternalValidity:
    def test_committed_value_is_externally_valid(self):
        result = run_good_case(
            9, 2, external_validity=lambda v: v == "v"
        )
        assert result.committed_value() == "v"

    def test_invalid_broadcaster_value_is_ignored(self):
        result = run_broadcast(
            n=9,
            f=2,
            party_factory=vbb_factory(
                9, 2, "bad", external_validity=lambda v: v != "bad",
                fallback_value="good",
            ),
            delay_policy=FixedDelay(0.1),
            until=200.0,
        )
        # Nobody may commit "bad"; the view change may commit a fallback.
        assert all(v != "bad" for v in result.commits.values())
        assert len(set(result.commits.values())) <= 1


class TestViewChange:
    def test_crashed_leader_view_change_commits(self):
        result = run_broadcast(
            n=9,
            f=2,
            party_factory=vbb_factory(9, 2, fallback_value="fb"),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=CrashBehavior,
            until=500.0,
        )
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1
        # The broadcaster never proposed: any externally valid value works;
        # with round-robin, view 2's leader proposes its fallback.
        assert result.committed_value() == "fb"

    def test_silent_toward_half_still_commits_via_forwarding(self):
        # Leader proposes only to a bare quorum; their votes + forwarded
        # commit quorums must carry everyone else.
        n, f = 9, 2
        quorum_group = frozenset(range(0, n - f))
        starved = frozenset(range(n - f, n))

        def behavior(world, pid):
            return FilteredHonestBehavior(
                world,
                pid,
                party_factory=lambda w, p: PsyncVbb5f1(
                    w, p, broadcaster=0, input_value="v", big_delta=DELTA
                ),
                send_filter=fixed_delay_toward(dict.fromkeys(starved, INF)),
            )

        result = run_broadcast(
            n=n,
            f=f,
            party_factory=vbb_factory(n, f),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
            until=500.0,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()
        assert result.committed_value() == "v"

    def test_equivocating_leader_agreement_holds(self):
        n, f = 9, 2
        behavior = equivocating_broadcaster(
            make_broadcaster=PsyncVbb5f1.broadcaster_factory(
                broadcaster=0, big_delta=DELTA
            ),
            groups={
                "zero": frozenset(range(1, 5)),
                "one": frozenset(range(5, 9)),
            },
        )
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=vbb_factory(n, f),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
            until=500.0,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()
        # The committed value must be one of the equivocated values or a
        # later leader's choice; either way it is unique (checked above).

    @pytest.mark.parametrize("split", [2, 3, 4, 5, 6])
    def test_equivocation_splits_never_violate_agreement(self, split):
        n, f = 9, 2
        behavior = equivocating_broadcaster(
            make_broadcaster=PsyncVbb5f1.broadcaster_factory(
                broadcaster=0, big_delta=DELTA
            ),
            groups={
                "zero": frozenset(range(1, 1 + split)),
                "one": frozenset(range(1 + split, 9)),
            },
        )
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=vbb_factory(n, f),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({0}),
            behavior_factory=behavior,
            until=500.0,
        )
        assert len(set(result.commits.values())) <= 1
        assert result.all_honest_committed()

    def test_crashed_followers_good_case_unaffected(self):
        n, f = 9, 2
        result = run_broadcast(
            n=n,
            f=f,
            party_factory=vbb_factory(n, f),
            delay_policy=FixedDelay(0.1),
            byzantine=frozenset({7, 8}),
            behavior_factory=CrashBehavior,
        )
        assert result.all_honest_committed()
        assert result.committed_value() == "v"
        assert result.round_latency() == 2


class TestLateGst:
    GST = 20.0

    def run_late_gst(self, seed):
        # GST at t=20: a copy sent before GST is held to an adversarial
        # instant no later than GST + Delta (one ``GstChurn`` window).
        plan = FaultPlan(
            churns=(GstChurn(windows=((0.0, self.GST),), bound=DELTA),),
            seed=seed,
        )
        return run_broadcast(
            n=9,
            f=2,
            party_factory=vbb_factory(9, 2),
            delay_policy=FixedDelay(DELTA),
            fault_plan=plan,
            until=500.0,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_commits_after_gst_with_adversarial_prefix(self, seed):
        result = self.run_late_gst(seed)
        assert result.all_honest_committed()
        assert len(set(result.commits.values())) <= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_commit_times_exceed_gst_when_views_churn(self, seed):
        result = self.run_late_gst(seed)
        assert all(t > self.GST for t in result.commit_global_times.values())
        assert all(view > 1 for view in result.commit_views.values())
