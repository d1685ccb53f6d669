"""Tests for the opt-in reliable channel (ack + bounded-backoff retries).

Covers the :class:`ReliableLink` policy (validation, backoff tail, JSON
round-trip), the :class:`ReliableChannel` timer chain in isolation, and
the network integration: honest-link loss recovered by retransmission,
crash windows recovered after the recipient rejoins, counters flowing to
``RunResult``, the off-by-default byte parity, and schedule determinism
across instrumentation presets and both timeline backends.
"""
from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import UniformDelay
from repro.sim.faults import Crash, DropLink, FaultPlan
from repro.sim.instrumentation import Instrumentation
from repro.sim.retransmit import ReliableChannel, ReliableLink
from repro.sim.runner import World
from repro.sim.scheduler import Simulator


class TestReliableLinkPolicy:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            ReliableLink(rto=0.0).validate()
        with pytest.raises(ConfigurationError):
            ReliableLink(backoff=0.5).validate()
        with pytest.raises(ConfigurationError):
            ReliableLink(max_retries=0).validate()
        with pytest.raises(ConfigurationError):
            ReliableLink(ack_delay=-1.0).validate()

    def test_backoff_tail_is_the_full_chain(self):
        link = ReliableLink(rto=2.0, backoff=2.0, max_retries=4)
        assert link.backoff_tail() == 2.0 + 4.0 + 8.0 + 16.0
        flat = ReliableLink(rto=1.5, backoff=1.0, max_retries=3)
        assert flat.backoff_tail() == 4.5

    def test_json_round_trip(self):
        link = ReliableLink(
            rto=1.5, backoff=3.0, max_retries=2, ack_delay=0.25
        )
        assert ReliableLink.from_json(link.to_json()) == link
        assert ReliableLink.from_json({}) == ReliableLink()


class TestReliableChannelChain:
    def test_unacked_copy_walks_the_backoff_chain_then_exhausts(self):
        resends = []
        sim = Simulator()
        channel = ReliableChannel(
            ReliableLink(rto=1.0, backoff=2.0, max_retries=3),
            sim,
            lambda transfer: resends.append(sim.now) or True,
        )
        channel.register(0, 1, "m")
        sim.run()
        # Checks at 1, 1+2, 3+4; the fourth check (at 7+8) exhausts.
        assert resends == [1.0, 3.0, 7.0]
        assert channel.counters.retransmissions == 3
        assert channel.counters.retries_exhausted == 1
        assert channel.counters.acks_sent == 0

    def test_ack_stops_the_chain(self):
        resends = []
        sim = Simulator()
        channel = ReliableChannel(
            ReliableLink(rto=2.0),
            sim,
            lambda transfer: resends.append(sim.now) or True,
        )
        transfer = channel.register(0, 1, "m")
        sim.schedule_at(1.0, lambda: channel.acknowledge(transfer))
        sim.run()
        assert resends == []
        assert channel.counters.acks_sent == 1
        assert channel.counters.retransmissions == 0
        assert channel.counters.retries_exhausted == 0

    def test_duplicate_acks_count_once(self):
        sim = Simulator()
        channel = ReliableChannel(
            ReliableLink(rto=2.0), sim, lambda transfer: True
        )
        transfer = channel.register(0, 1, "m")
        channel.acknowledge(transfer)
        channel.acknowledge(transfer)  # a duplicated copy arriving again
        sim.run()
        assert channel.counters.acks_sent == 1

    def test_suppressed_resend_keeps_the_chain_ticking(self):
        # The resend hook returning False (sender inside a crash window)
        # is not counted as a retransmission, but the chain continues and
        # the next check still fires.
        calls = []
        sim = Simulator()

        def resend(transfer):
            calls.append(sim.now)
            return len(calls) > 1

        channel = ReliableChannel(
            ReliableLink(rto=1.0, backoff=1.0, max_retries=2), sim, resend
        )
        channel.register(0, 1, "m")
        sim.run()
        assert calls == [1.0, 2.0]
        assert channel.counters.retransmissions == 1
        assert channel.counters.retries_exhausted == 1

    def test_delayed_ack_lets_one_spurious_retry_race(self):
        # ack_delay > rto: the first check fires before the ack's effect
        # lands, so the channel retransmits a copy that already arrived.
        resends = []
        sim = Simulator()
        channel = ReliableChannel(
            ReliableLink(rto=2.0, max_retries=4, ack_delay=3.0),
            sim,
            lambda transfer: resends.append(sim.now) or True,
        )
        transfer = channel.register(0, 1, "m")
        sim.schedule_at(1.0, lambda: channel.acknowledge(transfer))
        sim.run()
        assert resends == [2.0]  # ack effective at 4.0, next check at 6.0
        assert channel.counters.retransmissions == 1
        assert channel.counters.acks_sent == 1


PRESETS = {
    "full": dict(rounds=True, transcripts=True),
    "rounds": dict(rounds=True, transcripts=False),
    "perf": dict(rounds=False, transcripts=False),
}


def _run_brb(*, plan=None, link=None, preset="full", seed=3):
    world = World(
        n=7,
        f=2,
        delay_policy=UniformDelay(0.0, 1.0, seed=seed),
        instrumentation=Instrumentation(name=preset, **PRESETS[preset]),
        fault_plan=plan,
        reliable_link=link,
    )
    world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
    return world.run()


def _snapshot(result):
    return (
        tuple(sorted(result.commits.items())),
        tuple(sorted(result.commit_global_times.items())),
        result.messages_sent,
        result.final_time,
        result.events_processed,
    )


#: Total loss into party 6 while the whole protocol plays out.  Every
#: original copy is sent before t=2, so fire-and-forget leaves party 6
#: permanently dark; the default ReliableLink's first retry (rto=2)
#: already lands past the window.
TOTAL_LOSS = FaultPlan(drops=(DropLink(dst=6, start=0.0, end=2.0, prob=1.0),))


class TestNetworkIntegration:
    def test_honest_link_loss_is_fatal_without_the_channel(self):
        result = _run_brb(plan=TOTAL_LOSS)
        assert 6 not in result.commits
        assert set(result.commits) == set(range(6))

    def test_retransmission_recovers_the_lost_copies(self):
        result = _run_brb(plan=TOTAL_LOSS, link=ReliableLink())
        assert set(result.commits) == set(range(7))
        assert set(result.commits.values()) == {"v"}
        assert result.retransmissions > 0
        assert result.acks_sent > 0
        assert result.retries_exhausted == 0
        # The recovered party commits only after the first post-window
        # retry could have reached it.
        assert result.commit_global_times[6] >= 2.0

    def test_bounded_retry_budget_exhausts_under_permanent_loss(self):
        forever = FaultPlan(drops=(DropLink(dst=6, prob=1.0),))
        result = _run_brb(
            plan=forever, link=ReliableLink(rto=0.5, max_retries=2)
        )
        assert 6 not in result.commits
        assert result.retries_exhausted > 0

    def test_crashed_recipient_recovers_via_retry_after_rejoin(self):
        # Copies delivered into the crash window are discarded without an
        # ack; the retry chain re-delivers them once the party is back.
        plan = FaultPlan(crashes=(Crash(6, 0.0, recover=3.0),))
        result = _run_brb(plan=plan, link=ReliableLink())
        assert 6 in result.commits
        assert result.commit_global_times[6] >= 3.0
        assert result.retransmissions > 0

    def test_off_by_default_stays_byte_identical(self):
        """The CI retransmission-off parity claim: ``reliable_link=None``
        is indistinguishable from a build without the channel."""
        for preset in ("full", "rounds", "perf"):
            bare = _snapshot(_run_brb(preset=preset))
            off = _snapshot(_run_brb(link=None, preset=preset))
            assert bare == off, preset

    def test_channel_on_without_loss_changes_no_outcome(self):
        bare = _run_brb()
        on = _run_brb(link=ReliableLink())
        assert on.commits == bare.commits
        assert on.commit_global_times == bare.commit_global_times
        assert on.messages_sent == bare.messages_sent
        assert on.retransmissions == 0
        assert on.acks_sent > 0  # every cross-party copy was acked

    def test_retry_schedule_deterministic_across_presets_and_backends(
        self, reference_queue
    ):
        def run(preset):
            return _snapshot(
                _run_brb(
                    plan=TOTAL_LOSS,
                    link=ReliableLink(rto=1.5, backoff=1.5, max_retries=3),
                    preset=preset,
                )
            )

        snapshots = [run("full"), run("perf")]
        with reference_queue():
            snapshots.append(run("full"))
        assert len(set(snapshots)) == 1

    def test_counters_absent_without_channel(self):
        result = _run_brb()
        assert result.retransmissions == 0
        assert result.acks_sent == 0
        assert result.retries_exhausted == 0
