"""View-change carryover: the view-1 value must survive into view >= 2.

Direct unit tests (no chaos engine) for the bad-case machinery of the
three psync protocols.  The view-1 leader proposes and every party
votes/prepares, but the *commit-phase* messages of view 1 are lost, so
nobody commits before the view timer expires.  The view change must then
carry the view-1 value forward — via the prepared certificate (PBFT),
the reported latest vote (FaB) or the locked timeout certificate (VBB) —
and the view-2 leader must re-propose it.  ``fallback_value`` is poisoned
so a protocol that forgets its lock and lets the new leader choose
freely fails loudly instead of silently agreeing on the wrong value.

Also pins the crash-recovery hardening: a party that was down exactly
when its view-1 timer fired must re-announce the suppressed view-change
message on recovery, completing a view change that cannot reach quorum
without it.
"""
from __future__ import annotations

from repro.adversary.behaviors import (
    CrashBehavior,
    ScriptedBehavior,
    ScriptStep,
    crash_at,
)
from repro.protocols.psync import fab, pbft, vbb_5f1
from repro.protocols.psync.fab import FabPsync
from repro.protocols.psync.pbft import PbftPsync
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FunctionDelay
from repro.sim.runner import World
from repro.types import INF

DELTA = 1.0
POISON = "poison-fallback"  # must never be committed in these tests


def _run(cls, n, f, delays, *, until=200.0):
    world = World(n=n, f=f, delay_policy=FunctionDelay(delays))
    world.populate(
        cls.factory(
            broadcaster=0,
            input_value="v",
            big_delta=DELTA,
            fallback_value=POISON,
        )
    )
    world.run(until=until)
    return world


def _assert_carried_into_view2(world):
    parties = world.honest_parties()
    assert all(p.has_committed for p in parties)
    assert {p.committed_value for p in parties} == {"v"}
    assert {p.commit_view for p in parties} == {2}
    # The commit happened after the view-1 timer (4 * Delta) expired.
    assert min(p.commit_global_time for p in parties) > 4 * DELTA


class TestPreparedCertificateCarryover:
    def test_pbft_reproposes_the_prepared_value(self):
        # Every view-1 commit vote vanishes: all parties prepare "v" and
        # lock it, but cannot commit until the view-2 leader re-proposes
        # the highest prepared certificate's value.
        def delays(sender, recipient, payload, t):
            body = getattr(payload, "payload", None)
            if (
                isinstance(body, tuple)
                and len(body) == 3
                and body[0] == pbft.COMMIT
                and body[2] == 1
            ):
                return INF
            return 0.1

        _assert_carried_into_view2(_run(PbftPsync, 4, 1, delays))

    def test_fab_reproposes_the_majority_reported_vote(self):
        # Every view-1 vote vanishes: all parties record latest_vote =
        # ("v", 1) and report it in their view changes; the majority rule
        # forces the view-2 leader to re-propose "v".
        def delays(sender, recipient, payload, t):
            body = getattr(payload, "payload", None)
            if (
                isinstance(body, tuple)
                and len(body) == 3
                and body[0] == fab.VOTE
                and body[2] == 1
            ):
                return INF
            return 0.1

        _assert_carried_into_view2(_run(FabPsync, 6, 1, delays))

    def test_vbb_locks_the_value_through_the_timeout_certificate(self):
        # Every view-1 vote entry vanishes: all parties hold a voted pair
        # for "v", their timeouts form a certificate locking "v", and the
        # view-2 leader must propose the locked value.
        def delays(sender, recipient, payload, t):
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == vbb_5f1.VOTE
            ):
                pair = payload[1].payload
                if pair.payload[2] == 1:
                    return INF
            return 0.1

        _assert_carried_into_view2(_run(PsyncVbb5f1, 4, 1, delays))


    def test_pbft_prepared_none_binds_the_next_leader(self):
        # A prepared value of ``None`` is a lock, not "nothing prepared".
        # The Byzantine view-1 leader 0 proposes ``None`` (externally
        # valid under ``always_valid``) and backs it with its own prepare
        # and commit vote; the view-1 commit votes reach party 3 only,
        # which commits ``None`` and terminates.  Parties 1 and 2 time
        # out holding ``PreparedCert(None, 1)``, and party 0 completes
        # their view-change quorum.  The view-2 leader must re-propose
        # ``None``: party 0 stands ready to prepare and commit-vote
        # either ``None`` or the fallback in view 2, so a leader that
        # reads the certificate as a free choice commits the fallback
        # and breaks agreement with party 3.
        def delays(sender, recipient, payload, t):
            body = getattr(payload, "payload", None)
            if (
                isinstance(body, tuple)
                and len(body) == 3
                and body[0] == pbft.COMMIT
                and body[2] == 1
                and recipient != 3
            ):
                return INF
            if isinstance(payload, tuple) and payload[0] == pbft.COMMITS:
                return INF  # party 3 cannot help the others along
            return 0.1

        def behavior(world, pid):
            def script(agent):
                sign = agent.signer.sign
                payloads = [
                    sign((pbft.PROPOSE, None, 1, None)),
                    sign((pbft.PREPARE, None, 1)),
                    sign((pbft.COMMIT, None, 1)),
                    sign((pbft.VIEWCHANGE, 1, None)),
                ]
                for value in (None, POISON):
                    payloads.append(sign((pbft.PREPARE, value, 2)))
                    payloads.append(sign((pbft.COMMIT, value, 2)))
                return [
                    ScriptStep(time=0.0, recipient=peer, payload=payload)
                    for payload in payloads
                    for peer in (1, 2, 3)
                ]

            return ScriptedBehavior(world, pid, script_builder=script)

        world = World(
            n=4,
            f=1,
            delay_policy=FunctionDelay(delays),
            byzantine=frozenset({0}),
        )
        world.populate(
            PbftPsync.factory(
                broadcaster=0,
                input_value="unused",  # the broadcaster is corrupted
                big_delta=DELTA,
                fallback_value=POISON,
            ),
            behavior,
        )
        world.run(until=200.0)

        honest = world.honest_parties()
        assert all(p.has_committed for p in honest)
        assert {p.committed_value for p in honest} == {None}
        assert {p.id: p.commit_view for p in honest} == {1: 2, 2: 2, 3: 1}


class TestRecoverThenCommitInView2:
    def test_recovered_party_completes_the_view_change(self):
        # Leader 0's view-1 proposal vanishes (a view change is needed)
        # and party 2 is dark for the whole run, so the view-change
        # quorum of 3 is exactly {0, 1, 3} — and party 3 is inside a
        # crash window when its view-1 timer fires at t=4.  Its timeout
        # is marked but the VIEWCHANGE multicast is suppressed; only the
        # on_recover re-announce at t=5 lets the view change complete.
        def delays(sender, recipient, payload, t):
            if sender == 0 and t < 2.0:
                return INF  # the leader's proposal never arrives
            if sender == 2:
                return INF  # dark party: quorum needs the recoverer
            return 0.1

        factory = PbftPsync.factory(
            broadcaster=0, input_value="v", big_delta=DELTA,
            fallback_value="fb",
        )
        world = World(
            n=4,
            f=1,
            delay_policy=FunctionDelay(delays),
            byzantine=frozenset({3}),
        )
        world.populate(
            factory, crash_at(at=3.5, recover=5.0, party_factory=factory)
        )
        world.run(until=200.0)

        # Nothing was prepared in view 1, so the view-2 leader proposes
        # its fallback — but only after the recovered party's re-announced
        # view change closes the quorum at t > 5.
        honest = world.honest_parties()
        assert all(p.has_committed for p in honest)
        assert {p.committed_value for p in honest} == {"fb"}
        assert {p.commit_view for p in honest} == {2}
        assert min(p.commit_global_time for p in honest) > 5.0
        brain = world.agents[3].hosted[CrashBehavior.BRAIN]
        assert brain.has_committed and brain.commit_view == 2
        assert brain.committed_value == "fb"
