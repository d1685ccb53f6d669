"""Theorem 7 witness: 2-round psync-BB is impossible for ``n <= 5f - 2``.

The paper proves that any partially synchronous Byzantine broadcast
resilient to ``f >= (n + 2) / 5`` needs 3 good-case rounds (Figure 4's
five-execution construction).  The executable witness attacks the natural
2-round protocol family the bound rules out: a FaB-style
propose-vote-commit with quorum ``n - f`` and majority-based view change,
instantiated at ``n = 5f - 2`` (one party below the paper's ``5f - 1``
optimum).

At ``n = 5f - 2`` a committed value is only guaranteed ``q - f = 3f - 2``
honest votes, so a view-change quorum may contain as few as
``q + (3f - 2) - n = 2f - 2`` of them — a *tie* with the adversary's
``2f - 2`` fabricated reports, which the new leader cannot break:

* the Byzantine leader proposes ``v`` to group X (4 honest) and ``w`` to
  group Y (2 honest);
* Byzantine ``z`` votes ``v`` — but only toward ``x1``; the adversary
  delays all other vote traffic (legal before GST), so only ``x1``
  assembles the ``q = 6`` votes and commits ``v`` in 2 rounds;
* everyone times out; view-change reports are ``v:3, w:3`` (``z`` reports
  ``w``), no majority, and the new honest leader re-proposes its fallback;
* all remaining honest parties commit the fallback — disagreeing with
  ``x1``.

Companion checks (in the tests): the same attack against the paper's
(5f-1)-psync-VBB at ``n = 5f - 1`` fails — the certificate check's
equivocation case locks ``v`` during view change — and against FaB at its
designed ``n = 5f + 1`` the majority argument holds.
"""
from __future__ import annotations

from typing import Any

from repro.adversary.behaviors import ScriptStep, ScriptedBehavior, per_party
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.lowerbounds.framework import (
    WitnessReport,
    find_disagreement,
    run_execution,
)
from repro.protocols.psync.fab import (
    VIEWCHANGE,
    VOTE,
    VOTES,
    FabPsync,
)
from repro.sim.delays import FunctionDelay
from repro.sim.runner import World
from repro.types import PartyId

N, F = 8, 2  # n = 5f - 2
BROADCASTER = 0  # Byzantine leader s
Y_GROUP = (1, 2)  # honest; party 1 leads view 2
X_GROUP = (3, 4, 5, 6)  # honest; party 3 is the lone fast committer
Z = 7  # Byzantine helper
X1 = 3
DELTA = 1.0
FAST_DELAY = 0.1
STALL = 200.0  # "until after GST": longer than the witness horizon


class Overclaimed2RoundPsync(FabPsync):
    """The FaB design pushed below its resilience: the Theorem 7 strawman."""

    RESILIENCE = "f<n"


def _attack(
    protocol_cls, *, n, f, z, x_group, y_group, decide, z_script, horizon
) -> World:
    """The attack's shape: Byzantine leader 0 proposes ``v`` to X and
    ``w`` to Y, Byzantine ``z`` plays ``z_script``, and ``decide`` is the
    adversary's pre-GST delay schedule."""
    split = equivocating_broadcaster(
        make_broadcaster=protocol_cls.broadcaster_factory(
            broadcaster=BROADCASTER, big_delta=DELTA
        ),
        groups={"v": frozenset(x_group), "w": frozenset(y_group)},
    )
    return run_execution(
        n=n,
        f=f,
        policy=FunctionDelay(decide),
        parties=protocol_cls.factory(
            broadcaster=BROADCASTER, input_value="v", big_delta=DELTA
        ),
        byzantine={BROADCASTER, z},
        behaviors=per_party(
            {BROADCASTER: split},
            ScriptedBehavior.factory(script_builder=z_script),
        ),
        horizon=horizon,
    )


def _stall_view1_votes(
    sender: PartyId, recipient: PartyId, payload, send_time
) -> float:
    """Adversarial pre-GST schedule: only x1 sees the view-1 votes."""
    blocked_vote = (
        hasattr(payload, "payload")
        and isinstance(payload.payload, tuple)
        and payload.payload
        and payload.payload[0] == VOTE
        and payload.payload[2] == 1  # view-1 votes only
        and sender in X_GROUP
        and recipient != X1
    )
    blocked_batch = (
        isinstance(payload, tuple)
        and payload
        and payload[0] == VOTES
        and sender == X1
    )
    if blocked_vote or blocked_batch:
        return STALL
    return FAST_DELAY


def _z_script(behavior: ScriptedBehavior) -> list[ScriptStep]:
    vote_v = behavior.signer.sign((VOTE, "v", 1))
    viewchange = behavior.signer.sign((VIEWCHANGE, 1, "w"))
    vote_fallback = behavior.signer.sign((VOTE, "fallback", 2))
    steps = [ScriptStep(time=0.25, recipient=X1, payload=vote_v)]
    for pid in (*X_GROUP, *Y_GROUP):
        steps.append(ScriptStep(time=4.05, recipient=pid, payload=viewchange))
        steps.append(
            ScriptStep(time=4.6, recipient=pid, payload=vote_fallback)
        )
    return steps


def run_witness() -> WitnessReport:
    report = WitnessReport(
        theorem="Theorem 7",
        claim=(
            "any psync-BB resilient to f >= (n+2)/5 (i.e. n <= 5f - 2) "
            "needs good-case latency >= 3 rounds"
        ),
    )
    world = _attack(
        Overclaimed2RoundPsync,
        n=N,
        f=F,
        z=Z,
        x_group=X_GROUP,
        y_group=Y_GROUP,
        decide=_stall_view1_votes,
        z_script=_z_script,
        horizon=60.0,
    )
    report.executions["attack"] = world

    x1 = world.agents[X1]
    report.notes.append(
        f"x1 committed {x1.committed_value!r} in view 1 "
        f"(2 rounds, at t={x1.commit_global_time})"
    )
    report.violation = find_disagreement(report)
    return report


def run_vbb_survival(protocol_cls=None) -> dict[PartyId, Any]:
    """Companion: the (5f-1) protocol at ``n = 5f - 1`` defeats the attack.

    Same shape — equivocating leader, one isolated fast committer, a
    Byzantine double-voter ``z`` — but with one more party the Figure 2
    certificate check (equivocation case) locks the committed value during
    the view change, and every honest replica re-commits it.  Returns the
    honest parties' commits.

    ``protocol_cls`` may substitute a variant of the protocol (used by the
    ablation experiment in :mod:`repro.analysis.ablation`).
    """
    from repro.crypto.messages import digest as digest_fn
    from repro.crypto.signatures import Signature, SignedPayload
    from repro.protocols.psync.certificates import (
        VAL,
        Certificate,
        make_bottom_entry,
    )
    from repro.protocols.psync.vbb_5f1 import (
        STATUS as VBB_STATUS,
        TIMEOUT as VBB_TIMEOUT,
        VOTE as VBB_VOTE,
        VOTES as VBB_VOTES,
        PsyncVbb5f1,
    )

    if protocol_cls is None:
        protocol_cls = PsyncVbb5f1
    n, f = 9, 2  # n = 5f - 1
    z, x1 = 8, 3
    x_group = (3, 4, 5, 6, 7)
    y_group = (1, 2)
    stall = 30.0  # "GST": the adversary must deliver eventually

    def vote_view(payload):
        """View number inside a ("vote", countersigned-pair) message."""
        try:
            return payload[1].payload.payload[2]
        except (AttributeError, IndexError, TypeError):
            return None

    def decide(sender, recipient, payload, send_time):
        if (
            isinstance(payload, tuple)
            and payload
            and payload[0] == VBB_VOTE
            and vote_view(payload) == 1
            and sender in x_group
            and sender != x1
            and recipient != x1
        ):
            return stall
        if (
            isinstance(payload, tuple)
            and payload
            and payload[0] == VBB_VOTES
            and sender == x1
        ):
            return stall
        return FAST_DELAY

    def z_script(behavior):
        pair_payload = (VAL, "v", 1)
        leader_pair = SignedPayload(
            pair_payload, Signature(BROADCASTER, digest_fn(pair_payload))
        )
        vote_entry = behavior.signer.sign(leader_pair)
        bottom = make_bottom_entry(behavior.signer, 1)
        steps = [
            ScriptStep(time=0.25, recipient=x1, payload=(VBB_VOTE, vote_entry))
        ]
        for pid in (*x_group, *y_group):
            steps.append(
                ScriptStep(
                    time=4.05, recipient=pid, payload=(VBB_TIMEOUT, 1, bottom)
                )
            )
        # z also plays the status step toward the view-2 leader, so that
        # the new view is live despite x1 having terminated: the leader
        # needs q = 7 status messages and only 6 honest ones remain.
        status = behavior.signer.sign((VBB_STATUS, 1, Certificate.genesis()))
        steps.append(ScriptStep(time=4.3, recipient=1, payload=status))
        # ... and a view-2 vote for the *fallback* value.  The vote only
        # verifies if the view-2 leader actually signs ("fallback", 2) —
        # which the full protocol never does (its certificate forces it to
        # re-propose v), but an ablated protocol without the equivocation
        # clause does, and z's vote completes the quorum for the wrong
        # value.
        fb_pair_payload = (VAL, "fallback", 2)
        fb_pair = SignedPayload(
            fb_pair_payload, Signature(1, digest_fn(fb_pair_payload))
        )
        fb_vote = behavior.signer.sign(fb_pair)
        for pid in (*x_group, *y_group):
            steps.append(
                ScriptStep(
                    time=4.8, recipient=pid, payload=(VBB_VOTE, fb_vote)
                )
            )
        return steps

    world = _attack(
        protocol_cls,
        n=n,
        f=f,
        z=z,
        x_group=x_group,
        y_group=y_group,
        decide=decide,
        z_script=z_script,
        horizon=100.0,
    )
    return {
        p.id: p.committed_value
        for p in world.honest_parties()
        if p.has_committed
    }
