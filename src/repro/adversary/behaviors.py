"""Byzantine behaviors.

The paper's adversary corrupts up to ``f`` parties, which may then behave
arbitrarily — but its proof constructions almost always describe corrupted
parties as *"behaving honestly except ..."* (except staying silent toward a
group, except delaying messages, except running the honest protocol with
two different inputs toward two different groups).  One host realizes all
of them: :class:`HonestExceptBehavior` runs honest protocol instances
("brains", on the :mod:`repro.sim.hosting` seam) and takes away what its
``route``, ``send_filter`` and ``window`` say.  Its three named
configurations are

* :class:`FilteredHonestBehavior` — one brain whose every outgoing message
  passes a filter that may drop it, delay it, or rewrite it (with the
  corrupted party's own key);
* :class:`SplitBrainBehavior` — several brains, each talking only to its
  own partition of the parties; this realizes equivocation exactly the way
  the proofs describe it ("behaves to B, C the same way as the broadcaster
  in Execution 1, and to D, E the same way as in Execution 5");
* :class:`CrashBehavior` — one brain (or none) behind a crash window.

All behaviors hold their party's :class:`~repro.crypto.signatures.Signer`,
so they can sign anything with the corrupted key but can never forge
honest signatures.

Adding an adversary: for "honest except ...", pass a ``route`` (peer ->
brain key), a ``send_filter`` and/or a ``window`` to
:class:`HonestExceptBehavior` — the three compose, e.g. a split-brain
broadcaster that also crashes is one constructor call.  For anything
else subclass :class:`ByzantineBehavior` (raw network access) and
override ``start`` / ``deliver``.  Either way ``Cls.factory(**kwargs)``
is the behavior factory :func:`~repro.sim.runner.run_broadcast` takes,
and :func:`per_party` mixes factories by corrupted id.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping

from repro.crypto.messages import digest
from repro.crypto.signatures import Signature, SignedPayload
from repro.protocols.brb_2round import PROPOSE, VOTE, VOTE_QUORUM, Brb2Round
from repro.sim.faults import CrashWindow
from repro.sim.hosting import PartyHost
from repro.sim.process import Agent, Party
from repro.sim.runner import BehaviorFactory
from repro.types import INF, PartyId

#: ``(recipient, payload, now)`` -> ``None`` to drop the message, else
#: ``(payload, delay)`` where ``delay=None`` defers to the delay policy.
SendFilter = Callable[[PartyId, Any, float], "tuple[Any, float | None] | None"]


class ByzantineBehavior(Agent):
    """Base class with raw network access for corrupted parties."""

    def __init__(self, world, party_id: PartyId):
        super().__init__(world, party_id)
        self.signer = world.registry.signer_for(party_id)

    @classmethod
    def factory(cls, **kwargs: Any) -> BehaviorFactory:
        """Behavior factory: every corrupted id gets ``cls(..., **kwargs)``.

        The mirror of :meth:`repro.protocols.base.BroadcastParty.factory`;
        matches :data:`repro.sim.runner.BehaviorFactory`.
        """
        return partial(cls, **kwargs)

    def send_raw(
        self,
        recipient: PartyId,
        payload: Any,
        *,
        delay: float | None = None,
    ) -> None:
        """Send anything to anyone, with an arbitrary chosen delay."""
        self.world.network.send(
            self.id, recipient, payload, delay_override=delay
        )

    def multicast_raw(
        self, payload: Any, *, delay: float | None = None
    ) -> None:
        for recipient in range(self.world.n):
            if recipient != self.id:
                self.send_raw(recipient, payload, delay=delay)


def per_party(
    special: Mapping[PartyId, BehaviorFactory], default: BehaviorFactory
) -> BehaviorFactory:
    """Behavior factory: ``special[pid]`` where given, else ``default``."""

    def build(world, pid: PartyId) -> Agent:
        return special.get(pid, default)(world, pid)

    return build


def pass_all(recipient: PartyId, payload: Any, now: float):
    """Send filter that changes nothing (honest-equivalent behavior)."""
    return payload, None


def silent_toward(group: frozenset[PartyId]) -> SendFilter:
    """Filter realizing "sends no messages to parties in ``group``"."""

    def decide(recipient: PartyId, payload: Any, now: float):
        if recipient in group:
            return None
        return payload, None

    return decide


def fixed_delay_toward(
    delays: dict[PartyId, float], *, default: float | None = None
) -> SendFilter:
    """Filter realizing "pretends its delay to party p is delays[p]"."""

    def decide(recipient: PartyId, payload: Any, now: float):
        return payload, delays.get(recipient, default)

    return decide


class HonestExceptBehavior(PartyHost, ByzantineBehavior):
    """Honest protocol instances, except for what three knobs take away.

    ``brains`` maps a brain key to a party factory (it receives the
    hosted world and the corrupted id).  ``route(peer)`` names the brain
    that talks to ``peer`` — it alone hears the peer's messages and only
    its messages reach the peer; ``None`` means the peer hears nothing
    from this party (default: everyone talks to the brain keyed
    :attr:`BRAIN`).  ``send_filter(recipient, payload, now)`` returns
    ``None`` to drop, or ``(payload, delay)`` — ``delay=None`` defers to
    the world's delay policy, any float (or ``INF`` = never) overrides
    it, which is legal because this party is Byzantine.  ``window`` is a
    :class:`~repro.sim.faults.CrashWindow` (the schedule primitive the
    network-level injector compiles): while down nothing is sent and
    nothing is heard, and a party down at its start offset starts at its
    first recovery instant — a rebooted replica joining mid-protocol.
    """

    BRAIN = "only"

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        brains: Mapping[Any, Callable[[Any, PartyId], Party]],
        route: Callable[[PartyId], Any] | None = None,
        send_filter: SendFilter = pass_all,
        window: CrashWindow | None = None,
    ):
        super().__init__(world, party_id)
        self._route = route or (lambda peer: self.BRAIN)
        self._send_filter = send_filter
        self.window = CrashWindow(party_id) if window is None else window
        for key, factory in brains.items():
            self.host(key, factory)

    def is_down(self, t: float | None = None) -> bool:
        return self.window.is_down(
            self.world.sim.now if t is None else t
        )

    def start(self) -> None:
        if not self.is_down():
            self._boot()
            return
        recovery = self.window.next_recovery_after(self.world.sim.now)
        if recovery is not None and self.hosted:  # no brain, no wake-up event
            self.world.sim.schedule_at(
                recovery, self._boot, label=f"crash-recover p{self.id}"
            )

    def _boot(self) -> None:
        """Start the brains; notify each at every later finite recovery.

        A brain that started *before* a crash window holds timers armed
        from pre-crash local instants; its timeout multicasts fired while
        down were suppressed by the send gate.  ``Party.on_recover`` lets
        the protocol re-arm / re-announce from the recovery instant —
        without it a recovered view protocol stays silent forever.
        """
        sim = self.world.sim
        for brain in self.hosted.values():
            brain.start()
            for _, recover in self.window.windows:
                if recover != INF and recover > sim.now:
                    sim.schedule_at(
                        recover,
                        brain.on_recover,
                        label=f"crash-rejoin p{self.id}",
                    )

    def deliver(self, sender: PartyId, payload: Any) -> None:
        key = self._route(sender)
        if key in self.hosted:
            self.hosted_deliver(key, sender, payload)

    def hosted_deliver(self, key: Any, sender: PartyId, payload: Any) -> None:
        if not self.is_down():
            super().hosted_deliver(key, sender, payload)

    def hosted_send(self, key: Any, recipient: PartyId, payload: Any) -> None:
        if self._route(recipient) != key or self.is_down():
            return
        decision = self._send_filter(recipient, payload, self.world.sim.now)
        if decision is None:
            return
        new_payload, delay = decision
        if delay != INF:
            self.send_raw(recipient, new_payload, delay=delay)


class FilteredHonestBehavior(HonestExceptBehavior):
    """Runs the honest protocol, filtering every outgoing message."""

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        party_factory: Callable[[Any, PartyId], Party],
        send_filter: SendFilter,
    ):
        super().__init__(
            world,
            party_id,
            brains={self.BRAIN: party_factory},
            send_filter=send_filter,
        )


class SplitBrainBehavior(HonestExceptBehavior):
    """Equivocation via honest protocol instances over a partition.

    ``brain_factories`` maps a brain key to a party factory; ``membership``
    maps each party id to the brain key whose messages it should see (and
    whose inbox receives that party's messages).  Parties mapped to ``None``
    receive nothing at all from this Byzantine party.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        brain_factories: dict[Any, Callable[[Any, PartyId], Party]],
        membership: Callable[[PartyId], Any],
        send_filter: SendFilter = pass_all,
    ):
        super().__init__(
            world,
            party_id,
            brains=brain_factories,
            route=membership,
            send_filter=send_filter,
        )


class CrashBehavior(HonestExceptBehavior):
    """Crash-at-time / recover-at-time.

    The default construction — ``CrashBehavior(world, pid)`` — is the
    classic weakest adversary: crashed from the start, never sends
    anything.  ``at`` / ``recover`` make the crash *timed* (down during
    ``[at, recover)``); with a ``party_factory`` the party behaves
    *honestly while up*.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        at: float = 0.0,
        recover: float = INF,
        party_factory: Callable[[Any, PartyId], Party] | None = None,
    ):
        super().__init__(
            world,
            party_id,
            brains={self.BRAIN: party_factory} if party_factory else {},
            window=CrashWindow(party_id).add(at, recover),
        )


#: ``crash_at(at=, recover=INF, party_factory=None)`` — behavior factory:
#: every corrupted party crashes at ``at``; with a ``party_factory`` it
#: runs the honest protocol until then (and again from a finite ``recover``).
crash_at = CrashBehavior.factory


class _OnProposalBehavior(ByzantineBehavior):
    """Acts once, on the broadcaster's unsigned ``(PROPOSE, v)`` (the
    2-round-BRB wire format), and ignores everything else."""

    def __init__(self, world, party_id: PartyId, *, broadcaster: PartyId):
        super().__init__(world, party_id)
        self.broadcaster = broadcaster
        self._fired = False

    def deliver(self, sender: PartyId, payload: Any) -> None:
        if self._fired or sender != self.broadcaster:
            return
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == PROPOSE
        ):
            self._fired = True
            self.on_proposal(payload[1])

    def on_proposal(self, value: Any) -> None:
        raise NotImplementedError


class EquivocatingVoterBehavior(_OnProposalBehavior):
    """A voter that signs *two different values* per voting round.

    On the broadcaster's proposal it multicasts a vote for the proposed
    value **and** a vote for ``second_value`` — the textbook equivocation
    the quorum trackers' detection path
    (:attr:`repro.protocols.quorum.QuorumTracker.equivocators`) exists to
    expose.  Honest 2-round-BRB parties tally both votes (per-value
    buckets are independent), flag the signer, and still commit: with at
    most ``f`` equivocators the real value gathers its ``n - f`` quorum
    while the decoy tops out at ``f < n - f`` supporters.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        second_value: Any = "equivocation",
    ):
        super().__init__(world, party_id, broadcaster=broadcaster)
        self.second_value = second_value

    def on_proposal(self, value: Any) -> None:
        for voted in (value, self.second_value):
            self.multicast_raw(Brb2Round.make_vote(self.signer, voted))


#: ``equivocate_votes(broadcaster=, second_value="equivocation")`` —
#: behavior factory: every corrupted party double-votes per round.
equivocate_votes = EquivocatingVoterBehavior.factory


def crash_and_equivocate(
    *,
    broadcaster: PartyId,
    crashers: frozenset[PartyId] = frozenset(),
    crash_time: float = 0.0,
    recover: float = INF,
    second_value: Any = "equivocation",
) -> BehaviorFactory:
    """Mixed adversary: ``crashers`` crash, the rest equivocate.

    One behavior factory covering both fault flavors the sweeps mix —
    corrupted ids in ``crashers`` get a timed :class:`CrashBehavior`
    (down from ``crash_time``), every other corrupted id double-votes
    like :func:`equivocate_votes`.  Used by
    :func:`repro.analysis.sweeps.sweep_equivocating_voters` when its
    ``crashers`` knob is nonzero.
    """
    return per_party(
        dict.fromkeys(crashers, crash_at(at=crash_time, recover=recover)),
        equivocate_votes(broadcaster=broadcaster, second_value=second_value),
    )


class ForgedVoteQuorumBehavior(_OnProposalBehavior):
    """Multicasts a structurally perfect vote quorum with forged signatures.

    On the broadcaster's proposal, this behavior fabricates a full
    ``n - f`` vote quorum for ``forged_value`` — every vote claims an
    *honest* signer and carries the correct payload digest, but none of
    the signatures was ever issued, so each fails verification.  The
    batch is the sharpest probe of the deferred-verify vote path: it is
    uniform and crosses the threshold at the staging step, so a receiver
    that committed the staged tally *before* paying for signatures would
    commit the forged value and violate agreement.  Correct receivers
    batch-verify at the crossing, reject, and fall back to the scalar
    loop, which drops every forged vote — leaving their tallies exactly
    as the eager path would.

    ``mixed=True`` sends a two-value batch instead: the uniform-run gate
    rejects it outright and the scalar loop does all the work, pinning
    that both rejection routes end in the same state.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        forged_value: Any = "forged",
        mixed: bool = False,
    ):
        super().__init__(world, party_id, broadcaster=broadcaster)
        self.forged_value = forged_value
        self.mixed = mixed

    @staticmethod
    def _forged_vote(claimed_signer: PartyId, value: Any) -> SignedPayload:
        body = (VOTE, value)
        return SignedPayload(body, Signature(claimed_signer, digest(body)))

    def on_proposal(self, value: Any) -> None:
        world = self.world
        quorum = world.n - world.f
        honest = [p for p in range(world.n) if p not in world.byzantine]
        votes = [
            self._forged_vote(p, self.forged_value)
            for p in honest[:quorum]
        ]
        if self.mixed:
            votes[-1] = self._forged_vote(honest[quorum - 1], "decoy")
        self.multicast_raw((VOTE_QUORUM, tuple(votes)))


#: ``forge_vote_quorum(broadcaster=, forged_value="forged", mixed=False)``
#: — behavior factory: every corrupted party sends one forged quorum.
forge_vote_quorum = ForgedVoteQuorumBehavior.factory


@dataclass
class ScriptStep:
    """One pre-planned send: at global ``time``, ``payload`` to ``recipient``."""

    time: float
    recipient: PartyId
    payload: Any
    delay: float | None = None


class ScriptedBehavior(ByzantineBehavior):
    """Plays back an explicit list of sends; ignores everything received.

    ``script_builder`` receives the behavior (for access to its signer) and
    returns the steps, allowing scripts that need to sign payloads.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        script_builder: Callable[["ScriptedBehavior"], list[ScriptStep]],
    ):
        super().__init__(world, party_id)
        self._script_builder = script_builder

    def start(self) -> None:
        for step in self._script_builder(self):
            self.world.sim.schedule_at(
                max(step.time, self.world.sim.now),
                lambda s=step: self.send_raw(
                    s.recipient, s.payload, delay=s.delay
                ),
                label=f"script p{self.id}",
            )
