"""Party runtime: the base classes protocols and adversaries extend.

:class:`Agent` is the minimal interface the world knows about (start +
deliver).  :class:`Party` adds everything an *honest* protocol participant
needs: a local clock, signing, timers in local time, quorum trackers
enrolled with the world's counters, commit/terminate bookkeeping and a
view digest of its receives.  It also holds the one vote-run absorber,
:meth:`Party.stage_vote_run`: every protocol that receives multi-vote
messages (forwarded quorums, witness batches) stages the run there and
falls back to its own per-vote handler when that returns ``None``.
Asynchronous-round latency is computed post-hoc by
:class:`~repro.sim.rounds.RoundAccountant`; a party only records the
atomic step at which it committed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.crypto.signatures import SignedPayload
from repro.errors import SimulationError
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.transcript import Transcript
from repro.types import PartyId, Value

if TYPE_CHECKING:
    from repro.protocols.quorum import QuorumTracker, StagedBatch
    from repro.sim.runner import World


class Agent:
    """Anything attached to the network: honest party or Byzantine shell."""

    def __init__(self, world: "World", party_id: PartyId):
        self.world = world
        self.id = party_id

    def start(self) -> None:
        """Called once, at the agent's start offset."""

    def deliver(self, sender: PartyId, payload: Any) -> None:
        """Called by the network on message arrival."""


class Party(Agent):
    """Base class for honest protocol participants."""

    def __init__(self, world: "World", party_id: PartyId):
        super().__init__(world, party_id)
        self.n = world.n
        self.f = world.f
        self.clock = LocalClock(world.start_offsets[party_id])
        self.signer = world.registry.signer_for(party_id)
        self.registry = world.registry
        # The world's instrumentation decides whether this party keeps a
        # view digest; ``None`` strips recording from the delivery hot path.
        self.transcript: Transcript | None = (
            world.instrumentation.transcript_for(party_id)
        )
        self.committed_value: Value | None = None
        self.has_committed = False
        self.commit_global_time: float | None = None
        self.commit_local_time: float | None = None
        self.commit_step: int | None = None
        #: The protocol view in which this party committed (``None`` for
        #: protocols without view machinery, or before commit).
        self.commit_view: int | None = None
        self.terminated = False
        self._timers: list[Event] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        self.on_start()

    def deliver(self, sender: PartyId, payload: Any) -> None:
        if self.transcript is not None:
            self.transcript.record_recv(self.local_time(), sender, payload)
        if self.terminated:
            return
        self.on_message(sender, payload)

    def on_start(self) -> None:
        """Protocol hook: runs at local time 0."""

    def on_message(self, sender: PartyId, payload: Any) -> None:
        """Protocol hook: runs on every delivered message until terminated."""

    def on_recover(self) -> None:
        """Protocol hook: the party just came back from a crash window.

        Called by crash behaviors at each finite recovery instant.  View
        protocols override this to re-arm their view timer from the
        *current* simulated time (and re-announce a timeout whose
        multicast the crash suppressed); the base class — and every
        fixed-round protocol — has nothing to restore.
        """

    def stage_vote_run(
        self,
        tracker: "QuorumTracker",
        votes: Sequence[Any],
        parse: Callable[[SignedPayload], Any],
        *,
        threshold: int,
    ) -> "tuple[Any, StagedBatch] | None":
        """Stage one multi-vote message on ``tracker`` as a single batch.

        The one vote-run absorber (forwarded vote quorums, witness
        batches).  ``parse`` maps a :class:`SignedPayload` to its tally
        key without checking the outer signature, or to ``None`` for a
        malformed body.  When every vote parses to the same key, the run
        is staged in one pass (:meth:`QuorumTracker.stage_batch`: no
        mutation) and, only if the run itself crosses ``threshold``, its
        signatures are paid with one :meth:`KeyRegistry.verify_batch`.
        Returns ``(key, staged)``; the caller then calls
        ``tracker.commit_staged(staged)`` and runs its crossing action
        with ``staged.crossing_mask`` — exactly the mask the scalar path
        sees at its ``add(...) == threshold`` call, so an oversize run
        forwards the bytes the scalar crossing would.

        Returns ``None``, tracker untouched, on any deviation — an empty,
        mixed or malformed run, a run that does not cross, a bad
        signature; the caller then feeds the votes through its per-vote
        handler, which reproduces the scalar semantics (which forged vote
        is dropped, which equivocators are flagged) by construction.
        """
        key = None
        for vote in votes:
            item = parse(vote) if isinstance(vote, SignedPayload) else None
            if item is None or (key is not None and item != key):
                return None
            key = item
        if key is None:
            return None
        staged = tracker.stage_batch(
            key, [(vote.signer, vote) for vote in votes], threshold=threshold
        )
        if not staged.crossed or not self.registry.verify_batch(votes):
            return None
        return key, staged

    # ------------------------------------------------------------------ #
    # services
    # ------------------------------------------------------------------ #

    def local_time(self) -> float:
        return self.clock.local_time(self.world.sim.now)

    def send(self, recipient: PartyId, payload: Any) -> None:
        self.world.network.send(self.id, recipient, payload)

    def multicast(self, payload: Any, *, include_self: bool = True) -> None:
        self.world.network.multicast(
            self.id, payload, include_self=include_self
        )

    def shared_payload(self, payload: Any) -> Any:
        """World-interned instance of an immutable message payload.

        Protocol steps where every party builds the same small tuple (a
        vote body, an echo) route it through here so all n parties hold
        *one* object and the identity-keyed caches do the rest.
        """
        return self.world.intern_payload(payload)

    def quorum_tracker(
        self,
        namespace: str | None = None,
        *,
        first_vote_only: bool = False,
        detect_equivocation: bool = False,
        shared_entries: bool = False,
    ) -> "QuorumTracker":
        """A :class:`~repro.protocols.quorum.QuorumTracker` for this party.

        The tracker is enrolled with the world's instrumentation bundle
        (so its tallies roll up into ``RunResult.quorum_checks`` /
        ``equivocations_detected``).  Passing a ``namespace`` additionally
        attaches a world-scoped memo for :meth:`QuorumTracker.
        quorum_payload`, letting every party of the protocol step named
        by the namespace share one quorum-forward message object per
        ``(value, signer-set)`` — all parties of one world and step must
        use the same namespace (and adversary brains sharing the outer
        world's memos join the same pool, intentionally: their signatures
        are as deterministic as honest ones).

        ``shared_entries=True`` (requires a ``namespace``) additionally
        backs the tracker's payload buckets with a world-scoped entry
        store (:meth:`repro.sim.runner.World.shared_entry_store`) — one
        copy of each accepted vote per world instead of per party.  Only
        opt in for steps whose entry reads are mask-derived views
        (``quorum_payload`` / ``sorted_entries``): the store trades the
        per-tracker arrival order of ``entries()`` / ``entry_pairs()``
        for signer-ascending order.
        """
        from repro.protocols.quorum import QuorumTracker

        world = self.world
        shared = None
        store = None
        if namespace is not None:
            shared = world.shared_memo(f"quorum::{namespace}")
            if shared_entries:
                # ``None`` for a hosted party: its buckets stay private.
                store = world.shared_entry_store(
                    f"quorum-entries::{namespace}"
                )
        tracker = QuorumTracker(
            first_vote_only=first_vote_only,
            detect_equivocation=detect_equivocation,
            shared_memo=shared,
            entry_store=store,
        )
        world.instrumentation.register_quorum_tracker(tracker)
        return tracker

    def verify(self, signed) -> bool:
        return self.registry.verify(signed)

    def note_view(self, view: int) -> None:
        """Record a view entry: ``RunResult.view_changes``, replayed to
        view-progress monitors after the run."""
        self.world.note_view_change(self.id, view, self.world.sim.now)

    def at_local_time(
        self,
        local_time: float,
        action: Callable[[], None],
        *,
        priority: int = 1,
    ) -> Event:
        """Run ``action`` when the local clock reads ``local_time``.

        If that instant is already past, runs at the current instant (the
        protocols use this for "check condition X at/after time t" steps).

        Timers default to priority 1 so that a message delivery scheduled
        for the same instant is processed first: a message arriving
        exactly at a protocol deadline counts as arriving *within* the
        window the deadline closes, matching the closed time intervals in
        the paper's protocol descriptions ("within time t", "until local
        time t").
        """
        target = self.clock.global_time(local_time)
        target = max(target, self.world.sim.now)
        event = self.world.sim.schedule_at(
            target,
            self._guarded(action),
            priority=priority,
            label=f"p{self.id} timer@{local_time}",
        )
        self._timers.append(event)
        return event

    def after_local_delay(self, delay: float, action: Callable[[], None]) -> Event:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        return self.at_local_time(self.local_time() + delay, action)

    def _guarded(self, action: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if not self.terminated:
                action()

        return run

    # ------------------------------------------------------------------ #
    # outcomes
    # ------------------------------------------------------------------ #

    def commit(self, value: Value) -> None:
        """Record this party's (first) commit.  Later commits are ignored.

        The harness checks agreement/validity over recorded commits; a
        party attempting to commit twice with a *different* value is a
        protocol bug — we keep the first value and record the attempt
        through :meth:`World.note_commit_conflict`
        (``RunResult.commit_conflicts``), where the replayed integrity
        monitor flags it.  A party its fault plan holds down at ``now``
        records nothing: its own timers still fire, but a crashed party
        does not commit.
        """
        injector = self.world.fault_injector
        if injector is not None and injector.party_down(
            self.id, self.world.sim.now
        ):
            return
        if self.has_committed:
            if value != self.committed_value:
                self.world.note_commit_conflict(
                    self.id, self.committed_value, value, self.world.sim.now
                )
            return
        self.has_committed = True
        self.committed_value = value
        self.commit_global_time = self.world.sim.now
        self.commit_local_time = self.local_time()
        self.commit_view = getattr(self, "current_view", None)
        accountant = self.world.accountant
        if accountant is not None:
            step = accountant.current_step
            if step is None:
                step = accountant.last_step_index()
            self.commit_step = step
        self.world.note_commit(self.id, value, self.commit_global_time)

    def terminate(self) -> None:
        """Stop reacting to messages and cancel pending timers."""
        if self.terminated:
            return
        self.terminated = True
        for event in self._timers:
            event.cancel()
        self._timers.clear()
