"""World construction and result collection.

A :class:`World` bundles one simulated execution: the simulator kernel, the
PKI, the network (with its adversarial delay policy), the honest parties
(instances of a protocol's :class:`~repro.sim.process.Party` subclass), the
Byzantine agents (adversary behaviors) and one
:class:`~repro.sim.instrumentation.Instrumentation` bundle that owns every
observability side effect (view digests, round accounting, commit
tracking).  :func:`run_broadcast` is the one-call harness used by
tests, examples and benchmarks.

Instrumentation is a *mode*, never a semantics change: the ``"perf"``
preset sheds the observers entirely (for n >= 100 sweeps) but yields the
same commits, commit times and message counts as ``"full"`` for the same
seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.crypto.messages import ContentMemo, IdentityMemo, intern_key
from repro.crypto.signatures import KeyRegistry
from repro.errors import ConfigurationError
from repro.sim.delays import DelayPolicy, FixedDelay
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.instrumentation import Instrumentation, resolve_instrumentation
from repro.sim.network import Network
from repro.sim.process import Agent, Party
from repro.sim.scheduler import Simulator, check_run_bounds
from repro.types import INF, PartyId, Value

#: Builds an honest party: (world, party_id) -> Party
PartyFactory = Callable[["World", PartyId], Party]
#: Builds a Byzantine agent: (world, party_id) -> Agent
BehaviorFactory = Callable[["World", PartyId], Agent]


class World:
    """One execution: kernel + PKI + network + agents + outcome records.

    ``parties`` is the range of party ids this world instantiates and
    delivers to, all of ``range(n)`` by default.  A shard worker builds
    its world over its own contiguous sub-range: ``n``, ``f``, the PKI
    and the delay policy stay global, the network emits copies for the
    other ranges as wire records, and :meth:`populate` builds only the
    parties in range.
    """

    def __init__(
        self,
        *,
        n: int,
        f: int,
        delay_policy: DelayPolicy,
        byzantine: frozenset[PartyId] = frozenset(),
        start_offsets: list[float] | None = None,
        instrumentation: str | Instrumentation | None = None,
        fault_plan: FaultPlan | None = None,
        reliable_link: Any = None,
        protocol_name: str | None = None,
        shards: int = 1,
        parties: range | None = None,
    ):
        if len(byzantine) > f:
            raise ConfigurationError(
                f"{len(byzantine)} corrupted parties exceeds the budget f={f}"
            )
        if any(not 0 <= b < n for b in byzantine):
            raise ConfigurationError("byzantine party id out of range")
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.n = n
        self.f = f
        self.byzantine = byzantine
        self.start_offsets = start_offsets or [0.0] * n
        if len(self.start_offsets) != n:
            raise ConfigurationError("start_offsets length must equal n")
        self.instrumentation = resolve_instrumentation(instrumentation)
        self.instrumentation.mark_attached()
        self.accountant = self.instrumentation.accountant
        # The one place the policy's guaranteed minimum delay becomes a
        # lookahead: it sizes the calendar's windows here and the shard
        # barrier's in ``run_sharded``.  "None known" is 0.
        lookahead = delay_policy.min_delay()
        self.sim = Simulator(
            lookahead=lookahead if 0.0 < lookahead < INF else 0.0
        )
        self.registry = KeyRegistry(n)
        #: Protocol label for invariant-violation context (chaos sets it).
        self.protocol_name = protocol_name
        #: Worker-process count requested by the caller; the *effective*
        #: count (``self.shards``, decided at :meth:`populate`) falls back
        #: to 1 whenever any configured feature needs the single-process
        #: path — see :meth:`_effective_shards`.
        self.requested_shards = shards
        self.shards = 1
        #: Which forced-``shards=1`` rule fired, when one did (``None``
        #: while sharding was not requested, or was granted in full).
        self.shard_fallback_reason: str | None = None
        self._delay_policy = delay_policy
        self._party_factory: PartyFactory | None = None
        self._sharded_result: "RunResult | None" = None
        # An attached fault plan compiles into the injector the network
        # consults per copy; no plan -> no injector -> the unfaulted
        # fast paths, byte-identical to a faults-free build.
        self.fault_plan = fault_plan
        self.fault_injector = (
            FaultInjector(fault_plan, n=n) if fault_plan is not None else None
        )
        # Opt-in reliable channel (``sim/retransmit.py``): like the fault
        # plan, ``None`` keeps the network free of the per-copy tracking
        # seams entirely.
        self.reliable_link = reliable_link
        self.parties = range(n) if parties is None else parties
        self.network = Network(
            self.sim,
            delay_policy,
            n=n,
            byzantine=byzantine,
            start_offsets=self.start_offsets,
            instrumentation=self.instrumentation,
            fault_injector=self.fault_injector,
            reliable_link=reliable_link,
            parties=self.parties,
        )
        self.agents: dict[PartyId, Agent] = {}
        self.extras: dict[str, Any] = {}
        self._populated = False
        self._payload_interner = ContentMemo(1 << 14)
        self._shared_memos: dict[str, ContentMemo] = {}
        self._identity_memos: dict[str, IdentityMemo] = {}
        self._entry_stores: dict[str, dict] = {}
        #: One byte per party id, set when the party attached at that id
        #: terminates, while the world culls copies to it (see
        #: :meth:`_enable_culling`); ``None`` otherwise.
        self._terminated: bytearray | None = None

    def intern_payload(self, payload: Any) -> Any:
        """Canonical instance for an immutable payload, world-scoped.

        Parties building equal message tuples (every voter's
        ``(VOTE, v)``, every echoer's ``(ECHO, v)``) get one shared
        object back, so the identity-keyed digest and verified caches hit
        where n distinct-but-equal objects would each pay a content
        lookup.  Values the content keyer gives up on (frozensets,
        values over its caps, anything that is not a value) are returned
        unchanged.  The key is *structural*
        (``intern_key(structural=True)``): it never equates a raw digest
        with a structurally different object, so — up to the ideal-hash
        injectivity the signature model already assumes for stamped
        ``SignedPayload`` fields — the returned object is interchangeable
        with the argument: sharing cannot change semantics, only object
        identity.
        """
        key = intern_key(payload, structural=True)
        if key is None:
            return payload
        hit = self._payload_interner.get(key)
        if hit is not None:
            return hit
        self._payload_interner.put(key, payload)
        return payload

    def shared_memo(self, name: str, max_entries: int = 1 << 16) -> ContentMemo:
        """A named world-scoped :class:`ContentMemo`, created on demand.

        For content-keyed caches whose verdicts depend on world state
        (the PKI's issued set, the leader schedule) and therefore must
        never outlive or span worlds — e.g. the certificate checker's
        valid-verdict memo shared by all parties of one world.
        """
        memo = self._shared_memos.get(name)
        if memo is None:
            memo = ContentMemo(max_entries)
            self._shared_memos[name] = memo
        return memo

    def shared_identity_memo(
        self, name: str, max_entries: int = 1 << 18
    ) -> IdentityMemo:
        """A named world-scoped :class:`IdentityMemo`, created on demand.

        For per-object caches whose verdicts depend on world state (the
        leader schedule, the external-validity predicate) and are shared
        by every party of one world — e.g. the psync-VBB entry-key parse
        cache: all parties of a world agree on the parse of one payload
        object, so the n-th parser is an identity hit.
        """
        memo = self._identity_memos.get(name)
        if memo is None:
            memo = IdentityMemo(max_entries)
            self._identity_memos[name] = memo
        return memo

    def shared_entry_store(self, name: str) -> dict:
        """A named world-scoped quorum entry store, created on demand.

        A plain ``value -> {signer: payload}`` dict handed to
        :class:`~repro.protocols.quorum.QuorumTracker` instances built
        with ``shared_entries=True``: accepted vote payloads are stored
        once per world instead of once per party (the O(n^2) -> O(n)
        storage trade documented in :mod:`repro.protocols.quorum`).
        """
        store = self._entry_stores.get(name)
        if store is None:
            store = {}
            self._entry_stores[name] = store
        return store

    @property
    def faulty_ids(self) -> frozenset[PartyId]:
        """Parties the fault budget spent: Byzantine plus plan crashes.

        This is the exemption set the invariant monitors quantify over —
        the paper's properties constrain *honest* parties only, and a
        party the plan crashes is (from the protocol's point of view)
        exactly a crash-faulty one.
        """
        crashed = (
            self.fault_plan.crashed_parties()
            if self.fault_plan is not None
            else frozenset()
        )
        return frozenset(self.byzantine) | crashed

    def honest_parties(self) -> list[Party]:
        return [
            agent
            for pid, agent in sorted(self.agents.items())
            if pid not in self.byzantine and isinstance(agent, Party)
        ]

    def _effective_shards(self, behavior_factory) -> int:
        """The worker count this world will actually run with.

        Sharding is a pure performance mode: any configured feature whose
        semantics need global per-copy visibility (the observers — round
        accounting and view digests —, a sequential-stream fault plan,
        the reliable channel), a delay policy whose pricing is not a
        pure per-link function, or scripted Byzantine behaviors falls
        back to ``shards=1`` — the caller's results are identical either
        way, sharding only changes the wall clock.  Invariant monitors
        force nothing: :func:`repro.sim.invariants.judge` replays them
        over the merged result after the run.  The rule that fired is
        recorded as ``shard_fallback_reason`` and surfaced on
        :class:`RunResult` (``None`` when sharding was never requested
        or was granted).

        Counter-stream exceptions: a delay policy whose
        ``shard_safe()`` is True (``FixedDelay``, ``PerLinkDelay``,
        ``UniformDelay(stream="counter")``) prices copies order-free,
        and a ``FaultPlan(stream="counter")`` compiles to per-shard
        injectors replaying one global schedule — both run sharded.
        """
        k = self.requested_shards
        if k <= 1 or self.n < 2:
            if k > 1:
                self.shard_fallback_reason = "world-too-small"
            return 1
        reason = None
        if self.accountant is not None:
            reason = "observers"
        elif self.fault_plan is not None and not self.fault_plan.shard_safe():
            reason = "fault-plan"
        elif self.reliable_link is not None:
            reason = "reliable-link"
        elif behavior_factory is not None:
            reason = "behavior-factory"
        elif not self._delay_policy.shard_safe():
            reason = "delay-policy"
        if reason is not None:
            self.shard_fallback_reason = reason
            return 1
        return min(k, self.n)

    def populate(
        self,
        party_factory: PartyFactory,
        behavior_factory: BehaviorFactory | None = None,
    ) -> None:
        """Instantiate agents, attach them to the network, schedule starts.

        Only the ids in ``self.parties`` are built.  Byzantine ids with no
        ``behavior_factory`` become *crash-from-start* parties (never
        attached: all their messages vanish), the weakest adversary.  A
        world can only be populated once: a second call would silently
        re-schedule every party's start event.  Last, it installs the
        protocol's run handler where that is sound
        (:meth:`_install_run_handler`).

        With an effective ``shards > 1`` nothing is instantiated here:
        the factory is recorded and each worker process populates its own
        party range at :meth:`run` time (party state must live in the
        worker that simulates it).
        """
        if self._populated:
            raise ConfigurationError(
                "world already populated; build a new World per execution"
            )
        self._populated = True
        self.shards = self._effective_shards(behavior_factory)
        if self.shards > 1:
            self._party_factory = party_factory
            return
        for pid in self.parties:
            if pid in self.byzantine:
                if behavior_factory is None:
                    continue
                agent = behavior_factory(self, pid)
            else:
                agent = party_factory(self, pid)
            self.agents[pid] = agent
            self.network.attach(pid, agent.deliver)
            self.sim.schedule_at(
                self.start_offsets[pid],
                lambda a=agent, p=pid: self._run_start_step(a, p),
                transient=True,
            )
        self._install_run_handler()
        self._enable_culling()

    def _enable_culling(self) -> None:
        """Let a full drain skip per-copy deliveries to terminated parties.

        A terminated party drops every copy it is handed, unread and
        without effect (the contract on :meth:`Party.deliver
        <repro.sim.process.Party.deliver>`), unless something observes
        the copy on its way in: a view digest or a round accountant (the
        observers), a fault plan's crash window or a reliable channel's
        ack.  With none of those, such a copy is indistinguishable from
        no copy at all, and the simulator may skip it when its window
        opens (:meth:`~repro.sim.scheduler.Simulator.cull_copies`); it
        still counts as a processed event and a delivered message, so
        every count and instant the run reports is unchanged.
        """
        if (
            self.accountant is not None
            or self.fault_plan is not None
            or self.reliable_link is not None
        ):
            return
        self._terminated = bytearray(self.n)
        self.sim.cull_copies(self._terminated, self.network.note_culled)

    def note_terminated(self, party: Party) -> None:
        """Record that ``party`` terminated, for culling.  A hosted party
        shares its host's id but never calls this: its
        :class:`~repro.sim.hosting.HostedWorld` stops the note."""
        if self._terminated is not None:
            self._terminated[party.id] = 1

    def _install_run_handler(self) -> None:
        """Give the network the protocol's ``deliver_run`` when every
        attached agent's exact type is the one class that defines it.

        A folded run then parses its vote once for all its recipients
        (:func:`repro.sim.process.walk_vote_run`).  That is sound only
        where nothing tells copies apart: no party keeps a view digest
        (no accountant), no subclass changes a handler the walk inlines,
        and no hosted behaviour stands between the network and a party
        — so a subclass, a mixed world or a Byzantine host keeps the
        per-copy inbox loop.
        """
        kinds = {type(agent) for agent in self.agents.values()}
        if self.accountant is not None or len(kinds) != 1:
            return
        (cls,) = kinds
        if "deliver_run" not in cls.__dict__:
            return
        parties: list[Agent | None] = [None] * self.n
        for pid, agent in self.agents.items():
            parties[pid] = agent
        self.network.run_handler = partial(cls.deliver_run, parties)

    def _run_start_step(self, agent: Agent, pid: PartyId) -> None:
        accountant = self.accountant
        if accountant is None:
            agent.start()
            return
        accountant.begin_start_step(pid)
        try:
            agent.start()
        finally:
            accountant.end_step()

    def note_commit(self, party: PartyId, value: Any, time: float) -> None:
        # Value and time stay on the party, which ``result`` reads.
        self.instrumentation.note_commit(party)

    def note_commit_conflict(
        self, party: PartyId, old: Any, new: Any, time: float
    ) -> None:
        self.instrumentation.note_commit_conflict(party, old, new, time)

    def note_view_change(self, party: PartyId, view: int, time: float) -> None:
        self.instrumentation.note_view_change(party, view, time)

    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> "RunResult":
        # Checked here, not only by ``Simulator.run``: a sharded run never
        # reaches this world's simulator.
        check_run_bounds(until, max_events, self.sim.now)
        if self.shards > 1:
            if max_events is not None:
                raise ConfigurationError(
                    "max_events requires the single-process path; "
                    f"build the world with shards=1 (got shards="
                    f"{self.shards})"
                )
            from repro.sim.coordinator import run_sharded

            self._sharded_result = run_sharded(self, until=until)
            return self._sharded_result
        self.sim.run(until=until, max_events=max_events)
        return self.result()

    def result(self) -> "RunResult":
        if self._sharded_result is not None:
            return self._sharded_result
        honest = self.honest_parties()
        commit_rounds = {}
        if self.accountant is not None:
            for party in honest:
                if party.has_committed and party.commit_step is not None:
                    commit_rounds[party.id] = self.accountant.round_of_step(
                        party.commit_step
                    )
        injector = self.fault_injector
        return RunResult(
            n=self.n,
            f=self.f,
            byzantine=self.byzantine,
            commits={
                p.id: p.committed_value for p in honest if p.has_committed
            },
            commit_global_times={
                p.id: p.commit_global_time for p in honest if p.has_committed
            },
            commit_rounds=commit_rounds,
            commit_conflicts=list(self.instrumentation.commit_conflicts),
            view_changes=list(self.instrumentation.view_changes),
            commit_views={
                p.id: p.commit_view for p in honest
                if p.commit_view is not None
            },
            start_offsets=list(self.start_offsets),
            messages_sent=self.network.messages_sent,
            final_time=self.sim.now,
            events_processed=self.sim.events_processed,
            bucket_appends=self.sim.bucket_appends,
            heap_pushes_avoided=self.sim.heap_pushes_avoided,
            deliveries_batched=self.network.deliveries_batched,
            delivery_runs_batched=self.network.delivery_runs_batched,
            quorum_checks=self.instrumentation.quorum_checks,
            votes_batched=self.instrumentation.votes_batched,
            equivocations_detected=self.instrumentation.equivocations_detected,
            instrumentation=self.instrumentation.name,
            rounds_recorded=self.accountant is not None,
            faults_injected=injector.faults_injected if injector else 0,
            messages_dropped=injector.messages_dropped if injector else 0,
            messages_duplicated=(
                injector.messages_duplicated if injector else 0
            ),
            messages_held=injector.messages_held if injector else 0,
            partition_windows=injector.partition_windows if injector else 0,
            retransmissions=self.network.retransmissions,
            acks_sent=self.network.acks_sent,
            retries_exhausted=self.network.retries_exhausted,
            shard_fallback_reason=self.shard_fallback_reason,
            copies_culled=self.sim.copies_culled,
        )


@dataclass
class RunResult:
    """Outcome of one execution, as seen by the harness."""

    n: int
    f: int
    byzantine: frozenset[PartyId]
    commits: dict[PartyId, Value]
    commit_global_times: dict[PartyId, float]
    commit_rounds: dict[PartyId, int]
    #: ``(party, first value, new value, time)`` per re-commit of another
    #: value (each shard's list, concatenated, on a sharded run).
    commit_conflicts: list[tuple] = field(default_factory=list)
    #: ``(party, view, time)`` per protocol view entered, and each
    #: committed party's view at its commit (both empty for protocols
    #: without views; concatenated / merged across shards).
    view_changes: list[tuple] = field(default_factory=list)
    commit_views: dict[PartyId, int] = field(default_factory=dict)
    start_offsets: list[float] = field(default_factory=list)
    messages_sent: int = 0
    final_time: float = 0.0
    events_processed: int = 0
    #: Always 0: the event arena it counted is gone.  Kept only because
    #: ``benchmarks/e2e/adapters.py`` sums it.
    events_recycled: int = 0
    #: Calendar-timeline counters: events appended to lookahead windows
    #: (every scheduled event), and those among them that cost no heap
    #: sift — all but the first into each window; with a zero-lookahead
    #: delay policy a window is one instant.
    bucket_appends: int = 0
    heap_pushes_avoided: int = 0
    #: Copies delivered through batched ``_deliver_many`` run events and
    #: the number of such events; both 0 whenever every copy had to stay
    #: its own event (an observer, the fault injector or the reliable
    #: channel attached).
    deliveries_batched: int = 0
    delivery_runs_batched: int = 0
    #: Tally updates across every party's quorum trackers.
    quorum_checks: int = 0
    #: Votes absorbed through the vectorized ``add_batch`` path.
    votes_batched: int = 0
    #: Equivocating signers witnessed by detection-enabled trackers.
    equivocations_detected: int = 0
    instrumentation: str = "full"
    rounds_recorded: bool = True
    #: Fault-engine counters; all 0 when the run carried no fault plan.
    faults_injected: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_held: int = 0
    partition_windows: int = 0
    #: Reliable-channel counters; all 0 without a ``reliable_link``.
    retransmissions: int = 0
    acks_sent: int = 0
    retries_exhausted: int = 0
    #: Worker processes the run executed across (1 = single-process) and
    #: the number of cross-shard message batches the coordinator routed
    #: between them (0 whenever ``shards == 1``).
    shards: int = 1
    shard_batches_exchanged: int = 0
    #: Which forced-``shards=1`` rule fired when sharding was requested
    #: but refused (``None`` = never requested, or granted in full).
    #: One of ``"observers"``, ``"fault-plan"``, ``"reliable-link"``,
    #: ``"behavior-factory"``, ``"delay-policy"``, ``"world-too-small"``.
    shard_fallback_reason: str | None = None
    #: Coordinator-pipe traffic: bytes framed across the barrier in both
    #: directions, and the number of barrier sub-step rounds the
    #: lockstep advance ran (0 whenever ``shards == 1``).
    shard_bytes_sent: int = 0
    shard_barrier_rounds: int = 0
    #: Per-copy deliveries to a terminated party that a full drain
    #: skipped (:meth:`World._enable_culling`); each is still counted in
    #: ``events_processed``.  A partial drain and a sharded run cull
    #: nothing.
    copies_culled: int = 0

    @property
    def honest_ids(self) -> list[PartyId]:
        return [p for p in range(self.n) if p not in self.byzantine]

    def all_honest_committed(self) -> bool:
        return all(p in self.commits for p in self.honest_ids)

    def committed_value(self) -> Value:
        """The unique committed value; raises if none or disagreement."""
        values = set(self.commits.values())
        if len(values) != 1:
            raise ValueError(f"no unique committed value: {values}")
        return next(iter(values))

    def latency_from(self, origin_time: float) -> float:
        """Good-case latency per Definition 6: max commit time - origin.

        ``origin_time`` is when the broadcaster started its protocol.
        Raises if some honest party never committed.
        """
        if not self.all_honest_committed():
            missing = [p for p in self.honest_ids if p not in self.commits]
            raise ValueError(f"honest parties never committed: {missing}")
        return max(self.commit_global_times.values()) - origin_time

    def round_latency(self) -> int:
        """Good-case latency in Canetti-Rabin rounds (Definitions 7-8)."""
        if not self.rounds_recorded:
            raise ValueError(
                f"round latency needs round accounting, but this run used "
                f"{self.instrumentation!r} instrumentation"
            )
        if not self.all_honest_committed():
            missing = [p for p in self.honest_ids if p not in self.commits]
            raise ValueError(f"honest parties never committed: {missing}")
        return max(self.commit_rounds.values())


#: ``RunResult`` counters a sharded run merges by summing its workers'
#: results — the one list a new per-shard counter is added to.  The rest
#: merge by rule in :func:`repro.sim.coordinator.run_sharded`: commits,
#: commit times and commit views union, commit conflicts and view
#: changes concatenate, ``final_time`` is the latest (or the horizon).
#: ``copies_culled`` is not merged: a worker's drains have a horizon, so
#: they never cull.
ADDITIVE_COUNTERS = (
    "messages_sent", "events_processed",
    "bucket_appends", "heap_pushes_avoided",
    "deliveries_batched", "delivery_runs_batched",
    "quorum_checks", "votes_batched", "equivocations_detected",
    "faults_injected", "messages_dropped", "messages_duplicated",
    "messages_held",
)


def run_broadcast(
    *,
    n: int,
    f: int,
    party_factory: PartyFactory,
    delay_policy: DelayPolicy | None = None,
    byzantine: frozenset[PartyId] = frozenset(),
    behavior_factory: BehaviorFactory | None = None,
    start_offsets: list[float] | None = None,
    until: float | None = None,
    max_events: int | None = None,
    instrumentation: str | Instrumentation | None = None,
    fault_plan: FaultPlan | None = None,
    reliable_link: Any = None,
    protocol_name: str | None = None,
    shards: int = 1,
) -> RunResult:
    """Build a world, run it to quiescence (or a horizon), return results."""
    world = World(
        n=n,
        f=f,
        delay_policy=delay_policy or FixedDelay(1.0),
        byzantine=byzantine,
        start_offsets=start_offsets,
        instrumentation=instrumentation,
        fault_plan=fault_plan,
        reliable_link=reliable_link,
        protocol_name=protocol_name,
        shards=shards,
    )
    world.populate(party_factory, behavior_factory)
    return world.run(until=until, max_events=max_events)
