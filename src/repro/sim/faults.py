"""Deterministic, seeded fault injection for simulated executions.

The paper's good-case claims are only meaningful against its failure
model — up to ``f`` Byzantine/crashed parties, arbitrary pre-GST
asynchrony, bounded post-GST delivery.  This module is the substrate that
lets a run *stress* those claims instead of merely measuring the good
case: a declarative :class:`FaultPlan` of timed primitives, compiled into
a :class:`FaultInjector` that the :class:`~repro.sim.network.Network`
consults at its two seams —

* the **send/schedule seam** (``Network._emit_routed`` and
  ``_emit_remote``): one :meth:`FaultInjector.route` call per fan-out
  takes its priced copies as columns, and per copy the injector may
  drop it, duplicate it, jitter it, hold it across a partition window,
  or stretch it through a GST-churn asynchrony window;
* the **delivery seam** (``_deliver``): a copy arriving while its
  recipient is inside a crash window is discarded.  A party that has
  terminated and that no crash window can reach any more drops what it
  is handed unread, so the world may cull copies to it
  (:meth:`FaultInjector.down_from`, ``World.note_terminated``).

Everything is deterministic given the plan's ``seed``.  The plan's
``stream`` field selects the generator (mirroring
:class:`~repro.sim.delays.UniformDelay`'s modes):

* ``"sequential"`` (default, the historical behavior): one
  ``random.Random`` consumed in scheduling order, which both timeline
  backends replay identically — so the same seed yields the *same*
  post-heal flush schedule on the heap and the bucket calendar
  (``tests/sim/test_faults.py`` pins this down).  Order-dependent, so a
  sequential plan forces single-process execution.
* ``"counter"``: each routed copy's draws are a pure hash of
  ``(seed, sender, recipient, link counter, draw index)`` via
  :class:`~repro.sim.delays.CounterStream` — independent of global
  scheduling order, so the *same* fault schedule compiles identically in
  every worker of a sharded run and :meth:`FaultPlan.shard_safe` returns
  True.  Being pure, a fan-out's draws are computed together, one
  packed pass per primitive over the copies it draws for.  Every
  concrete primitive is link-local (its decision reads only the copy's
  ``(sender, recipient, send_time, deliver_time)``); the one
  recipient-side decision — discarding arrivals into a crash window — is
  a pure function of ``(recipient, t)`` and draws nothing.

With no plan attached the injector simply does not exist (``None`` in the
network), so the no-fault hot path is byte-identical to a build without
this module.

Primitives
----------

==================  =====================================================
:class:`Crash`      party takes no steps during ``[at, recover)`` — its
                    sends are suppressed and deliveries to it discarded
:class:`DropLink`   per-copy Bernoulli drop on matching links in a window
:class:`DuplicateLink`  matching copies are delivered twice (the echo
                    arrives ``echo_delay`` later, same instant allowed)
:class:`ReorderJitter`  bounded extra delay ``U[0, jitter]`` per copy —
                    delivery order scrambles, but boundedly
:class:`Partition`  messages crossing the group boundary while the
                    window is open are *held* and flushed within
                    ``flush_delay`` after the heal (never lost)
:class:`GstChurn`   repeated asynchrony windows layered over whatever
                    :class:`~repro.sim.delays.DelayPolicy` the world
                    uses: a copy sent inside a window is delayed
                    adversarially but arrives within ``bound`` of the
                    window's end — the GST guarantee, repeated
:class:`CrashLeader`  *symbolic* crash of whichever party leads a given
                    protocol view; resolved to a concrete
                    :class:`Crash` via
                    :meth:`FaultPlan.resolve_leaders` before injection
:class:`Holdback`   copies sent on matching links during the window are
                    *held* until it closes (delayed, never lost) — the
                    view-change tier's leader-starvation primitive
==================  =====================================================

Adding a primitive
------------------

1. A frozen dataclass with ``check(n)`` (its share of
   :meth:`FaultPlan.validate`) and ``quiet()`` (its share of
   :meth:`FaultPlan.quiet_time`).
2. A tuple-typed :class:`FaultPlan` field and its :data:`KINDS` row —
   ``primitives``, ``len``, ``without``, ``quiet_time``, ``validate``
   and the JSON codec loop over that table and read the dataclass
   fields, so none of them is edited.
3. A clause in :meth:`FaultInjector.route` (over lanes, for the
   counter stream) and the same clause in
   :meth:`FaultInjector._route_copy` (one copy, for the sequential
   stream), each placed so that earlier clauses' draws are undisturbed:
   the clause order is the RNG contract.
4. A draw in the chaos generator of the tier that should exercise it
   (:mod:`repro.analysis.chaos`), after the existing draws.
"""
from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.errors import FaultPlanError
from repro.sim.delays import CounterStream, LaneKeys
from repro.types import INF, PartyId

#: The union of plan primitives (kept informal: plain frozen dataclasses).
FaultPrimitive = object

#: Domain-separation salt for counter-stream injectors, so a fault plan
#: and a delay policy sharing one seed still draw independent streams.
_FAULT_SALT = 0x5AF7F0A5C3B2D191


def _require(condition: bool, message: str, primitive: object) -> None:
    if not condition:
        raise FaultPlanError(message, primitive=primitive)


def _check_party(p: PartyId | None, n: int, primitive: object) -> None:
    if p is not None:
        _require(0 <= p < n, f"party {p} out of range for n={n}", primitive)


def _check_window(start: float, end: float, primitive: object) -> None:
    _require(start >= 0, f"window start {start} < 0", primitive)
    _require(end > start, f"empty window [{start}, {end})", primitive)


class _Outage:
    """The ``[at, recover)`` down window of both crash primitives."""

    def quiet(self) -> float:
        # Crash-stop is spent budget, not pending churn: only its onset
        # counts.
        return self.recover if self.recover != INF else self.at


def _check_link(primitive: object, n: int) -> None:
    """The ``(src, dst)`` link and ``[start, end)`` send window of the
    primitives that select copies with ``matches``."""
    _check_party(primitive.src, n, primitive)
    _check_party(primitive.dst, n, primitive)
    _check_window(primitive.start, primitive.end, primitive)


@dataclass(frozen=True)
class Crash(_Outage):
    """Party ``party`` takes no steps during ``[at, recover)``.

    ``recover=INF`` (the default) is crash-stop.  While down, the
    network suppresses the party's sends and discards deliveries to it;
    the chaos harness additionally treats plan-crashed parties as spent
    fault budget (they are exempt from termination, and count toward
    the ``<= f`` tolerated-crash bound).
    """

    party: PartyId
    at: float
    recover: float = INF

    def check(self, n: int) -> None:
        _check_party(self.party, n, self)
        _check_window(self.at, self.recover, self)


@dataclass(frozen=True)
class DropLink:
    """Bernoulli(``prob``) drop of copies on matching links.

    ``src``/``dst`` of ``None`` match any sender/recipient.  A dropped
    copy is *lost*: the paper's channels are reliable, so a drop on an
    honest link is outside the tolerated fault model, and tolerated
    plans restrict drops to links out of already-faulty parties — see
    :meth:`FaultPlan.check_tolerated`.  A copy that is only late is a
    :class:`Holdback`.
    """

    src: PartyId | None = None
    dst: PartyId | None = None
    start: float = 0.0
    end: float = INF
    prob: float = 1.0

    def matches(self, sender: PartyId, recipient: PartyId, t: float) -> bool:
        return (
            (self.src is None or self.src == sender)
            and (self.dst is None or self.dst == recipient)
            and self.start <= t < self.end
        )

    def check(self, n: int) -> None:
        _check_link(self, n)
        _require(0.0 <= self.prob <= 1.0, f"drop prob {self.prob}", self)

    def quiet(self) -> float:
        return self.end if self.end != INF else 0.0


@dataclass(frozen=True)
class DuplicateLink:
    """Matching copies are delivered twice.

    The echo copy arrives ``echo_delay`` after the original (0.0 = the
    same instant, right after it in sequence order).  Protocols built on
    signer-deduplicating quorum trackers and first-proposal guards must
    shrug this off — that is exactly the robustness claim chaos checks.
    """

    src: PartyId | None = None
    dst: PartyId | None = None
    start: float = 0.0
    end: float = INF
    prob: float = 1.0
    echo_delay: float = 0.0

    matches = DropLink.matches

    def check(self, n: int) -> None:
        _check_link(self, n)
        _require(
            0.0 <= self.prob <= 1.0, f"duplicate prob {self.prob}", self
        )
        _require(
            self.echo_delay >= 0, f"echo delay {self.echo_delay} < 0", self
        )

    def quiet(self) -> float:
        return self.end + self.echo_delay if self.end != INF else 0.0


@dataclass(frozen=True)
class ReorderJitter:
    """Extra delay ``U[0, jitter]`` per matching copy (bounded reorder)."""

    jitter: float
    src: PartyId | None = None
    dst: PartyId | None = None
    start: float = 0.0
    end: float = INF

    # Its own body, not ``DropLink.matches``: the sequential stream's
    # ``_route_copy`` alternates the jitter and duplicate clauses per
    # copy, and one code object serving both classes thrashes CPython's
    # per-site attribute caches (measured +30 % per call).  The counter
    # stream's lane pass matches once per fan-out (``_matching``).
    def matches(self, sender: PartyId, recipient: PartyId, t: float) -> bool:
        return (
            (self.src is None or self.src == sender)
            and (self.dst is None or self.dst == recipient)
            and self.start <= t < self.end
        )

    def check(self, n: int) -> None:
        _check_link(self, n)
        _require(self.jitter >= 0, f"jitter {self.jitter} < 0", self)

    def quiet(self) -> float:
        return self.end + self.jitter if self.end != INF else 0.0


@dataclass(frozen=True)
class Partition:
    """Isolate ``groups`` from each other over ``[start, end)``.

    A copy whose delivery would land inside the window while its
    endpoints sit in different groups (parties missing from every group
    form an implicit extra group) is *held*: it is rescheduled to
    ``end + U[0, flush_delay]`` — the heal flushes it within a capped
    delay, it is never lost.  Deliveries within one group are untouched.
    """

    groups: tuple[tuple[PartyId, ...], ...]
    start: float
    end: float
    flush_delay: float = 0.0

    def group_of(self, party: PartyId) -> int:
        for index, group in enumerate(self.groups):
            if party in group:
                return index
        return -1  # implicit "everyone else" group

    def separates(self, a: PartyId, b: PartyId, t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        return self.group_of(a) != self.group_of(b)

    def check(self, n: int) -> None:
        _check_window(self.start, self.end, self)
        _require(self.end != INF, "partition never heals", self)
        _require(
            self.flush_delay >= 0, f"flush delay {self.flush_delay} < 0", self
        )
        seen: set[PartyId] = set()
        for group in self.groups:
            for member in group:
                _check_party(member, n, self)
                _require(
                    member not in seen,
                    f"party {member} in two partition groups", self,
                )
                seen.add(member)

    def quiet(self) -> float:
        return self.end + self.flush_delay


@dataclass(frozen=True)
class GstChurn:
    """Repeated asynchrony windows over any delay policy.

    A copy *sent* inside a window ``[a, b)`` has its delivery pushed to
    an adversarially chosen instant no later than ``b + bound`` — the
    partial-synchrony guarantee (everything in flight at GST arrives
    within ``Delta`` after it), applied once per window.  Layered on top
    of whatever base :class:`~repro.sim.delays.DelayPolicy` the world
    runs.  This is the one way to express GST: one window ``[0, GST)``
    is a single partially synchronous execution.
    """

    windows: tuple[tuple[float, float], ...]
    bound: float = 1.0

    def window_at(self, t: float) -> tuple[float, float] | None:
        for a, b in self.windows:
            if a <= t < b:
                return (a, b)
        return None

    def check(self, n: int) -> None:
        _require(self.bound > 0, f"churn bound {self.bound} <= 0", self)
        for a, b in self.windows:
            _check_window(a, b, self)
            _require(b != INF, "churn window never closes", self)

    def quiet(self) -> float:
        return max((b + self.bound for _, b in self.windows), default=0.0)


@dataclass(frozen=True)
class CrashLeader(_Outage):
    """Crash whichever party leads protocol view ``view``.

    A *symbolic* crash: the concrete party id depends on the protocol's
    leader rotation, so the chaos harness resolves it with
    :meth:`FaultPlan.resolve_leaders` (passing the protocol's
    ``leader_of``) before building an injector.  ``at=0.0`` by default —
    the leader must be down before its view-1 proposal leaves, or the
    good case commits under it and no view change is forced.  An
    unresolved plan is rejected by :class:`FaultInjector`; symbolic
    faults cannot route messages.
    """

    view: int
    at: float = 0.0
    recover: float = INF

    def resolve(self, leader_of: "Callable[[int], PartyId]") -> Crash:
        return Crash(
            party=leader_of(self.view), at=self.at, recover=self.recover
        )

    def check(self, n: int) -> None:
        _require(self.view >= 1, f"leader view {self.view} < 1", self)
        _check_window(self.at, self.recover, self)


@dataclass(frozen=True)
class Holdback:
    """Copies sent on matching links in the window are held, not lost.

    Every copy *sent* during ``[start, end)`` on a matching link is
    retimed to ``end + U[0, flush_delay]`` when that is later than its
    natural delivery.  Unlike :class:`DropLink` nothing is lost, so the
    primitive stays inside the partial-synchrony model while still
    starving a view of its leader's messages long enough to expire view
    timers — forcing a view change without spending crash budget.
    """

    src: PartyId | None = None
    dst: PartyId | None = None
    start: float = 0.0
    end: float = 5.0
    flush_delay: float = 0.0

    matches = DropLink.matches

    def check(self, n: int) -> None:
        _check_link(self, n)
        _require(self.end != INF, "holdback never releases", self)
        _require(
            self.flush_delay >= 0, f"flush delay {self.flush_delay} < 0", self
        )

    def quiet(self) -> float:
        return self.end + self.flush_delay if self.end != INF else 0.0


#: The one list of primitive kinds, in canonical order: the
#: :class:`FaultPlan` field holding each kind and the class stored there.
#: Every per-kind :class:`FaultPlan` method below is a loop over it.
KINDS: tuple[tuple[str, type], ...] = (
    ("crashes", Crash),
    ("drops", DropLink),
    ("duplicates", DuplicateLink),
    ("jitters", ReorderJitter),
    ("partitions", Partition),
    ("churns", GstChurn),
    ("leader_crashes", CrashLeader),
    ("holdbacks", Holdback),
)


def _encode(x):
    """JSON-safe form of a plan, a primitive or one field value.

    A dataclass becomes a dict of its fields in declaration order, a
    tuple a list, and ``INF`` the string ``"inf"``.
    """
    if is_dataclass(x):
        return {f.name: _encode(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, tuple):
        return [_encode(item) for item in x]
    return "inf" if x == INF else x


def _decode(cls: type, data: dict):
    """Inverse of :func:`_encode` for the dataclass ``cls``.

    Rejects keys that are not fields and missing fields that have no
    default, naming the key; a field held in :data:`KINDS` decodes as a
    tuple of that row's class.
    """
    known = {f.name: f for f in fields(cls)}
    kinds = dict(KINDS)
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise FaultPlanError(
                f"unknown {cls.__name__} key {key!r} "
                f"(expected among {list(known)})"
            )
        if key in kinds:
            kwargs[key] = tuple(_decode(kinds[key], item) for item in value)
        else:
            kwargs[key] = _decode_value(
                value, "float" in str(known[key].type)
            )
    for key, f in known.items():
        if key not in data and f.default is MISSING:
            raise FaultPlanError(f"{cls.__name__} is missing key {key!r}")
    return cls(**kwargs)


def _decode_value(x, as_float: bool):
    if isinstance(x, list):
        return tuple(_decode_value(item, as_float) for item in x)
    if x == "inf":
        return INF
    return float(x) if as_float and x is not None else x


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded schedule of fault primitives.

    Plans are immutable plain data (picklable: the chaos sweep ships
    them to engine workers) and *order-insensitive* except for the
    injector's RNG stream, which consumes draws in scheduling order.
    ``validate(n)`` rejects malformed plans with
    :class:`~repro.errors.FaultPlanError`; :meth:`check_tolerated`
    answers whether the plan stays inside the model's fault budget
    (``<= f`` crashes, partitions and churn healed before the liveness
    deadline, drops only out of already-faulty parties).
    """

    crashes: tuple[Crash, ...] = ()
    drops: tuple[DropLink, ...] = ()
    duplicates: tuple[DuplicateLink, ...] = ()
    jitters: tuple[ReorderJitter, ...] = ()
    partitions: tuple[Partition, ...] = ()
    churns: tuple[GstChurn, ...] = ()
    leader_crashes: tuple[CrashLeader, ...] = ()
    holdbacks: tuple[Holdback, ...] = ()
    seed: int = 0
    #: Randomness mode: ``"sequential"`` (one shared RNG in scheduling
    #: order — the historical, order-dependent stream) or ``"counter"``
    #: (pure per-copy hashes — shard-safe).  See the module docstring.
    stream: str = "sequential"

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def shard_safe(self) -> bool:
        """True iff the compiled injector prices copies order-free.

        Counter-stream plans draw every variate purely from the copy's
        link and counter, so per-shard injectors compiled from the same
        plan reproduce the single-process fault schedule exactly.
        Unresolved symbolic leader crashes are excluded (they cannot be
        compiled at all, and resolution happens before worlds are
        built).  A sequential plan shares one RNG across all links and
        must stay single-process.
        """
        return self.stream == "counter" and not self.leader_crashes

    def primitives(self) -> list[FaultPrimitive]:
        """Every primitive, in the canonical (:data:`KINDS`) order."""
        return [p for name, _ in KINDS for p in getattr(self, name)]

    def __len__(self) -> int:
        return sum(len(getattr(self, name)) for name, _ in KINDS)

    def crashed_parties(self) -> frozenset[PartyId]:
        return frozenset(c.party for c in self.crashes)

    def without(self, primitive: FaultPrimitive) -> "FaultPlan":
        """The plan with the first occurrence of ``primitive`` removed.

        The shrinker's one mutation.  A primitive the plan does not hold
        leaves it unchanged.
        """
        for name, _ in KINDS:
            items = list(getattr(self, name))
            if primitive in items:
                items.remove(primitive)
                return replace(self, **{name: tuple(items)})
        return self

    def resolve_leaders(
        self, leader_of: "Callable[[int], PartyId]"
    ) -> "FaultPlan":
        """Concretize symbolic :class:`CrashLeader` entries.

        ``leader_of`` maps a view number to the party that leads it
        (the protocol's rotation).  Returns a plan whose leader crashes
        are folded into ``crashes``; without any, ``self`` unchanged.
        """
        if not self.leader_crashes:
            return self
        resolved = tuple(
            lc.resolve(leader_of) for lc in self.leader_crashes
        )
        return replace(
            self, crashes=self.crashes + resolved, leader_crashes=()
        )

    def quiet_time(self) -> float:
        """Earliest instant after which the plan injects nothing more.

        The latest of every primitive's own ``quiet()``.  Crash-stop
        windows (``recover=INF``) do not push this out — a permanently
        crashed party is spent budget, not pending churn.
        """
        return max([0.0, *(p.quiet() for p in self.primitives())])

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self, n: int) -> "FaultPlan":
        """Structural validation against a system of ``n`` parties.

        Raises :class:`~repro.errors.FaultPlanError` on the first
        primitive whose own ``check(n)`` fails; returns ``self`` so
        construction can chain.
        """
        if self.stream not in ("sequential", "counter"):
            raise FaultPlanError(
                f"unknown fault stream {self.stream!r} "
                "(expected 'sequential' or 'counter')"
            )
        for primitive in self.primitives():
            primitive.check(n)
        return self

    def check_tolerated(
        self, *, n: int, f: int, deadline: float
    ) -> list[str]:
        """Why this plan exceeds the tolerated fault bounds (empty = ok).

        Tolerated means: at most ``f`` distinct crashed parties
        (symbolic leader crashes count one per distinct view — worst
        case every resolved leader is distinct); every partition and
        holdback released (flush included) before ``deadline``; every
        churn window resolved before ``deadline``; message *loss* only
        on links out of (or into) already-faulty parties, since the
        paper's channels between honest parties are reliable.
        """
        problems: list[str] = []
        crashed = self.crashed_parties()
        crash_budget = len(crashed) + len(
            {lc.view for lc in self.leader_crashes}
        )
        if crash_budget > f:
            problems.append(
                f"{crash_budget} crashed parties exceeds budget f={f}"
            )
        for p in (*self.partitions, *self.holdbacks, *self.churns):
            if p.quiet() >= deadline:
                problems.append(
                    f"{p} resolves at {p.quiet()}, "
                    f"after deadline {deadline}"
                )
        for d in self.drops:
            if d.prob <= 0 or d.src in crashed or d.dst in crashed:
                continue
            problems.append(
                f"drop on honest link {d.src}->{d.dst} "
                "(honest loss is untolerated)"
            )
        return problems

    # ------------------------------------------------------------------ #
    # serialization (committed regression reproducers)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Plain-data form, JSON-safe (see :func:`_encode`)."""
        return _encode(self)

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json` (round-trips exactly).

        Plan-level keys may be absent (they keep their defaults — files
        written before ``"stream"`` existed still load); an unknown
        plan key, an unknown primitive field, or a missing primitive
        field that has no default raises
        :class:`~repro.errors.FaultPlanError` naming it.
        """
        return _decode(cls, data)


class CrashWindow:
    """Mutable helper binding one party's crash/recover schedule.

    Built by behaviors (:class:`~repro.adversary.behaviors.
    CrashBehavior`) and by the injector's per-party index; answers the
    one question both ask on the hot path.
    """

    __slots__ = ("party", "windows")

    def __init__(
        self, party: PartyId, crashes: Iterable[Crash] = ()
    ) -> None:
        self.party = party
        self.windows: list[tuple[float, float]] = sorted(
            (c.at, c.recover) for c in crashes if c.party == party
        )

    def add(self, at: float, recover: float = INF) -> "CrashWindow":
        self.windows.append((at, recover))
        self.windows.sort()
        return self

    def is_down(self, t: float) -> bool:
        for at, recover in self.windows:
            if at <= t < recover:
                return True
            if at > t:
                break
        return False

    def next_recovery_after(self, t: float) -> float | None:
        """Earliest finite recovery instant at or after ``t``."""
        best: float | None = None
        for at, recover in self.windows:
            if recover != INF and recover >= t:
                if best is None or recover < best:
                    best = recover
        return best


@dataclass
class FaultCounters:
    """Injection tallies, surfaced on :class:`~repro.sim.runner.RunResult`."""

    faults_injected: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_held: int = 0


class FaultInjector:
    """A compiled :class:`FaultPlan`: the network's fault oracle.

    One instance per world (or, with ``stream="counter"``, one per
    shard).  With the default sequential stream all randomness comes
    from one ``random.Random(plan.seed)`` consumed in scheduling order,
    which is identical across timeline backends and instrumentation
    presets — so a seed pins the entire fault schedule.  With the
    counter stream every routed copy draws from a
    :class:`~repro.sim.delays.CounterStream` keyed by its link, so
    injectors compiled independently per shard reproduce the same
    schedule copy for copy, and a fan-out is routed in one packed pass
    (:meth:`route`).  The crash seam answers per party and instant
    (:meth:`party_down`, :meth:`block_send`, :meth:`block_delivery`),
    and :meth:`down_from` tells the world which terminated parties it
    may stop delivering to.  Every copy is routed once, when it is
    sent: a copy the plan drops is gone, and one it retimes is only
    late.
    """

    def __init__(self, plan: FaultPlan, *, n: int) -> None:
        plan.validate(n)
        if plan.leader_crashes:
            raise FaultPlanError(
                "plan has unresolved symbolic leader crashes; call "
                "plan.resolve_leaders(leader_of) before injection",
                primitive=plan.leader_crashes[0],
            )
        self.plan = plan
        self.n = n
        self.counters = FaultCounters()
        if plan.stream == "counter":
            self._rng = None
            self._counter = CounterStream(plan.seed, salt=_FAULT_SALT)
        else:
            self._rng = random.Random(plan.seed)
            self._counter = None
        self._crash_windows: dict[PartyId, CrashWindow] = {
            party: CrashWindow(party, plan.crashes)
            for party in plan.crashed_parties()
        }

    # ------------------------------------------------------------------ #
    # counters (read by World.result)
    # ------------------------------------------------------------------ #

    @property
    def faults_injected(self) -> int:
        return self.counters.faults_injected

    @property
    def messages_dropped(self) -> int:
        return self.counters.messages_dropped

    @property
    def messages_duplicated(self) -> int:
        return self.counters.messages_duplicated

    @property
    def messages_held(self) -> int:
        return self.counters.messages_held

    @property
    def partition_windows(self) -> int:
        return len(self.plan.partitions)

    # ------------------------------------------------------------------ #
    # crash seam
    # ------------------------------------------------------------------ #

    def party_down(self, party: PartyId, t: float) -> bool:
        window = self._crash_windows.get(party)
        return window is not None and window.is_down(t)

    def down_from(self, party: PartyId, t: float) -> bool:
        """Whether ``party`` is down at any instant at or after ``t``:
        some crash window of it recovers after ``t``."""
        window = self._crash_windows.get(party)
        return window is not None and any(
            recover > t for _, recover in window.windows
        )

    def block_send(self, sender: PartyId, t: float) -> bool:
        """Suppress every copy of a send from a crashed sender."""
        if self.party_down(sender, t):
            self.counters.faults_injected += 1
            return True
        return False

    def block_delivery(self, recipient: PartyId, t: float) -> bool:
        """Discard a copy arriving while its recipient is down."""
        if self.party_down(recipient, t):
            self.counters.faults_injected += 1
            self.counters.messages_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # send/schedule seam
    # ------------------------------------------------------------------ #

    def route(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        send_time: float,
        instants: Sequence[float],
    ) -> tuple[Sequence[float], Sequence[int] | None]:
        """Final delivery instants for one fan-out's priced copies.

        Copy ``j`` goes to ``recipients[j]`` and lands at ``instants[j]``
        unless a primitive drops, retimes or duplicates it.  Returns the
        surviving landings in copy order, each copy's own landing
        followed by its duplicate echoes, and the copy index of each
        landing (``None`` when every copy lands exactly once, in order);
        when no copy was dropped, retimed or duplicated the landings are
        ``instants`` itself.  Per copy the primitives apply in a fixed
        order (drop, churn, jitter, holdback, partition hold, duplicate),
        so the random stream is a pure function of the schedule.

        The sequential stream routes copy by copy (:meth:`_route_copy`).
        The counter stream routes the whole fan-out in lanes, lane ``j``
        for copy ``j``: one packed key pass ticks each copy's link
        counter once (:class:`~repro.sim.delays.LaneKeys`), then each
        primitive picks the live lanes it matches and makes one packed
        draw for those that draw (:meth:`LaneKeys.draw
        <repro.sim.delays.LaneKeys.draw>`).  A copy's ``i``-th draw is
        ``splitmix64(key + i * golden)`` with ``i`` counted in that
        copy's own lane, so every landing depends only on the copy's
        position in its link's sequence, never on how copies from other
        links interleave, and equals what a per-copy walk would give.
        """
        if self._counter is None:
            return self._route_each(sender, recipients, send_time, instants)
        counters = self.counters
        plan = self.plan
        lanes = LaneKeys(self._counter, sender, recipients)
        times = list(instants)
        #: Lanes whose copy no drop has taken, and whether any was retimed.
        live: Sequence[int] = range(len(times))
        retimed = False
        for drop in plan.drops:
            picked = _matching(drop, sender, recipients, send_time, live)
            if picked and drop.prob < 1.0:
                prob = drop.prob
                picked = [
                    lane for lane, u in zip(
                        picked, lanes.draw(picked, live)
                    ) if u < prob
                ]
            if picked:
                counters.faults_injected += len(picked)
                counters.messages_dropped += len(picked)
                gone = set(picked)
                live = [lane for lane in live if lane not in gone]
        for churn in plan.churns:
            window = churn.window_at(send_time)
            if window is None:
                continue
            # Adversarial stretch: anywhere between the policy's own
            # delivery time and the post-window GST-style cap.
            latest = window[1] + churn.bound
            picked = [lane for lane in live if latest > times[lane]]
            if picked:
                retimed = True
                counters.faults_injected += len(picked)
                draws = lanes.draw(picked, live)
                for lane, u in zip(picked, draws):
                    times[lane] += u * (latest - times[lane])
        for jitter in plan.jitters:
            picked = _matching(jitter, sender, recipients, send_time, live)
            if picked:
                retimed = True
                counters.faults_injected += len(picked)
                spread = jitter.jitter
                draws = lanes.draw(picked, live)
                for lane, u in zip(picked, draws):
                    times[lane] += u * spread
        for hold in plan.holdbacks:
            picked = _matching(hold, sender, recipients, send_time, live)
            if picked:
                draws = lanes.draw(picked, live)
                for lane, u in zip(picked, draws):
                    release = hold.end + u * hold.flush_delay
                    if release > times[lane]:
                        retimed = True
                        counters.faults_injected += 1
                        counters.messages_held += 1
                        times[lane] = release
        for partition in plan.partitions:
            picked = [
                lane for lane in live
                if partition.separates(sender, recipients[lane], times[lane])
            ]
            if picked:
                retimed = True
                counters.faults_injected += len(picked)
                counters.messages_held += len(picked)
                draws = lanes.draw(picked, live)
                for lane, u in zip(picked, draws):
                    times[lane] = partition.end + u * partition.flush_delay
        echoes: dict[int, list[float]] = {}
        for dup in plan.duplicates:
            picked = _matching(dup, sender, recipients, send_time, live)
            if picked and dup.prob < 1.0:
                prob = dup.prob
                picked = [
                    lane for lane, u in zip(
                        picked, lanes.draw(picked, live)
                    ) if u < prob
                ]
            if picked:
                counters.faults_injected += len(picked)
                counters.messages_duplicated += len(picked)
                for lane in picked:
                    echoes.setdefault(lane, []).append(
                        times[lane] + dup.echo_delay
                    )
        if not echoes:
            if len(live) == len(times):
                # Untouched, the column is what the caller priced.
                return (times if retimed else instants), None
            return [times[lane] for lane in live], live
        landings: list[float] = []
        picks: list[int] = []
        for lane in live:
            landings.append(times[lane])
            picks.append(lane)
            extra = echoes.get(lane)
            if extra:
                landings += extra
                picks += [lane] * len(extra)
        return landings, picks

    def _route_each(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        send_time: float,
        instants: Sequence[float],
    ) -> tuple[list[float], list[int] | None]:
        """:meth:`route` on the sequential stream: copy by copy, in
        order, from the one shared generator."""
        routed = [
            self._route_copy(sender, recipient, send_time, deliver_time)
            for recipient, deliver_time in zip(recipients, instants)
        ]
        landings = [landing for copy in routed for landing in copy]
        if len(landings) == len(routed) and all(routed):
            return landings, None
        return landings, [
            lane for lane, copy in enumerate(routed) for _ in copy
        ]

    def _route_copy(
        self,
        sender: PartyId,
        recipient: PartyId,
        send_time: float,
        deliver_time: float,
    ) -> list[float]:
        """One copy's landings on the sequential stream: ``[]`` drops
        it, one entry is a (possibly retimed) normal delivery, two or
        more add duplicate echoes."""
        counters = self.counters
        rng = self._rng
        for drop in self.plan.drops:
            if drop.matches(sender, recipient, send_time):
                if drop.prob >= 1.0 or rng.random() < drop.prob:
                    counters.faults_injected += 1
                    counters.messages_dropped += 1
                    return []
        for churn in self.plan.churns:
            window = churn.window_at(send_time)
            if window is not None:
                _, end = window
                latest = end + churn.bound
                if latest > deliver_time:
                    counters.faults_injected += 1
                    deliver_time += rng.random() * (latest - deliver_time)
        for jitter in self.plan.jitters:
            if jitter.matches(sender, recipient, send_time):
                counters.faults_injected += 1
                deliver_time += rng.random() * jitter.jitter
        for hold in self.plan.holdbacks:
            if hold.matches(sender, recipient, send_time):
                release = hold.end + rng.random() * hold.flush_delay
                if release > deliver_time:
                    counters.faults_injected += 1
                    counters.messages_held += 1
                    deliver_time = release
        for partition in self.plan.partitions:
            if partition.separates(sender, recipient, deliver_time):
                counters.faults_injected += 1
                counters.messages_held += 1
                deliver_time = (
                    partition.end + rng.random() * partition.flush_delay
                )
        deliveries = [deliver_time]
        for dup in self.plan.duplicates:
            if dup.matches(sender, recipient, send_time):
                if dup.prob >= 1.0 or rng.random() < dup.prob:
                    counters.faults_injected += 1
                    counters.messages_duplicated += 1
                    deliveries.append(deliver_time + dup.echo_delay)
        return deliveries


def _matching(
    primitive,
    sender: PartyId,
    recipients: Sequence[PartyId],
    send_time: float,
    live: Sequence[int],
) -> Sequence[int]:
    """The lanes of ``live`` whose copy a link primitive's ``matches``
    accepts: its sender and send window are the fan-out's, so only
    ``dst`` is read per lane."""
    if primitive.src is not None and primitive.src != sender:
        return ()
    if not primitive.start <= send_time < primitive.end:
        return ()
    if primitive.dst is None:
        return live
    dst = primitive.dst
    return [lane for lane in live if recipients[lane] == dst]
