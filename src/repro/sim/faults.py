"""Deterministic, seeded fault injection for simulated executions.

The paper's good-case claims are only meaningful against its failure
model — up to ``f`` Byzantine/crashed parties, arbitrary pre-GST
asynchrony, bounded post-GST delivery.  This module is the substrate that
lets a run *stress* those claims instead of merely measuring the good
case: a declarative :class:`FaultPlan` of timed primitives, compiled into
a :class:`FaultInjector` that the :class:`~repro.sim.network.Network`
consults at its two seams —

* the **send/schedule seam** (``Network._emit_routed``): per
  scheduled copy the injector may drop it, duplicate it, jitter it,
  hold it across a partition window, or stretch it through a GST-churn
  asynchrony window;
* the **delivery seam** (``_deliver``): a copy arriving while its
  recipient is inside a crash window is discarded.

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
  True.  Every concrete primitive is link-local (its decision reads only
  the copy's ``(sender, recipient, send_time, deliver_time)``); the one
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
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.errors import FaultPlanError
from repro.sim.delays import CounterStream
from repro.types import INF, PartyId

#: The union of plan primitives (kept informal: plain frozen dataclasses).
FaultPrimitive = object

#: Domain-separation salt for counter-stream injectors, so a fault plan
#: and a delay policy sharing one seed still draw independent streams.
_FAULT_SALT = 0x5AF7F0A5C3B2D191


def _require(condition: bool, message: str, primitive: object) -> None:
    if not condition:
        raise FaultPlanError(message, primitive=primitive)


@dataclass(frozen=True)
class Crash:
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

    def is_down(self, t: float) -> bool:
        return self.at <= t < self.recover


@dataclass(frozen=True)
class DropLink:
    """Bernoulli(``prob``) drop of copies on matching links.

    ``src``/``dst`` of ``None`` match any sender/recipient.  A dropped
    copy is *lost* (this simulator never retransmits), so tolerated
    plans restrict drops to links out of already-faulty parties — see
    :meth:`FaultPlan.check_tolerated`.
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


@dataclass(frozen=True)
class ReorderJitter:
    """Extra delay ``U[0, jitter]`` per matching copy (bounded reorder)."""

    jitter: float
    src: PartyId | None = None
    dst: PartyId | None = None
    start: float = 0.0
    end: float = INF

    def matches(self, sender: PartyId, recipient: PartyId, t: float) -> bool:
        return (
            (self.src is None or self.src == sender)
            and (self.dst is None or self.dst == recipient)
            and self.start <= t < self.end
        )


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


@dataclass(frozen=True)
class GstChurn:
    """Repeated asynchrony windows over any delay policy.

    A copy *sent* inside a window ``[a, b)`` has its delivery pushed to
    an adversarially chosen instant no later than ``b + bound`` — the
    partial-synchrony guarantee (everything in flight at GST arrives
    within ``Delta`` after it), applied once per window.  Layered on top
    of whatever base :class:`~repro.sim.delays.DelayPolicy` the world
    runs, including another :class:`~repro.sim.delays.GstDelay`.
    """

    windows: tuple[tuple[float, float], ...]
    bound: float = 1.0

    def window_at(self, t: float) -> tuple[float, float] | None:
        for a, b in self.windows:
            if a <= t < b:
                return (a, b)
        return None


@dataclass(frozen=True)
class CrashLeader:
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
        """Every primitive, in the canonical field order."""
        return [
            *self.crashes, *self.drops, *self.duplicates,
            *self.jitters, *self.partitions, *self.churns,
            *self.leader_crashes, *self.holdbacks,
        ]

    def __len__(self) -> int:
        return (
            len(self.crashes) + len(self.drops) + len(self.duplicates)
            + len(self.jitters) + len(self.partitions) + len(self.churns)
            + len(self.leader_crashes) + len(self.holdbacks)
        )

    def is_empty(self) -> bool:
        return len(self) == 0

    def crashed_parties(self) -> frozenset[PartyId]:
        return frozenset(c.party for c in self.crashes)

    def without(self, primitive: FaultPrimitive) -> "FaultPlan":
        """A copy with the first occurrence of ``primitive`` removed.

        The shrinker's one mutation: greedy removal, field by field.
        """

        def drop_one(items: tuple) -> tuple:
            out, removed = [], False
            for item in items:
                if not removed and item == primitive:
                    removed = True
                    continue
                out.append(item)
            return tuple(out)

        return FaultPlan(
            crashes=drop_one(self.crashes),
            drops=drop_one(self.drops),
            duplicates=drop_one(self.duplicates),
            jitters=drop_one(self.jitters),
            partitions=drop_one(self.partitions),
            churns=drop_one(self.churns),
            leader_crashes=drop_one(self.leader_crashes),
            holdbacks=drop_one(self.holdbacks),
            seed=self.seed,
            stream=self.stream,
        )

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

    def quiet_time(self, reliable: object = None) -> float:
        """Earliest instant after which the plan injects nothing more.

        Crash-stop windows (``recover=INF``) do not push this out — a
        permanently crashed party is spent budget, not pending churn.

        With a :class:`~repro.sim.retransmit.ReliableLink` policy in
        play, disruption windows grow a *tail*: a copy first sent just
        before a window closes keeps retrying for up to
        ``reliable.backoff_tail()`` afterwards, so every finite window
        (drops, recovering crashes, churn, partitions, holdbacks)
        extends by that tail before the run is truly quiet.
        """
        tail = (
            reliable.backoff_tail()  # type: ignore[attr-defined]
            if reliable is not None else 0.0
        )
        quiet = 0.0
        for c in self.crashes:
            quiet = max(
                quiet, c.recover + tail if c.recover != INF else c.at
            )
        for lc in self.leader_crashes:
            quiet = max(
                quiet, lc.recover + tail if lc.recover != INF else lc.at
            )
        for d in self.drops:
            if d.end != INF:
                quiet = max(quiet, d.end + tail)
        for d in self.duplicates:
            if d.end != INF:
                quiet = max(quiet, d.end + d.echo_delay)
        for j in self.jitters:
            if j.end != INF:
                quiet = max(quiet, j.end + j.jitter)
        for p in self.partitions:
            quiet = max(quiet, p.end + p.flush_delay + tail)
        for h in self.holdbacks:
            if h.end != INF:
                quiet = max(quiet, h.end + h.flush_delay + tail)
        for ch in self.churns:
            for _, b in ch.windows:
                quiet = max(quiet, b + ch.bound + tail)
        return quiet

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self, n: int) -> "FaultPlan":
        """Structural validation against a system of ``n`` parties.

        Raises :class:`~repro.errors.FaultPlanError` on malformed
        primitives; returns ``self`` so construction can chain.
        """
        if self.stream not in ("sequential", "counter"):
            raise FaultPlanError(
                f"unknown fault stream {self.stream!r} "
                "(expected 'sequential' or 'counter')"
            )

        def check_party(p: PartyId | None, prim: FaultPrimitive) -> None:
            if p is not None:
                _require(
                    0 <= p < n, f"party {p} out of range for n={n}", prim
                )

        def check_window(start: float, end: float, prim) -> None:
            _require(start >= 0, f"window start {start} < 0", prim)
            _require(end > start, f"empty window [{start}, {end})", prim)

        for c in self.crashes:
            check_party(c.party, c)
            _require(c.at >= 0, f"crash time {c.at} < 0", c)
            _require(
                c.recover > c.at,
                f"recover {c.recover} not after crash {c.at}", c,
            )
        for d in self.drops:
            check_party(d.src, d)
            check_party(d.dst, d)
            check_window(d.start, d.end, d)
            _require(0.0 <= d.prob <= 1.0, f"drop prob {d.prob}", d)
        for d in self.duplicates:
            check_party(d.src, d)
            check_party(d.dst, d)
            check_window(d.start, d.end, d)
            _require(0.0 <= d.prob <= 1.0, f"duplicate prob {d.prob}", d)
            _require(
                d.echo_delay >= 0, f"echo delay {d.echo_delay} < 0", d
            )
        for j in self.jitters:
            check_party(j.src, j)
            check_party(j.dst, j)
            check_window(j.start, j.end, j)
            _require(j.jitter >= 0, f"jitter {j.jitter} < 0", j)
        for p in self.partitions:
            check_window(p.start, p.end, p)
            _require(p.end != INF, "partition never heals", p)
            _require(
                p.flush_delay >= 0, f"flush delay {p.flush_delay} < 0", p
            )
            seen: set[PartyId] = set()
            for group in p.groups:
                for member in group:
                    check_party(member, p)
                    _require(
                        member not in seen,
                        f"party {member} in two partition groups", p,
                    )
                    seen.add(member)
        for ch in self.churns:
            _require(ch.bound > 0, f"churn bound {ch.bound} <= 0", ch)
            for a, b in ch.windows:
                check_window(a, b, ch)
                _require(b != INF, "churn window never closes", ch)
        for lc in self.leader_crashes:
            _require(lc.view >= 1, f"leader view {lc.view} < 1", lc)
            _require(lc.at >= 0, f"crash time {lc.at} < 0", lc)
            _require(
                lc.recover > lc.at,
                f"recover {lc.recover} not after crash {lc.at}", lc,
            )
        for h in self.holdbacks:
            check_party(h.src, h)
            check_party(h.dst, h)
            check_window(h.start, h.end, h)
            _require(h.end != INF, "holdback never releases", h)
            _require(
                h.flush_delay >= 0, f"flush delay {h.flush_delay} < 0", h
            )
        return self

    def check_tolerated(
        self, *, n: int, f: int, deadline: float, reliable: object = None
    ) -> list[str]:
        """Why this plan exceeds the tolerated fault bounds (empty = ok).

        Tolerated means: at most ``f`` distinct crashed parties
        (symbolic leader crashes count one per distinct view — worst
        case every resolved leader is distinct); every partition and
        holdback released (flush included) before ``deadline``; every
        churn window resolved before ``deadline``; message *loss* only
        on links out of (or into) already-faulty parties — *unless* a
        :class:`~repro.sim.retransmit.ReliableLink` policy is attached
        whose retry tail outlives the drop window, in which case a
        finite honest-link drop window becomes survivable delay.
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
        for p in self.partitions:
            if p.end + p.flush_delay >= deadline:
                problems.append(
                    f"partition heals at {p.end + p.flush_delay}, "
                    f"after deadline {deadline}"
                )
        for h in self.holdbacks:
            if h.end + h.flush_delay >= deadline:
                problems.append(
                    f"holdback releases at {h.end + h.flush_delay}, "
                    f"after deadline {deadline}"
                )
        for ch in self.churns:
            for _, b in ch.windows:
                if b + ch.bound >= deadline:
                    problems.append(
                        f"churn window resolves at {b + ch.bound}, "
                        f"after deadline {deadline}"
                    )
        for d in self.drops:
            if d.prob <= 0 or d.src in crashed or d.dst in crashed:
                continue
            if (
                reliable is not None
                and d.end != INF
                and reliable.backoff_tail()  # type: ignore[attr-defined]
                > d.end - d.start
            ):
                # Retransmission outlives the window: a copy sent at
                # the window's open still gets a post-window retry.
                continue
            problems.append(
                f"drop on honest link {d.src}->{d.dst} "
                "(no retransmission: honest loss is untolerated)"
            )
        return problems

    # ------------------------------------------------------------------ #
    # serialization (committed regression reproducers)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        """Plain-data form, JSON-safe (``INF`` encodes as ``"inf"``)."""

        def enc(x: float):
            return "inf" if x == INF else x

        return {
            "crashes": [
                {"party": c.party, "at": c.at, "recover": enc(c.recover)}
                for c in self.crashes
            ],
            "drops": [
                {"src": d.src, "dst": d.dst, "start": d.start,
                 "end": enc(d.end), "prob": d.prob}
                for d in self.drops
            ],
            "duplicates": [
                {"src": d.src, "dst": d.dst, "start": d.start,
                 "end": enc(d.end), "prob": d.prob,
                 "echo_delay": d.echo_delay}
                for d in self.duplicates
            ],
            "jitters": [
                {"jitter": j.jitter, "src": j.src, "dst": j.dst,
                 "start": j.start, "end": enc(j.end)}
                for j in self.jitters
            ],
            "partitions": [
                {"groups": [list(g) for g in p.groups],
                 "start": p.start, "end": p.end,
                 "flush_delay": p.flush_delay}
                for p in self.partitions
            ],
            "churns": [
                {"windows": [list(w) for w in ch.windows],
                 "bound": ch.bound}
                for ch in self.churns
            ],
            "leader_crashes": [
                {"view": lc.view, "at": lc.at, "recover": enc(lc.recover)}
                for lc in self.leader_crashes
            ],
            "holdbacks": [
                {"src": h.src, "dst": h.dst, "start": h.start,
                 "end": enc(h.end), "flush_delay": h.flush_delay}
                for h in self.holdbacks
            ],
            "seed": self.seed,
            "stream": self.stream,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json` (round-trips exactly)."""

        def dec(x) -> float:
            return INF if x == "inf" else float(x)

        return cls(
            crashes=tuple(
                Crash(party=c["party"], at=float(c["at"]),
                      recover=dec(c["recover"]))
                for c in data.get("crashes", ())
            ),
            drops=tuple(
                DropLink(src=d["src"], dst=d["dst"],
                         start=float(d["start"]), end=dec(d["end"]),
                         prob=float(d["prob"]))
                for d in data.get("drops", ())
            ),
            duplicates=tuple(
                DuplicateLink(src=d["src"], dst=d["dst"],
                              start=float(d["start"]), end=dec(d["end"]),
                              prob=float(d["prob"]),
                              echo_delay=float(d["echo_delay"]))
                for d in data.get("duplicates", ())
            ),
            jitters=tuple(
                ReorderJitter(jitter=float(j["jitter"]), src=j["src"],
                              dst=j["dst"], start=float(j["start"]),
                              end=dec(j["end"]))
                for j in data.get("jitters", ())
            ),
            partitions=tuple(
                Partition(
                    groups=tuple(tuple(g) for g in p["groups"]),
                    start=float(p["start"]), end=float(p["end"]),
                    flush_delay=float(p["flush_delay"]),
                )
                for p in data.get("partitions", ())
            ),
            churns=tuple(
                GstChurn(
                    windows=tuple(
                        (float(a), float(b)) for a, b in ch["windows"]
                    ),
                    bound=float(ch["bound"]),
                )
                for ch in data.get("churns", ())
            ),
            leader_crashes=tuple(
                CrashLeader(view=lc["view"], at=float(lc["at"]),
                            recover=dec(lc["recover"]))
                for lc in data.get("leader_crashes", ())
            ),
            holdbacks=tuple(
                Holdback(src=h["src"], dst=h["dst"],
                         start=float(h["start"]), end=dec(h["end"]),
                         flush_delay=float(h["flush_delay"]))
                for h in data.get("holdbacks", ())
            ),
            seed=int(data.get("seed", 0)),
            stream=data.get("stream", "sequential"),
        )


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
    """A compiled :class:`FaultPlan`: the network's per-copy oracle.

    One instance per world (or, with ``stream="counter"``, one per
    shard).  With the default sequential stream all randomness comes
    from one ``random.Random(plan.seed)`` consumed in scheduling order,
    which is identical across timeline backends and instrumentation
    presets — so a seed pins the entire fault schedule.  With the
    counter stream every routed copy draws from a
    :class:`~repro.sim.delays.CounterStream` keyed by its link, so
    injectors compiled independently per shard reproduce the same
    schedule copy for copy.
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
        self._crash_windows: dict[PartyId, CrashWindow] = {}
        for crash in plan.crashes:
            window = self._crash_windows.get(crash.party)
            if window is None:
                window = CrashWindow(crash.party)
                self._crash_windows[crash.party] = window
            window.add(crash.at, crash.recover)

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
        recipient: PartyId,
        send_time: float,
        deliver_time: float,
    ) -> list[float]:
        """Final delivery instants for one already-priced copy.

        ``[]`` drops the copy; one entry is a (possibly retimed) normal
        delivery; two entries add a duplicate echo.  Applied in a fixed
        primitive order (drop, churn, jitter, holdback, partition hold,
        duplicate) so the RNG stream is a pure function of the schedule.

        In counter mode the copy's variates come from one per-link
        counter tick: the link counter advances exactly once per routed
        copy and the draw index walks the primitives, so the outcome
        depends only on the copy's position in its link's sequence —
        never on how copies from other links interleave.
        """
        counters = self.counters
        rng = (
            self._counter.draws(sender, recipient)
            if self._counter is not None else self._rng
        )
        for drop in self.plan.drops:
            if drop.matches(sender, recipient, send_time):
                if drop.prob >= 1.0 or rng.random() < drop.prob:
                    counters.faults_injected += 1
                    counters.messages_dropped += 1
                    return []
        for churn in self.plan.churns:
            window = churn.window_at(send_time)
            if window is not None:
                # Adversarial stretch: anywhere between the policy's
                # own delivery time and the post-window GST-style cap.
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
