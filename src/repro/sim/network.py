"""Message transport between parties, mediated by a delay policy.

The network realizes the paper's adversarial message scheduling:

* every message's delay comes from the :class:`~repro.sim.delays.DelayPolicy`
  (the adversary's schedule); honest multicast fan-outs sample one delay
  *vector* per multicast via
  :meth:`~repro.sim.delays.DelayPolicy.delays_for_multicast` instead of n
  per-recipient calls;
* messages touching a Byzantine endpoint may additionally carry an explicit
  per-message ``delay_override`` (Byzantine parties "postpone sending or
  reading" to simulate arbitrary delays, including infinity);
* messages that arrive before the recipient has started its protocol are
  buffered and handed over at the recipient's start (local time 0).

Recipients are ranges: a multicast fans out to the local parties below
and above its sender as two ``range`` objects, and a folded run carries
a slice of one, so neither a fan-out nor an in-flight run ever
materializes a recipient list; a fan-out's unfolded copies keep the
``range`` itself as their recipient column unless something folded or
dropped.

A network simulates one contiguous party range, ``parties`` (all of
``range(n)`` by default).  A shard worker's network owns a sub-range;
the parties outside it form at most two *remote* ranges, below and
above it.  A multicast prices them through the same pipeline as its
local ranges, and ``_emit_remote`` appends each of their runs to
``outbuf`` as a wire record instead of scheduling it (see
:mod:`repro.sim.shard`).  A full-range network has no remote range.

Every send — unicast, multicast, retransmission, and the remote ranges
— runs one four-stage pipeline: **price** (the policy or the override
yields one delay per recipient), **instant**
(``Network._fan_out`` / ``_runs`` turn delays into quantized delivery
instants: the only place the INF-drop, negative-delay and pre-start
rules live), **run** (consecutive copies sharing an instant are grouped)
and **emit** (the fan-out's runs, as one lazy sequence, go to the
network's emitter).  When the delay vector alone shows that every copy
would be its own run — no two neighbours equal, nothing dropped or held
to a start offset — ``_instants`` computes the instants in C-level
passes into an ``array('d')`` instead, and the runs are read off it;
an all-equal vector under a common start offset is one run (or none,
for ``INF``) without a walk.
The emitter is chosen once per network: ``_emit_run``
folds an unobserved run into one ``_deliver_many`` event and gathers
every other copy as a ``_deliver`` event; ``_emit_routed`` takes over
when a per-copy seam is attached.  Either way emit crosses the scheduler
**once per fan-out**, not once per copy: the copies go over in
recipient order as typed columns — instants in an ``array('d')``, the
recipients as the fan-out's ``range`` or an integer array, plus msg ids
or reliable transfers only when those exist — in one
``schedule_batch`` (a folded run in mid-fan-out flushes what was
gathered first, so sequence numbers are those of a per-copy loop).
The emitter also owns the deferral of the order-key digest: it digests
the payload when it first has a copy to schedule, and never for a
fan-out the adversary or the fault plan dropped whole.

The **deliver** stage is ``_deliver`` for one copy and
``_deliver_many`` for a folded run.  A folded run goes to the inboxes in
recipient order, or, when ``World.populate`` installed the protocol's
run handler (every attached agent of one class that defines
``deliver_run``), to that handler: it parses a vote once for the whole
run and has each live recipient tally it, skips terminated recipients,
and hands any other payload to each live recipient's ``deliver``.  A
per-copy ``_deliver`` to a terminated party may never fire at all: a
world that lets the simulator cull (``World._enable_culling``) has such
copies skipped when their window opens, and ``messages_delivered``
counts each of them as the delivery it would have been.

Observability is routed through the world's
:class:`~repro.sim.instrumentation.Instrumentation` bundle: deliveries are
recorded as atomic steps with the accountant (for Definition 9-10 round
latency), only when the bundle enables it; a disabled observer costs the
hot path nothing.

Fault injection (:mod:`repro.sim.faults`) hooks two seams: the schedule
side (``_emit_routed``: drop/duplicate/jitter/hold/churn per priced copy)
and the delivery side (``_deliver``: discard arrivals into a crash
window).  A world without a fault plan has no injector at all, so the
unfaulted path replays byte-identically.
"""
from __future__ import annotations

from array import array
from functools import partial
from itertools import islice
from operator import eq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SimulationError
from repro.crypto.messages import digest
from repro.sim.clock import TIME_DECIMALS, quantize
from repro.sim.delays import DelayPolicy
from repro.sim.scheduler import Simulator
from repro.types import INF, PartyId

if TYPE_CHECKING:
    from repro.sim.faults import FaultInjector
    from repro.sim.instrumentation import Instrumentation
    from repro.sim.retransmit import ReliableLink, _Transfer

#: Delivery callback: (sender, payload) -> None
DeliverFn = Callable[[PartyId, Any], None]
#: Typecode of a fan-out's recipient and msg-id columns.
_PARTY = "q"
#: One run of a fan-out: ``recipients[start:end]`` all land at the instant.
Run = tuple[int, int, float]
#: Fan-out emitter: (sender, recipients, runs, payload, send_time,
#: order_key | None, instants | None) -> order_key | None — schedules
#: every run of one fan-out, digesting the payload if it has to.
Emitter = Callable[..., "bytes | None"]


class Network:
    """Point-to-point transport with adversary-scheduled delays."""

    def __init__(
        self,
        sim: Simulator,
        policy: DelayPolicy,
        *,
        n: int,
        byzantine: frozenset[PartyId] = frozenset(),
        start_offsets: list[float] | None = None,
        instrumentation: "Instrumentation | None" = None,
        fault_injector: "FaultInjector | None" = None,
        reliable_link: "ReliableLink | None" = None,
        parties: range | None = None,
    ):
        self._sim = sim
        self._policy = policy
        # The fault engine's two seams run through this class; with no
        # plan attached the injector is ``None`` and every faulted
        # branch below is a single is-None test — the no-fault path
        # stays byte-identical to a build without fault injection.
        self._injector = fault_injector
        # Opt-in reliable channel (ack + bounded-backoff retransmission):
        # like the injector, ``None`` when unused.
        if reliable_link is not None:
            from repro.sim.retransmit import ReliableChannel

            self._reliable = ReliableChannel(
                reliable_link, sim, self._retransmit
            )
        else:
            self._reliable = None
        # Both seams act per copy (registration, routing and ack), so
        # their presence swaps the emitter for the whole network.
        self._emit: Emitter = (
            self._emit_run
            if fault_injector is None and reliable_link is None
            else self._emit_routed
        )
        self._n = n
        self._byzantine = byzantine
        self._start_offsets = start_offsets or [0.0] * n
        if len(self._start_offsets) != n:
            raise SimulationError("start_offsets length must equal n")
        # When every party starts at the same offset, a multicast's
        # delivery time depends only on the delay — the fan-out then
        # reuses one quantized time per run of equal delays.
        first = self._start_offsets[0]
        self._common_offset = (
            first if all(o == first for o in self._start_offsets) else None
        )
        # Inboxes live in a list indexed by party id: the delivery hot
        # path does an index load instead of a dict probe (20k+ times per
        # large run); a ``None`` slot is a never-attached party.
        self._inboxes: list[DeliverFn | None] = [None] * n
        #: The parties this network delivers to itself, contiguous.
        self._local = parties = range(n) if parties is None else parties
        #: Remote recipients, at most two contiguous ranges around the
        #: local one, each with the wire-record emitter; none for a full
        #: range.
        self._remote_targets: list[tuple[range, Emitter]] = [
            (remote, self._emit_remote)
            for remote in (range(0, parties.start), range(parties.stop, n))
            if remote
        ]
        #: Runs to remote recipients recorded at *send* time, as
        #: ``(sender, payload, lo, hi, deliver_time)`` records; drained by
        #: the shard worker after every barrier step.
        self.outbuf: list[tuple[PartyId, Any, int, int, float]] = []
        # Bind the observer once; ``None`` dead-strips its hot-path use.
        # While it is attached every copy stays its own ``_deliver`` event
        # (see ``_emit_run``).
        self._accountant = (
            instrumentation.accountant if instrumentation is not None else None
        )
        #: ``(sender, recipients, payload) -> copies delivered`` for a
        #: folded run, installed by ``World.populate``; ``None``: inboxes.
        self.run_handler: Callable[..., int] | None = None
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Copies delivered through batched run events, and the number of
        #: such run events (0 while an observer or per-copy seam is attached).
        self.deliveries_batched = 0
        self.delivery_runs_batched = 0

    def attach(self, party: PartyId, deliver: DeliverFn) -> None:
        """Register the delivery callback for ``party``."""
        if not 0 <= party < self._n:
            raise SimulationError(f"party {party} out of range")
        if self._inboxes[party] is not None:
            raise SimulationError(f"party {party} already attached")
        self._inboxes[party] = deliver

    def _targets(self, sender: PartyId) -> list[tuple[range, Emitter]]:
        """The ``(recipients, emitter)`` pairs one multicast fans out to:
        the local parties below and above the sender, as two ranges (an
        empty one is dropped), then the remote ranges.  O(1) per
        multicast, and nothing is kept per sender: a materialized list
        per sender would be O(n²) state in a world where everyone
        multicasts."""
        local = self._local
        emit = self._emit
        targets = [
            (recipients, emit)
            for recipients in (
                range(local.start, min(sender, local.stop)),
                range(max(sender + 1, local.start), local.stop),
            )
            if recipients
        ]
        targets += self._remote_targets
        return targets

    def send(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        *,
        delay_override: float | None = None,
    ) -> None:
        """Send one message; the adversary's policy decides its delay.

        ``delay_override`` is only legal when the sender or the recipient
        is Byzantine (the model lets the adversary choose any delay on
        links touching a corrupted party).  ``INF`` drops the message.
        A fan-out of one: the same pipeline as :meth:`multicast`.
        """
        if not 0 <= recipient < self._n:
            raise SimulationError(f"recipient {recipient} out of range")
        send_time = self._sim.now
        if self._injector is not None and self._injector.block_send(
            sender, send_time
        ):
            return  # sender is inside a crash window: nothing leaves it
        if delay_override is None:
            delay = self._policy.delay(sender, recipient, payload, send_time)
        else:
            self._check_override(sender, (recipient,))
            delay = delay_override
        self.messages_sent += 1
        self._fan_out(
            sender, (recipient,), (delay,), payload, send_time,
            # A copy for a party another shard simulates leaves as a
            # wire record.
            self._emit if recipient in self._local else self._emit_remote,
        )

    def multicast(
        self,
        sender: PartyId,
        payload: Any,
        *,
        include_self: bool = True,
        delay_override: float | None = None,
    ) -> None:
        """Send ``payload`` to every party (optionally excluding sender).

        Self-delivery is immediate (a party always "hears" itself with
        zero delay), matching the convention the paper uses when counting
        quorums that include the sender's own vote.

        The whole fan-out samples **one delay vector** from the policy
        (``delays_for_multicast``) — or, for a Byzantine
        ``delay_override``, repeats the override after one endpoint check
        — and hands it to :meth:`_fan_out`, which computes **one**
        scheduling ``order_key`` digest (none at all if the adversary
        drops every copy) and crosses the scheduler boundary **once**:
        a fixed-delay multicast's n-1 copies are one folded event, a
        randomized one's are one batch with an instant per copy.
        """
        send_time = self._sim.now
        if self._injector is not None and self._injector.block_send(
            sender, send_time
        ):
            return  # sender is inside a crash window: nothing leaves it
        order_key = None
        for recipients, emit in self._targets(sender):
            if delay_override is None:
                delays = self._policy.delays_for_multicast(
                    sender, recipients, payload, send_time
                )
            else:
                self._check_override(sender, recipients)
                delays = [delay_override] * len(recipients)
            self.messages_sent += len(recipients)
            order_key = self._fan_out(
                sender, recipients, delays, payload, send_time, emit,
                order_key,
            )
        if include_self:
            self.messages_sent += 1
            # Straight onto the timeline: a self-delivery is never routed
            # through the injector or tracked by the channel.
            if order_key is None:
                order_key = digest(payload)
            self._sim.schedule_at(
                send_time, self._deliver, order_key=order_key,
                transient=True,
                args=(
                    sender, sender, payload,
                    self._accountant.register_send()
                    if self._accountant is not None else None,
                ),
            )

    def _check_override(
        self, sender: PartyId, recipients: Sequence[PartyId]
    ) -> None:
        """Reject a ``delay_override`` on any honest-to-honest link."""
        if sender in self._byzantine:
            return
        for recipient in recipients:
            if recipient not in self._byzantine:
                raise SimulationError(
                    "delay overrides require a Byzantine endpoint "
                    f"({sender}->{recipient} are both honest)"
                )

    def _fan_out(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        delays: Sequence[float],
        payload: Any,
        send_time: float,
        emit: Emitter,
        order_key: bytes | None = None,
    ) -> bytes | None:
        """Turn priced delays into delivery instants and emit them as runs.

        The single home of the delivery rules, shared by unicast,
        multicast, retransmission and the sharded remote ranges: a copy
        sent at ``send_time`` with delay ``d`` lands at
        ``quantize(max(send_time + d, start offset))`` (pre-start
        arrivals are buffered until the recipient starts), ``INF`` drops
        it, and a negative delay is a policy bug that raises before
        anything is scheduled.  Consecutive copies that share an instant
        — equal delays under a common start offset — form one *run*;
        ``emit`` receives the fan-out's runs in recipient order, so the
        schedule's ``(time, priority, order_key)`` ordering, and hence
        every party's inbox order, does not depend on how a run is
        emitted.  When :meth:`_instants` finds every copy its own run,
        ``emit`` also receives the instants as one ``array('d')`` (the
        runs are then read off it) and may schedule that array as it
        is; otherwise ``instants`` is ``None``, and the runs are one run
        for an all-equal vector under a common start offset (a fixed
        delay's fan-out) or come from the walk in :meth:`_runs`.

        The scheduling ``order_key`` is threaded through the emitter and
        back to the caller (it takes the key so far, ``None`` until
        someone needed it, and returns it): the digest is deferred until
        a copy is actually scheduled, so a message the adversary
        withholds forever — or the fault plan drops on every link — is
        never encoded at all.
        """
        if len(delays) != len(recipients):
            raise SimulationError(
                f"policy returned {len(delays)} delays for "
                f"{len(recipients)} recipients"
            )
        instants = None
        runs: Iterable[Run] | None = None
        if delays:
            # One C-level pass rules out a negative delay before anything
            # is scheduled: ``count`` for the common all-equal vector (one
            # repeated float object, matched by identity — a twentieth of
            # a ``min`` over 1000 copies), ``min`` for the rest.
            lowest = delays[0]
            equal = delays.count(lowest) == len(delays)
            if not equal:
                lowest = min(delays)
            if lowest < 0:
                raise SimulationError(
                    f"policy produced negative delay {lowest}"
                )
            common = self._common_offset
            if not equal or len(delays) == 1:
                instants = self._instants(delays, lowest, send_time)
                if instants is not None:
                    count = len(instants)
                    runs = zip(range(count), range(1, count + 1), instants)
            elif common is not None:
                # Every copy shares one instant: the walk's single run,
                # or none when ``INF`` drops them all.
                deliver_time = quantize(max(send_time + lowest, common))
                runs = (
                    ((0, len(delays), deliver_time),)
                    if deliver_time != INF else ()
                )
        if runs is None:
            runs = self._runs(recipients, delays, send_time)
        return emit(
            sender, recipients, runs, payload, send_time, order_key,
            instants,
        )

    def _instants(
        self, delays: Sequence[float], lowest: float, send_time: float
    ) -> array | None:
        """The instant stage in C-level passes, when the delay vector
        alone shows its run walk would yield one singleton run per copy:
        no two neighbours equal, no ``INF``, and (under the common start
        offset) no copy held back to it.  Copy ``i`` then lands at
        ``quantize(send_time + delays[i])`` — the walk's instant, with
        ``quantize`` inlined.  ``None`` sends the fan-out through
        :meth:`_runs`."""
        common = self._common_offset
        if (
            common is None
            or send_time + lowest < common
            or any(map(eq, delays, islice(delays, 1, None)))
            or not max(delays) < INF
        ):
            return None
        return array(
            "d", [round(send_time + delay, TIME_DECIMALS) for delay in delays]
        )

    def _runs(
        self,
        recipients: Sequence[PartyId],
        delays: Sequence[float],
        send_time: float,
    ) -> Iterator[Run]:
        """The instant and run stages of :meth:`_fan_out`, lazily: one
        ``(start, end, deliver_time)`` per surviving run."""
        common = self._common_offset
        offsets = self._start_offsets
        prev_delay: float | None = None
        deliver_time = INF  # INF: no run in progress (or a dropped one)
        start = 0
        for idx, delay in enumerate(delays):
            if delay == prev_delay:
                continue
            if deliver_time != INF:
                yield start, idx, deliver_time
            start = idx
            if common is None:
                # Staggered starts: the instant depends on the recipient,
                # so every copy is its own run (``prev_delay`` stays unset).
                earliest = offsets[recipients[idx]]
            else:
                prev_delay = delay
                earliest = common
            # An INF delay stays INF here, which drops the run.
            deliver_time = quantize(max(send_time + delay, earliest))
        if deliver_time != INF:
            yield start, len(delays), deliver_time

    # Every delivery is scheduled handle-free: the network never cancels
    # a copy in flight, so ``transient=True`` (and ``schedule_batch``,
    # which is always handle-free) queues a plain ``(time, priority,
    # order_key, seq, action, args)`` entry and allocates no ``Event``.
    # The endpoints travel in ``args`` — binding them there instead of in
    # a ``partial`` saves one more allocation per copy.  A fan-out's
    # copies go over as typed columns: instants in an ``array('d')``; the
    # recipients as the fan-out's own sequence (a multicast's ``range``)
    # when every recipient gets exactly one copy, in an integer array
    # otherwise; msg ids in an integer array and transfers in a list,
    # only when they exist.  The queue keeps the columns until a copy's
    # window opens, so no copy in flight holds a Python object of its own.

    def _schedule_copies(
        self,
        times: array,
        deliver: Callable[..., None],
        sender: PartyId,
        targets: Sequence[PartyId],
        payload: Any,
        order_key: bytes | None,
        msg_ids: array | None = None,
        transfers: list | None = None,
    ) -> bytes:
        """Hand the copies a fan-out has gathered (at least one) to the
        scheduler in one call.  The queue keeps the columns, so the
        caller gathers any later copies into new arrays."""
        if order_key is None:
            order_key = digest(payload)
        self._sim.schedule_batch(
            times, deliver, sender, targets, payload, msg_ids, transfers,
            order_key=order_key,
        )
        return order_key

    def _emit_run(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
        instants: array | None = None,
    ) -> bytes | None:
        """Emit a fan-out when no per-copy seam is attached.

        A run of >= 2 copies nobody observes becomes a single
        ``_deliver_many`` event carrying the recipient slice.  Every
        other copy is gathered as one ``_deliver`` event: singletons, the
        copies of an observed run (the accountant registers each copy
        while the batch is assembled) and of a run landing at
        ``send_time`` itself — a same-instant run's copies
        would already be consumed when a reaction to the first copy
        schedules, losing the per-copy tie-break the queue gives.  The
        gathered columns go over in one ``schedule_batch``, which assigns
        the sequence numbers a per-copy loop would; a folded run flushes
        the copies gathered before it to keep that true.

        When the fast instant pass produced ``instants`` every run is a
        singleton, so nothing is gathered: ``instants`` and
        ``recipients`` are the columns.  On the run walk the instants
        are gathered into an ``array('d')`` and the recipients into an
        integer array, which is dropped for ``recipients`` itself when
        nothing folded or dropped.
        """
        accountant = self._accountant
        observed = accountant is not None
        if instants is not None:
            return self._schedule_copies(
                instants, self._deliver, sender, recipients, payload,
                order_key,
                array(_PARTY, [accountant.register_send() for _ in instants])
                if observed else None,
            )
        times = array("d")
        targets = array(_PARTY)
        msg_ids = array(_PARTY) if observed else None
        for start, end, deliver_time in runs:
            if end - start == 1 or observed or deliver_time <= send_time:
                for recipient in recipients[start:end]:
                    times.append(deliver_time)
                    targets.append(recipient)
                    if observed:
                        msg_ids.append(accountant.register_send())
                continue
            # Only an unobserved run folds, so there are no msg ids here.
            if times:
                order_key = self._schedule_copies(
                    times, self._deliver, sender, targets, payload, order_key
                )
                times, targets = array("d"), array(_PARTY)
            elif order_key is None:
                order_key = digest(payload)
            self.delivery_runs_batched += 1
            self.deliveries_batched += end - start
            # A multicast's recipients are a range, so the run's slice is
            # one too: O(1), and immutable while the event is in flight.
            self._sim.schedule_at(
                deliver_time, self._deliver_many, order_key=order_key,
                args=(sender, recipients[start:end], payload),
                transient=True,
            )
        if times:
            order_key = self._schedule_copies(
                times, self._deliver, sender,
                # All of them, one each: nothing folded or dropped.
                recipients if len(targets) == len(recipients) else targets,
                payload, order_key, msg_ids,
            )
        return order_key

    def _emit_routed(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
        instants: array | None = None,
        transfer: "_Transfer | None" = None,
    ) -> bytes | None:
        """Emit a fan-out copy by copy through the per-copy seams.

        Reliable-channel seam: each cross-party copy is tracked *before*
        the injector gets a chance to drop it — recovering exactly that
        loss is the channel's job (a retransmission passes the
        ``transfer`` it is re-sending instead).  Fault seam: the injector
        may drop, retime, or duplicate the copy; every surviving instant
        becomes one ``_deliver`` event (``_deliver_tracked`` on a network
        with a channel), gathered in recipient order into the columns
        :meth:`_emit_run` gathers (plus the transfers, in a list) and
        scheduled as one batch — only then, and only if a copy survived,
        is the payload digested.  The recipient array gives way to
        ``recipients`` itself when it holds exactly them, in order.
        ``instants`` is not used: every copy is routed from its run.
        """
        injector = self._injector
        reliable = self._reliable
        accountant = self._accountant
        tracking = reliable is not None or transfer is not None
        times = array("d")
        targets = array(_PARTY)
        msg_ids = array(_PARTY) if accountant is not None else None
        transfers: list | None = [] if tracking else None
        for start, end, deliver_time in runs:
            for recipient in recipients[start:end]:
                tracked = transfer
                if (
                    tracked is None
                    and reliable is not None
                    and recipient != sender
                ):
                    tracked = reliable.register(sender, recipient, payload)
                if injector is None:
                    landings = (deliver_time,)
                else:
                    landings = injector.route(
                        sender, recipient, send_time, deliver_time
                    )
                for instant in landings:
                    times.append(quantize(instant))
                    targets.append(recipient)
                    if msg_ids is not None:
                        msg_ids.append(accountant.register_send())
                    if transfers is not None:
                        transfers.append(tracked)
        if times:
            # A duplicate can stand in for a dropped copy: compare the
            # recipients, not only their count.
            if len(targets) == len(recipients) and targets == array(
                _PARTY, recipients
            ):
                targets = recipients
            order_key = self._schedule_copies(
                times, self._deliver_tracked if tracking else self._deliver,
                sender, targets, payload, order_key, msg_ids, transfers,
            )
        return order_key

    def _emit_remote(
        self,
        sender: PartyId,
        recipients: Sequence[PartyId],
        runs: Iterable[Run],
        payload: Any,
        send_time: float,
        order_key: bytes | None,
        instants: array | None = None,
    ) -> bytes | None:
        """Emit a fan-out to a remote range as ``outbuf`` records.

        Without a plan each run is one record.  With one compiled in,
        the fault seam applies at the *source*: each copy is dropped,
        retimed, or duplicated here, exactly like :meth:`_emit_routed`,
        and only the surviving copies become records.  No order key is
        needed (or computed) here: the destination shard digests the
        payload itself when it queues the record.  ``instants`` is not
        used: every run, singleton or not, is one record.
        """
        outbuf = self.outbuf
        injector = self._injector
        for start, end, deliver_time in runs:
            # Runs are contiguous: remote ranges are, and so is a unicast.
            lo = recipients[start]
            hi = lo + end - start
            if injector is None:
                outbuf.append((sender, payload, lo, hi, deliver_time))
                continue
            for recipient in range(lo, hi):
                for faulted_time in injector.route(
                    sender, recipient, send_time, deliver_time
                ):
                    outbuf.append((
                        sender, payload, recipient, recipient + 1,
                        quantize(faulted_time),
                    ))
        return order_key

    def _deliver_many(
        self, sender: PartyId, recipients: Sequence[PartyId], payload: Any
    ) -> None:
        """Deliver one payload to a whole run of recipients.

        The tight-loop twin of ``_deliver``: one event frame for the run,
        an index load + inbox call per copy.  ``_emit_run`` schedules it
        only when no injector or accountant is attached; the one
        scheduler with an injector is the shard worker queueing an
        inbound run (already routed at its source), whose copies still
        pass the recipient crash window one by one through
        :meth:`_deliver`.  The
        simulator is told about the folded copies so ``events_processed``
        counts logical deliveries identically to the per-copy path.

        Without an injector an installed ``run_handler`` takes the run
        instead of the inbox loop (see the module docstring).
        """
        self._sim.note_logical_events(len(recipients) - 1)
        if self._injector is not None:
            for recipient in recipients:
                self._deliver(sender, recipient, payload, None)
            return
        if self.run_handler is not None:
            self.messages_delivered += self.run_handler(
                sender, recipients, payload
            )
            return
        inboxes = self._inboxes
        delivered = 0
        for recipient in recipients:
            inbox = inboxes[recipient]
            if inbox is not None:
                delivered += 1
                inbox(sender, payload)
        self.messages_delivered += delivered

    def _deliver(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        msg_id: int | None,
    ) -> None:
        inbox = self._inboxes[recipient]
        if inbox is None:
            return  # recipient never attached (e.g. crashed from the start)
        if self._injector is not None and self._injector.block_delivery(
            recipient, self._sim.now
        ):
            return  # delivery seam: recipient is inside a crash window
        self.messages_delivered += 1
        if self._accountant is not None and msg_id is not None:
            self._accountant.begin_delivery_step(recipient, msg_id)
            try:
                inbox(sender, payload)
            finally:
                self._accountant.end_step()
        else:
            inbox(sender, payload)

    def note_culled(self, count: int) -> None:
        """Count ``count`` copies the simulator culled, each a
        ``_deliver`` to a terminated party, as the deliveries they would
        have been."""
        self.messages_delivered += count

    def _deliver_tracked(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        msg_id: int | None,
        transfer: "_Transfer | None",
    ) -> None:
        """The reliable-channel twin of :meth:`_deliver`.

        Same delivery rules; on the first copy that actually reaches the
        inbox (not discarded by a crash window) the channel is told to
        ack, stopping the retry chain (``transfer`` is ``None`` for the
        one copy a channel never tracks, a party's unicast to itself).
        Only scheduled when a channel is attached, so :meth:`_deliver`
        itself stays untouched.
        """
        inbox = self._inboxes[recipient]
        if inbox is None:
            return
        if self._injector is not None and self._injector.block_delivery(
            recipient, self._sim.now
        ):
            return  # recipient down: no ack, the retry chain recovers it
        if transfer is not None:
            self._reliable.acknowledge(transfer)
        self.messages_delivered += 1
        if self._accountant is not None and msg_id is not None:
            self._accountant.begin_delivery_step(recipient, msg_id)
            try:
                inbox(sender, payload)
            finally:
                self._accountant.end_step()
        else:
            inbox(sender, payload)

    def _retransmit(self, transfer: "_Transfer") -> bool:
        """Re-send one tracked copy (the reliable channel's resend hook).

        The retry is re-priced through the delay policy at the current
        instant and routed through the injector again — a resend can be
        dropped, jittered or duplicated exactly like an original.  A
        sender inside a crash window retransmits nothing (returns
        ``False``); its chain keeps ticking and resumes after recovery.
        """
        send_time = self._sim.now
        if self._injector is not None and self._injector.block_send(
            transfer.sender, send_time
        ):
            return False
        delay = self._policy.delay(
            transfer.sender, transfer.recipient, transfer.payload, send_time
        )
        if delay == INF:
            return False
        self.messages_sent += 1
        self._fan_out(
            transfer.sender, (transfer.recipient,), (delay,),
            transfer.payload, send_time,
            partial(self._emit_routed, transfer=transfer),
        )
        return True

    # ------------------------------------------------------------------ #
    # reliable-channel counters (read by World.result)
    # ------------------------------------------------------------------ #

    @property
    def retransmissions(self) -> int:
        return (
            self._reliable.counters.retransmissions
            if self._reliable is not None
            else 0
        )

    @property
    def acks_sent(self) -> int:
        return (
            self._reliable.counters.acks_sent
            if self._reliable is not None
            else 0
        )

    @property
    def retries_exhausted(self) -> int:
        return (
            self._reliable.counters.retries_exhausted
            if self._reliable is not None
            else 0
        )
