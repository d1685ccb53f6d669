"""The simulation kernel: virtual time plus the event loop.

``Simulator`` owns the global virtual clock.  Everything else (networks,
parties, adversaries, timers) schedules callbacks on it.  Time is a float
in abstract "delay units"; the paper's ``Delta`` and ``delta`` are plain
parameters in those units.

There is one event queue, the window calendar
:class:`~repro.sim.events.EventQueue`; the binary heap it must replay
lives in ``tests/sim/heap_queue.py`` as an oracle, and the
``reference_queue`` test fixture swaps it in for the class this module
instantiates.

The event loop runs with CPython's cyclic garbage collector paused.  At
the peak of a uniform-delay run about a hundred thousand copies are in
flight, and every generational collection walked the queue entries and
argument tuples that held them to find nothing.  Reference counting
still frees each acyclic object the moment it is dropped, so the pause
is safe exactly while a run makes no cyclic garbage: a handler, a queue
entry or a record that ends up referring to itself would stay in memory
until the next collection after the run.
``tests/sim/test_collector_pause.py`` pins that invariant
(``gc.collect()`` finds nothing right after a run across the delay,
fault, retransmit, instrumentation, view-change and witness paths) and
shows that the check does see a cycle.  ``gc``'s switch is
process-wide: two drains on different threads can only re-enable it
early for each other, which costs collector time, never correctness.
"""
from __future__ import annotations

import gc
from itertools import repeat
from math import nextafter
from typing import Any, Callable, Sequence

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.types import INF


def check_run_bounds(
    until: float | None, max_events: int | None, now: float
) -> None:
    """Reject a run horizon no event time compares against (NaN: every
    ``time > until`` test is false, so the whole schedule would run), a
    horizon already behind ``now`` and a negative event budget (which
    would silently process nothing)."""
    if until is not None and until != until:
        raise SimulationError(f"cannot run until a NaN horizon ({until})")
    if until is not None and until < now:
        raise SimulationError(f"cannot run until {until}, before now={now}")
    if max_events is not None and max_events < 0:
        raise SimulationError(f"max_events must be >= 0, got {max_events}")


class Simulator:
    """Deterministic discrete-event simulation kernel.

    The queue is the window calendar of :mod:`repro.sim.events` — O(1)
    appends per lookahead window, one sort per window.  ``lookahead`` is
    that window's width: a span no message sent inside it can land in
    (the delay policy's guaranteed minimum, derived by the world; ``0`` =
    none known).  It only sizes the windows — any value replays the same
    schedule, the one a binary heap over the same pushes would.

    A push that returns no handle — ``schedule_at(..., transient=True)``
    and every :meth:`schedule_batch` copy — queues one plain tuple (a
    batch copy only once its window opens: until then it is its slots in
    the fan-out's typed columns and index array); only a push that
    returns a cancellable
    :class:`~repro.sim.events.Event` (a timer) allocates one.
    """

    def __init__(self, *, lookahead: float = 0.0) -> None:
        #: Read back by the sharded coordinator to size its barrier window.
        self.lookahead = lookahead
        self._queue = EventQueue(width=lookahead)
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: The latest instant any :meth:`schedule_batch` copy was given.
        self._latest = 0.0
        #: ``(terminated, note)`` once :meth:`cull_copies` enabled
        #: culling, else ``None``.
        self._cull: tuple[bytearray, Callable[[int], None]] | None = None

    @property
    def now(self) -> float:
        """Current global virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Logical events processed.

        Counts one per fired event, plus the extra logical deliveries a
        batched fan-out run folds into a single transient event (the
        network reports those via :meth:`note_logical_events`) — so the
        counter is invariant between the batched and per-copy delivery
        paths, and parity gates can keep comparing it across modes — and
        the copies a drain culled (:meth:`cull_copies`), which count as
        the events they would have been.
        """
        return self._events_processed + self._queue.copies_culled

    @property
    def copies_culled(self) -> int:
        """Batch copies culled because their recipient had terminated."""
        return self._queue.copies_culled

    def cull_copies(
        self, terminated: bytearray, note: Callable[[int], None]
    ) -> None:
        """Let a full drain skip the copies nobody can read.

        From now on a :meth:`run` with no horizon and no event budget
        skips every :meth:`schedule_batch` copy whose recipient's byte
        in ``terminated`` is set when the copy's window opens, counts it
        as a processed event and reports the skipped copies of each
        fan-out as ``note(count)``; the drain then ends at the latest
        instant any batch was given, where the last of the skipped
        copies would have fired.  The caller vouches that every batch
        copy is a delivery to its recipient that such a party would drop
        without effect: the world enables this only where the batches
        are plain network deliveries (a tracked one needs a reliable
        link, which keeps culling off) and a terminated party drops what
        it is handed unread (see
        :meth:`repro.sim.process.Party.deliver`).  A partial
        drain (``until``, ``max_events``, :meth:`run_before`) never
        culls, so everything it reports is what it fired.
        """
        self._cull = (terminated, note)

    def note_logical_events(self, extra: int) -> None:
        """Account ``extra`` logical events folded into the current one.

        Called by the network when one delivery-run event stands in for
        ``extra + 1`` per-copy delivery events.
        """
        self._events_processed += extra

    @property
    def bucket_appends(self) -> int:
        """Events appended to calendar windows (every scheduled event)."""
        return self._queue.bucket_appends

    @property
    def heap_pushes_avoided(self) -> int:
        """Pushes that skipped an O(log n) heap sift: all but the first
        into each lookahead window (with no lookahead, each instant)."""
        return self._queue.heap_pushes_avoided

    def _reject(self, time: float) -> None:
        """Raise for an instant that failed ``now <= time < INF``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        raise SimulationError(
            f"cannot schedule event at a non-finite instant ({time})"
        )

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        args: tuple = (),
        transient: bool = False,
    ) -> Event | None:
        """Schedule ``action(*args)`` at absolute virtual time ``time``;
        returns a cancellable handle.

        ``transient=True`` declares that the caller will never cancel it:
        no handle is built (``None`` is returned) and the queue holds a
        plain entry — the form every message delivery takes.
        """
        if not self._now <= time < INF:
            self._reject(time)
        return self._queue.push(
            time, action, priority=priority, order_key=order_key,
            label=label, args=args, transient=transient,
        )

    def schedule_batch(
        self,
        times: Sequence[float],
        action: Callable[..., None],
        sender: Any,
        recipients: Sequence[Any],
        payload: Any,
        msg_ids: Sequence[Any] | None = None,
        transfers: Sequence[Any] | None = None,
        *,
        priority: int = 0,
        order_key: bytes = b"",
    ) -> int:
        """Schedule a fan-out in one queue call: copy ``i`` fires
        ``action(sender, recipients[i], payload, msg_id)`` at
        ``times[i]`` (``msg_id`` from the optional ``msg_ids`` column,
        ``transfers[i]`` appended when that column is given; see
        :meth:`~repro.sim.events.EventQueue.push_batch`).  Equivalent to
        a loop of transient :meth:`schedule_at` — same sequence numbers,
        same firing order, the whole batch checked before any of it is
        queued — so it is for fire-and-forget work (message fan-outs);
        returns the number of events scheduled.  The queue keeps the
        columns until the copies fire: do not change them afterwards.
        """
        count = len(times)
        for column in (recipients, msg_ids, transfers):
            if column is not None and len(column) != count:
                raise SimulationError(
                    f"{count} instants for {len(column)} copies"
                )
        if not count:
            return 0
        # ``now <= time < INF`` for every copy in two C-level passes: a
        # NaN or an infinity anywhere poisons the sum (``min`` alone
        # skips over a NaN that is not first).
        earliest, latest, total = min(times), max(times), sum(times)
        if not self._now <= earliest:
            self._reject(earliest)
        if not total < INF:
            self._reject(total)
        if latest > self._latest:
            self._latest = latest
        return self._queue.push_batch(
            times, action, sender, recipients, payload, msg_ids, transfers,
            priority=priority, order_key=order_key,
        )

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(
            self._now + delay, action, priority=priority, label=label
        )

    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Process events in time order.

        Stops when the queue drains, when virtual time would exceed
        ``until``, or after ``max_events`` events.  Returns the final
        virtual time: ``until`` when events remain beyond it, the last
        processed event's instant otherwise.  A NaN ``until``, an
        ``until`` before ``now`` and a negative ``max_events`` raise.
        With neither bound, the drain culls as :meth:`cull_copies` set
        up, if it did.
        """
        check_run_bounds(until, max_events, self._now)
        if until is None:
            if max_events is None and self._cull is not None:
                self._drain(INF, cull=self._cull)
                # The last culled copy's instant, when it was the last.
                self._now = max(self._now, self._latest)
            else:
                self._drain(INF, max_events)
            return self._now
        # ``time <= until`` as the strict bound the drain takes.
        self._drain(nextafter(until, INF), max_events)
        next_time = self._queue.peek_time()
        if next_time is not None and next_time > until:
            self._now = until
        return self._now

    def run_before(self, horizon: float) -> float:
        """Process events strictly before ``horizon``; return final time.

        The sharded worker's window step: the coordinator's lookahead
        guarantees no cross-shard traffic can land inside the window, and
        the inbound records already sent are on the calendar, so the
        whole span runs in one call.  Unlike ``run(until=...)``,
        ``now`` is left at the last processed event's instant — never
        advanced to the horizon itself — so the merged ``final_time``
        still reports the last real event.
        """
        self._drain(horizon)
        return self._now

    def _drain(
        self,
        stop: float,
        max_events: int | None = None,
        cull: tuple | None = None,
    ) -> None:
        """The event loop: fire, in order, every event strictly before
        ``stop`` (at most ``max_events`` of them).

        One queue call per event: the calendar answers it from the
        sorted window it has open, and a handler's own pushes — the next
        window's deliveries, a same-instant self-delivery — are in place
        before the next call.  Both kinds of entry fire the same way,
        ``action(*args)`` from their fifth and sixth fields; the queue
        has already dropped entries whose handle was cancelled.

        The cyclic collector is off for the whole loop (see the module
        docstring for why that is safe) and is switched back on on the
        way out only if it was on when the loop began; the state is read
        after the re-entrancy check, so a refused nested drain leaves it
        alone.  A caller that disabled the collector keeps it disabled.
        ``cull`` is handed to the queue for the loop's duration.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        queue = self._queue
        queue.cull = cull
        pop = queue.pop
        try:
            for _ in repeat(None) if max_events is None else range(max_events):
                entry = pop(stop)
                if entry is None:
                    break
                self._now = entry[0]
                entry[4](*entry[5])
                self._events_processed += 1
        finally:
            self._running = False
            queue.cull = None
            if collecting:
                gc.enable()

    def next_event_time(self) -> float | None:
        """Time of the earliest queued event, or ``None`` when empty.

        The sharded coordinator's barrier probe: each worker reports its
        local timeline's head so the coordinator can pick the global next
        instant.
        """
        return self._queue.peek_time()
