"""Event queue for the deterministic discrete-event simulator.

Events are ordered by ``(time, priority, order_key, seq)`` where ``seq`` is
the insertion sequence number.  The sequence number makes tie-breaking fully
deterministic: two events scheduled for the same instant fire in the order
they were scheduled.  Lower-bound witnesses depend on this reproducibility
to compare transcripts byte-for-byte across executions.

Cancellation is lazy: :meth:`Event.cancel` only flags the entry, and the
queue drops flagged entries when they surface at the heap top (or in a bulk
compaction once they dominate the heap).  Live-entry bookkeeping is kept
incrementally — ``len(queue)`` and ``bool(queue)`` are O(1), never a heap
scan — which matters because the scheduler polls the queue once per event.

Arena mode (``recycle=True``): message deliveries dominate event volume
(O(n^2) per protocol round) and their :class:`Event` cells never escape —
the network keeps no handle, so nothing can cancel them after the fact.
Such events are pushed with ``transient=True`` and their cells are
*recycled* through a freelist once the scheduler has run them, replacing
one object allocation per delivery with a handful of slot stores.  Cell
identity is an implementation detail for transient events; timer events
(whose handles parties retain for :meth:`Event.cancel`) are never recycled.
The ``perf`` instrumentation preset enables the arena; ``full`` keeps
allocating fresh cells so event identity semantics stay exactly as before.
Recycling never affects ordering — heap entries are plain-data tuples and
``seq`` still increments per push — so both modes replay the same schedule.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.types import INF

#: Compaction triggers only past this many cancelled entries (and only when
#: they outnumber live ones), so small queues never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback.  Ordering fields first; payload excluded.

    ``order_key`` canonicalizes ties: two events at the same instant and
    priority fire in ``order_key`` order (then insertion order).  Message
    deliveries use the payload digest, so simultaneous deliveries are
    processed in a content-determined order that is invariant across the
    paired executions of the lower-bound constructions — the model treats
    same-instant delivery order as adversary-chosen anyway.

    ``args`` are positional arguments the scheduler passes to ``action``
    when the event fires; binding them here lets high-volume callers
    (message deliveries) skip allocating a ``partial`` per event.
    """

    time: float
    priority: int
    order_key: bytes
    seq: int
    action: Callable[..., None] = field(compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Freelist-eligible: no handle escaped, recycled after firing.
    transient: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: Back-reference to the owning queue while the event sits in its heap;
    #: cleared on pop so a late ``cancel()`` cannot corrupt the counters.
    queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Heap entries are ``(time, priority, order_key, seq, event)`` tuples:
    ``seq`` is unique, so comparisons always resolve within the plain-data
    prefix and run entirely in C — the generated ``Event.__lt__`` never
    enters the heap's hot path.

    :class:`~repro.sim.timeline.BucketTimeline` subclasses this queue and
    replaces the heap with a lookahead-window calendar (same observable
    pop order) — the queue every :class:`~repro.sim.scheduler.Simulator`
    runs on.  The cell allocation/recycling machinery and the
    live/cancelled bookkeeping below are shared by both; the heap
    ordering stays as the reference ``tests/sim/test_timeline.py`` drives
    the calendar against, so everything here is written per copy and
    per event, with nothing batched or windowed.
    """

    def __init__(self, *, recycle: bool = False) -> None:
        self._heap: list[tuple[float, int, bytes, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0  # non-cancelled events currently in the heap
        self._cancelled = 0  # cancelled events awaiting lazy removal
        self._recycle = recycle
        self._free: list[Event] = []
        self.events_recycled = 0  # transient cells reused from the freelist
        #: Calendar counters; the heap queue itself never moves them off 0.
        self.bucket_appends = 0
        self.heap_pushes_avoided = 0

    def _obtain_cell(
        self,
        time: float,
        priority: int,
        order_key: bytes,
        seq: int,
        action: Callable[..., None],
        args: tuple,
        transient: bool,
        label: str,
    ) -> Event:
        """A filled event cell: freelist reuse for transient pushes when
        the arena is on, a fresh allocation otherwise."""
        if transient and self._recycle:
            free = self._free
            if free:
                event = free.pop()
                event.time = time
                event.priority = priority
                event.order_key = order_key
                event.seq = seq
                event.action = action
                event.args = args
                # Reset the flag here, not only in release(): a caller
                # that wrongly retained a transient handle and cancelled
                # it while the cell sat in the freelist must not kill the
                # unrelated delivery that next reuses the cell.
                event.cancelled = False
                event.label = label
                event.queue = self
                self.events_recycled += 1
                return event
            return Event(
                time, priority, order_key, seq, action, args,
                transient=True, label=label, queue=self,
            )
        return Event(
            time, priority, order_key, seq, action, args,
            label=label, queue=self,
        )

    def push(
        self,
        time: float,
        action: Callable[..., None],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        args: tuple = (),
        transient: bool = False,
    ) -> Event:
        """Schedule ``action(*args)`` at ``time``; returns a cancellable
        handle.  ``transient=True`` marks the event as handle-free so an
        arena-mode queue may recycle its cell after the scheduler runs it
        — callers must not retain the returned handle for such events."""
        seq = next(self._counter)
        event = self._obtain_cell(
            time, priority, order_key, seq, action, args, transient, label
        )
        heapq.heappush(self._heap, (time, priority, order_key, seq, event))
        self._live += 1
        return event

    def push_batch(
        self,
        times: Sequence[float],
        action: Callable[..., None],
        args_seq: Sequence[tuple],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        transient: bool = False,
    ) -> int:
        """Schedule ``action(*args)`` at ``time`` for every ``(time,
        args)`` pair of ``times`` and ``args_seq``, sharing one
        ``(priority, order_key)`` prefix.

        Exactly a loop of :meth:`push` (same ``seq`` assignment, same pop
        order) — the batch form exists so a whole fan-out, one instant
        per copy, crosses the queue boundary once; the calendar backend
        overrides it with an inlined loop.  No handles are returned:
        batch pushes are for fire-and-forget deliveries (use
        ``transient=True`` under the arena); returns the number of events
        scheduled.
        """
        for time, args in zip(times, args_seq, strict=True):
            self.push(
                time, action, priority=priority, order_key=order_key,
                label=label, args=args, transient=transient,
            )
        return len(args_seq)

    def pop(self, stop: float = INF) -> Event | None:
        """Remove and return the earliest non-cancelled event if it is due
        strictly before ``stop``; ``None`` otherwise (nothing is removed
        then but cancelled entries that surfaced on the way)."""
        heap = self._heap
        while heap and heap[0][0] < stop:
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                self._discard_cancelled(event)
                continue
            event.queue = None
            self._live -= 1
            return event
        return None

    def _discard_cancelled(self, event: Event) -> None:
        """Drop a cancelled entry surfacing from the backend structure.

        Cancelled *transient* cells go back to the freelist: they were
        heading for recycling anyway, and skipping them here used to leak
        them from the arena — cancellation-heavy adversary runs would
        slowly regress to plain allocation.

        Idempotent on already-released cells: a stale duplicate
        reference surfacing from the backend structure must not
        decrement the cancelled count a second time or re-release the
        cell (which :meth:`release` would reject).
        """
        if event.action is _released:
            return
        self._cancelled -= 1
        if event.transient and self._recycle:
            event.queue = None
            self.release(event)

    def release(self, event: Event) -> None:
        """Return a fired transient event's cell to the freelist.

        Only the scheduler calls this, after ``event.action`` has run.
        The callback references are dropped so the freelist never pins
        message payloads beyond the delivery that carried them.

        Releasing the same cell twice would enqueue it on the freelist
        twice, so two future deliveries would share one cell — the
        second reuse silently rewrites the first's schedule.  That
        corruption is unlocalizable after the fact, so the double
        release itself is the error (both backends share this guard).
        """
        if event.action is _released:
            raise SimulationError(
                f"event cell released twice (label={event.label!r}); "
                "a transient cell must be released exactly once"
            )
        event.action = _released
        event.args = ()
        event.cancelled = False
        self._free.append(event)

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][4].cancelled:
            self._discard_cancelled(heapq.heappop(heap)[4])
        if heap:
            return heap[0][0]
        return None

    def _note_cancel(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel` (in-heap only)."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (amortized O(live))."""
        kept = []
        for entry in self._heap:
            if entry[4].cancelled:
                self._discard_cancelled(entry[4])
            else:
                kept.append(entry)
        self._heap = kept
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


def _released() -> None:
    """Placeholder action on freelist cells; firing one is a queue bug."""
    raise RuntimeError("released event cell fired — freelist misuse")
