"""Event queue for the deterministic discrete-event simulator.

Events are ordered by ``(time, priority, order_key, seq)`` where ``seq`` is
the insertion sequence number.  The sequence number makes tie-breaking fully
deterministic: two events scheduled for the same instant fire in the order
they were scheduled.  Lower-bound witnesses depend on this reproducibility
to compare transcripts byte-for-byte across executions.

``order_key`` canonicalizes ties: two events at the same instant and
priority fire in ``order_key`` order (then insertion order).  Message
deliveries use the payload digest, so simultaneous deliveries are
processed in a content-determined order that is invariant across the
paired executions of the lower-bound constructions — the model treats
same-instant delivery order as adversary-chosen anyway.

A queue holds plain-data *entries*, one per scheduled callback:

* ``(time, priority, order_key, seq, action, args)`` for a push that
  returns no handle — every message delivery (a fan-out's
  :meth:`EventQueue.push_batch`, a folded run, a self-delivery) and every
  other ``transient=True`` push.  Nothing can cancel such a callback, so
  the tuple is all that is allocated for it;
* the same six fields followed by an :class:`Event` for a push that
  returns a cancellable handle (a party's timer).

``seq`` is unique, so comparisons always resolve within the plain-data
prefix and run entirely in C, and the two kinds sort together.  A popped
entry fires as ``entry[4](*entry[5])`` whatever its kind.

Cancellation is lazy: :meth:`Event.cancel` only flags the handle, and the
queue drops flagged entries when they surface at the heap top (or in a bulk
compaction once they dominate the heap).  Live-entry bookkeeping is kept
incrementally — ``len(queue)`` and ``bool(queue)`` are O(1), never a heap
scan — which matters because the scheduler polls the queue once per event.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.types import INF

#: Compaction triggers only past this many cancelled entries (and only when
#: they outnumber live ones), so small queues never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64


@dataclass(order=True, slots=True)
class Event:
    """A cancellable handle on one scheduled callback: the ordering fields
    of its queue entry (the entry itself carries ``action`` and ``args``)."""

    time: float
    priority: int
    order_key: bytes
    seq: int
    cancelled: bool = field(default=False, compare=False)
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


#: A queue entry: the six plain fields, plus the :class:`Event` handle when
#: the push returned one.
Entry = Union[
    tuple[float, int, bytes, int, Callable[..., None], tuple],
    tuple[float, int, bytes, int, Callable[..., None], tuple, Event],
]


def is_cancelled(entry: Entry) -> bool:
    """Whether ``entry`` carries a handle that was cancelled."""
    return len(entry) > 6 and entry[6].cancelled


class EventQueue:
    """A deterministic min-heap of entries.

    :class:`~repro.sim.timeline.BucketTimeline` subclasses this queue and
    replaces the heap with a lookahead-window calendar (same observable
    pop order) — the queue every :class:`~repro.sim.scheduler.Simulator`
    runs on.  Entry construction (:meth:`push`) and the live/cancelled
    bookkeeping below are shared by both; the heap ordering stays as the
    reference ``tests/sim/test_timeline.py`` drives the calendar against,
    so everything here is written per copy and per event, with nothing
    batched or windowed.
    """

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._counter = itertools.count()
        self._live = 0  # non-cancelled entries currently queued
        self._cancelled = 0  # cancelled entries awaiting lazy removal
        #: Calendar counters; the heap queue itself never moves them off 0.
        self.bucket_appends = 0
        self.heap_pushes_avoided = 0

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
    ) -> Event | None:
        """Schedule ``action(*args)`` at ``time``; returns a cancellable
        handle, or ``None`` for a ``transient=True`` push — one the caller
        will never cancel, which queues a plain entry and nothing else
        (``label`` names handles only)."""
        seq = next(self._counter)
        if transient:
            self._insert((time, priority, order_key, seq, action, args))
            self._live += 1
            return None
        event = Event(time, priority, order_key, seq, label=label, queue=self)
        self._insert((time, priority, order_key, seq, action, args, event))
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
    ) -> int:
        """Schedule ``action(*args)`` at ``time`` for every ``(time,
        args)`` pair of ``times`` and ``args_seq``, sharing one
        ``(priority, order_key)`` prefix.

        Exactly a loop of transient :meth:`push` (same ``seq``
        assignment, same pop order) — the batch form exists so a whole
        fan-out, one instant per copy, crosses the queue boundary once;
        the calendar backend overrides it with an inlined loop.  No
        handles are returned: batch pushes are for fire-and-forget
        deliveries; returns the number of events scheduled.
        """
        for time, args in zip(times, args_seq, strict=True):
            self.push(
                time, action, priority=priority, order_key=order_key,
                args=args, transient=True,
            )
        return len(args_seq)

    def _insert(self, entry: Entry) -> None:
        """Place one entry in the backend structure."""
        heapq.heappush(self._heap, entry)

    def pop(self, stop: float = INF) -> Entry | None:
        """Remove and return the earliest live entry if it is due strictly
        before ``stop``; ``None`` otherwise (nothing is removed then but
        cancelled entries that surfaced on the way)."""
        heap = self._heap
        while heap and heap[0][0] < stop:
            entry = heapq.heappop(heap)
            if len(entry) > 6:
                event = entry[6]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.queue = None
            self._live -= 1
            return entry
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and is_cancelled(heap[0]):
            heapq.heappop(heap)
            self._cancelled -= 1
        if heap:
            return heap[0][0]
        return None

    def release(self, entry: Entry) -> None:
        """Does nothing and is never called: a fired entry needs no
        bookkeeping.  Kept only because ``benchmarks/e2e/adapters.py``
        still lists it among the traced entry points (the queue recycled
        fired cells through it once); it goes when that list does."""

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
        kept = [entry for entry in self._heap if not is_cancelled(entry)]
        self._cancelled -= len(self._heap) - len(kept)
        heapq.heapify(kept)
        self._heap = kept

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
