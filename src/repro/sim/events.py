"""The event queue: a lookahead-window calendar.

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

A delay policy that guarantees a minimum delay ``L``
(:meth:`~repro.sim.delays.DelayPolicy.min_delay`) makes the schedule
*closed per window*: while the clock is inside ``[kL, (k+1)L)`` nothing a
handler sends can land before ``(k+1)L``, so the events of a window are
all known by the time the window is reached.  :class:`EventQueue`
therefore buckets entries by window index ``floor(time / L)`` instead of
ordering them one by one:

* a push into a window that is not being drained is a dict probe and a
  list append of the push's entry — O(1), no sift;
* the only ordered structure is a min-heap of *window indices*, touched
  once per window, not once per event;
* a window is sorted **once**, in C, when the drain reaches it, and is
  then walked by index;
* only a push that lands *inside the window being drained* — a
  multicast's zero-delay self-delivery, a timer, a Byzantine
  ``delay_override`` below ``L``, an instant quantization pulled a hair
  under ``send + L`` — pays a ``bisect.insort`` into the undrained tail:
  an O(log w) search plus an O(w) pointer move for a window of ``w``
  entries.

The lookahead is a *performance* assumption only.  Ordering never relies
on it: an in-window push is merge-inserted exactly where a binary heap
would have surfaced it, and a push into a window *earlier* than the open
one (possible after a peek opened the next window while the clock was
still behind it) parks the open window back among the closed ones.  The
observable pop order — ``(time, priority, order_key, seq)`` — is
therefore that of a plain binary heap over the same pushes for every
width.  ``tests/sim/heap_queue.py`` holds that heap as the oracle, and
``tests/sim/test_timeline.py`` drives the calendar against it with
randomized scripts over widths from 0 to wider than the whole schedule.

``L == 0`` (a policy with no guaranteed minimum: the
:class:`~repro.sim.delays.DelayPolicy` default, ``FunctionDelay``,
``UniformDelay(0.0, ...)``) degenerates through the same code to one
window per distinct instant: the window key is the instant itself, so
the queue only ever compares instants and never divides them.  A fixed
delay is the other degenerate case, one instant per window.

Cancellation is lazy: :meth:`Event.cancel` only flags the handle, and the
queue skips flagged entries when the drain reaches them (or filters them
out in a bulk compaction once they outnumber live ones).  Live-entry
bookkeeping is kept incrementally (``_live``), never a queue scan.
"""
from __future__ import annotations

import heapq
import itertools
from bisect import insort
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
    #: Back-reference to the owning queue while the event sits in it;
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
    """Calendar event queue: one bucket per lookahead window.

    ``width`` is the lookahead ``L`` (``0`` = one window per instant).
    State invariants:

    * ``_windows[k]`` holds the entries of *closed* window ``k`` in raw
      append order, and ``k`` sits in the ``_keys`` min-heap exactly
      while that list exists (compaction may leave it empty);
    * ``_open`` is the window being drained, sorted; ``_open[:_idx]`` is
      already consumed and never looked at again (a popped slot is
      cleared, so the entry's ``args`` are not pinned until the window
      closes), ``_open[_idx:]`` is the undrained tail an in-window push
      is ``insort``-ed into.
      ``_open_key`` is its index (``-INF`` while nothing is open) and is
      smaller than every closed window's: opening always takes the
      smallest index, and a push below it parks the open window first.
      A drained-out window stays open until the next one is needed, so
      a late push into it is still an in-window insert;
    * ``_live`` counts queued entries whose handle (if any) is not
      cancelled, ``_cancelled`` the cancelled ones not yet dropped.

    Counters: ``bucket_appends`` counts every push; ``heap_pushes_avoided``
    the pushes that cost no sift of the window heap — everything but the
    first entry of a window, in-window inserts included.
    """

    def __init__(self, *, width: float = 0.0) -> None:
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0
        self.bucket_appends = 0
        self.heap_pushes_avoided = 0
        self._width = width
        self._windows: dict[float, list[Entry]] = {}
        self._keys: list[float] = []
        self._open: list[Entry] = []
        self._open_key = -INF
        self._idx = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

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
            event = None
            self._insert((time, priority, order_key, seq, action, args))
        else:
            event = Event(time, priority, order_key, seq, label=label,
                          queue=self)
            self._insert((time, priority, order_key, seq, action, args, event))
        self._live += 1
        return event

    def _insert(self, entry: Entry) -> None:
        time = entry[0]
        width = self._width
        key = time // width if width else time
        window = self._windows.get(key)
        if window is None:
            self._admit(key, entry)
        else:
            window.append(entry)
        self.heap_pushes_avoided += 1
        self.bucket_appends += 1

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
        ``(priority, order_key)`` prefix; returns the number scheduled.

        Exactly a loop of transient :meth:`push` (same ``seq``
        assignment, same pop order) with everything per-call hoisted out
        and :meth:`_insert` inlined: a whole fan-out, one instant per
        copy, crosses the queue boundary once — at n >= 301 a fan-out
        queues ~n entries and the per-call overhead was the largest
        surviving slice of the push path.  No handles are returned.
        """
        counter = self._counter
        width = self._width
        windows = self._windows
        for time, args in zip(times, args_seq, strict=True):
            entry = (time, priority, order_key, next(counter), action, args)
            key = time // width if width else time
            window = windows.get(key)
            if window is None:
                self._admit(key, entry)
            else:
                window.append(entry)
        count = len(args_seq)
        self.heap_pushes_avoided += count
        self.bucket_appends += count
        self._live += count
        return count

    def _admit(self, key: float, entry: Entry) -> None:
        """Place an entry whose window is not among the closed ones."""
        if key == self._open_key:
            # Keep the undrained tail sorted so the entry fires exactly
            # where the heap would surface it.
            insort(self._open, entry, lo=self._idx)
            return
        if key < self._open_key:
            self._park()
        self._windows[key] = [entry]
        heapq.heappush(self._keys, key)
        self.heap_pushes_avoided -= 1  # the one sift a window costs

    def _park(self) -> None:
        """Return the open window's undrained tail to the closed ones."""
        tail = self._open[self._idx:]
        if tail:
            self._windows[self._open_key] = tail
            heapq.heappush(self._keys, self._open_key)
        self._open = []
        self._open_key = -INF
        self._idx = 0

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #

    def pop(self, stop: float = INF) -> Entry | None:
        """Remove and return the earliest live entry if it is due strictly
        before ``stop``; ``None`` otherwise (nothing is removed then but
        cancelled entries that surfaced on the way)."""
        while True:
            window = self._open
            idx = self._idx
            if idx == len(window):
                if not self._open_next():
                    return None
                continue
            entry = window[idx]
            if entry[0] >= stop:
                return None
            self._idx = idx + 1
            window[idx] = None  # a fired copy's args die with it
            if len(entry) > 6:
                event = entry[6]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.queue = None
            self._live -= 1
            return entry

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        while True:
            window = self._open
            idx = self._idx
            if idx == len(window):
                if not self._open_next():
                    return None
                continue
            if not is_cancelled(window[idx]):
                return window[idx][0]
            # Skip dead entries at the drain front so a fully-cancelled
            # tail never reports a time.
            self._idx = idx + 1
            self._cancelled -= 1

    def _open_next(self) -> bool:
        """Sort the earliest closed window into drain position."""
        if not self._keys:
            return False
        key = heapq.heappop(self._keys)
        window = self._windows.pop(key)
        window.sort()
        self._open = window
        self._open_key = key
        self._idx = 0
        return True

    def release(self, entry: Entry) -> None:
        """Does nothing and is never called: a fired entry needs no
        bookkeeping.  Kept only because ``benchmarks/e2e/adapters.py``
        still lists it among the traced entry points (the queue recycled
        fired cells through it once); it goes when that list does."""

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #

    def _note_cancel(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel` (in-queue only)."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Filter cancelled entries out of every window, in place
        (amortized O(live)): the open window's undrained tail keeps its
        sorted order, and a burst of cancellations inside one window
        cannot re-trigger compaction on every subsequent cancel."""
        pending = [(window, 0) for window in self._windows.values()]
        pending.append((self._open, self._idx))
        for window, start in pending:
            live = [e for e in window[start:] if not is_cancelled(e)]
            self._cancelled -= len(window) - start - len(live)
            window[start:] = live
