"""The event queue: a lookahead-window calendar.

Events are ordered by ``(time, priority, order_key, seq)`` where ``seq`` is
the insertion sequence number.  The sequence number makes tie-breaking fully
deterministic: two events scheduled for the same instant fire in the order
they were scheduled, so a run replays event for event and its view digests
(the behaviour fingerprints of ``tests/fingerprints.json``) repeat exactly.

``order_key`` canonicalizes ties: two events at the same instant and
priority fire in ``order_key`` order (then insertion order).  Message
deliveries use the payload digest, so simultaneous deliveries are
processed in a content-determined order that is invariant across the
paired executions of the lower-bound constructions — the model treats
same-instant delivery order as adversary-chosen anyway.

A queue pops plain-data *entries*, one per scheduled callback:

* ``(time, priority, order_key, seq, action, args)`` for a push that
  returns no handle — every message delivery (a fan-out's
  :meth:`EventQueue.push_batch`, a folded run, a self-delivery) and every
  other ``transient=True`` push.  Nothing can cancel such a callback, so
  the tuple is all that is allocated for it — and for a fan-out's copy
  not even that until its window opens (see below);
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
* a fan-out (:meth:`EventQueue.push_batch`) into such a window queues no
  entry at all: the fan-out's copy indices are ordered by window once,
  into one compact index array, and each window it reaches keeps one
  *span* of that array — ``(batch, order, lo, hi)``, the fan-out's
  shared fields and typed columns held once — whose copies' entries are
  built only when the window opens;
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

Only the open window therefore holds a tuple per in-flight copy; a
closed window's copy is no Python object at all, only its slots in the
fan-out's columns — an 8-byte instant in an ``array('d')``, a recipient
in a ``range`` or an integer array — and 4 bytes of the fan-out's index
array, plus a share of the window's span.  A fan-out reserves its
``seq`` numbers as one contiguous block when it is pushed, so a copy
built later, when its window opens, carries the number a loop of single
pushes would have given it, and nothing pushed in between can overtake
it on a tie.

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

Building a window's copies only when it opens is also where copies
nobody can read are dropped.  During a drain the simulator marks as
culling (:attr:`EventQueue.cull`, see
:meth:`~repro.sim.scheduler.Simulator.cull_copies`; every fan-out there
is a network delivery), a span builds only the copies whose recipient
has not terminated; the rest are counted in ``copies_culled`` and are never
entries.  A copy built earlier (at or below the open window, or on a
zero-width calendar) fires, and its terminated recipient drops it.

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
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, Union

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


def _build(batch: tuple, indices: Iterable[int]) -> list[Entry]:
    """The entries of a fan-out's copies ``indices`` (see
    :meth:`EventQueue.push_batch`): one comprehension per column layout,
    so building a copy is a tuple display and no call."""
    (times, priority, order_key, seq0, action,
     sender, recipients, payload, msg_ids, transfers) = batch
    if transfers is not None:
        if msg_ids is None:
            return [
                (times[i], priority, order_key, seq0 + i, action,
                 (sender, recipients[i], payload, None, transfers[i]))
                for i in indices
            ]
        return [
            (times[i], priority, order_key, seq0 + i, action,
             (sender, recipients[i], payload, msg_ids[i], transfers[i]))
            for i in indices
        ]
    if msg_ids is not None:
        return [
            (times[i], priority, order_key, seq0 + i, action,
             (sender, recipients[i], payload, msg_ids[i]))
            for i in indices
        ]
    return [
        (times[i], priority, order_key, seq0 + i, action,
         (sender, recipients[i], payload, None))
        for i in indices
    ]


class EventQueue:
    """Calendar event queue: one bucket per lookahead window.

    ``width`` is the lookahead ``L`` (``0`` = one window per instant).
    State invariants:

    * ``_windows[k]`` holds the entries of *closed* window ``k`` in raw
      append order, and ``k`` sits in the ``_keys`` min-heap exactly
      while that list exists (compaction may leave it empty, and a
      window whose copies are all deferred has an empty one);
    * ``_deferred[k]``, when present, holds the *spans* of closed window
      ``k``: ``(batch, order, lo, hi)``, one per fan-out with copies
      there, whose copies are ``order[lo:hi]`` (see :meth:`push_batch`).
      A key in ``_deferred`` is always one of ``_windows``, so opening a
      window finds its spans with one dict lookup;
    * ``_open`` is the window being drained, sorted; ``_open[:_idx]`` is
      already consumed and never looked at again (a popped slot is
      cleared, so the entry's ``args`` are not pinned until the window
      closes), ``_open[_idx:]`` is the undrained tail an in-window push
      is ``insort``-ed into.
      ``_open_key`` is its index (``-INF`` while nothing is open) and is
      smaller than every closed window's: opening always takes the
      smallest index, and a push below it parks the open window first.
      A drained-out window stays open until the next one is needed, so
      a late push into it is still an in-window insert.  The open
      window has no spans: they are built into entries when it opens;
    * ``_live`` counts queued copies whose handle (if any) is not
      cancelled, ``_cancelled`` the cancelled ones not yet dropped.

    Counters: ``bucket_appends`` counts every push (every copy of a
    batch); ``heap_pushes_avoided`` the pushes that cost no sift of the
    window heap — everything but the first copy of a window, in-window
    inserts included; ``copies_culled`` the deferred copies a culling
    drain never built (they stay in the other two: they were pushed).
    """

    def __init__(self, *, width: float = 0.0) -> None:
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self.bucket_appends = 0
        self.heap_pushes_avoided = 0
        self._width = width
        self._windows: dict[float, list[Entry]] = {}
        self._deferred: dict[
            float, list[tuple[tuple, array, int, int]]
        ] = {}
        self._keys: list[float] = []
        self._open: list[Entry] = []
        self._open_key = -INF
        self._idx = 0
        #: ``(terminated, note)`` while a drain culls (see
        #: :meth:`_open_next`), ``None`` otherwise.
        self.cull: tuple[bytearray, Callable[[int], None]] | None = None
        self.copies_culled = 0

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
        seq = self._seq
        self._seq = seq + 1
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
        sender: Any,
        recipients: Sequence[Any],
        payload: Any,
        msg_ids: Sequence[Any] | None = None,
        transfers: Sequence[Any] | None = None,
        *,
        priority: int = 0,
        order_key: bytes = b"",
    ) -> int:
        """Schedule one fan-out: copy ``i`` fires ``action(sender,
        recipients[i], payload, msg_id)`` at ``times[i]``, where
        ``msg_id`` is ``msg_ids[i]`` (``None`` without ``msg_ids``) and
        ``transfers[i]`` is passed fifth when ``transfers`` is given.
        All copies share one ``(priority, order_key)`` prefix; returns
        the number scheduled.

        The same schedule as a loop of transient :meth:`push` — same
        ``seq`` numbers, same pop order, same counters — but the fan-out
        is taken as shared fields plus per-copy columns (any sequences;
        the network hands over an ``array('d')`` of instants and a
        ``range`` or integer array of recipients), and the queue keeps
        those columns instead of a tuple per copy.  The copy indices are
        sorted by window once (stable, so by index within a window)
        into one compact index array, ``order``.  The copies landing in
        the open window, or below it, come first in it; they are built
        and admitted at once, in index order, as single pushes would
        be.  Every other copy is *deferred*: a closed window the fan-out
        reaches gets one span, ``(batch, order, lo, hi)``, found by
        bisecting the sorted window keys, and :meth:`_open_next` builds
        the entries of ``order[lo:hi]`` when it opens that window.  The
        columns must therefore not change once handed over.

        ``seq`` numbers are reserved here, as one contiguous block:
        copy ``i`` is ``seq0 + i`` whenever its entry is built, so a
        later push that lands on the same ``(time, priority,
        order_key)`` still pops after it.

        A zero-width calendar builds every copy at once: each of its
        windows is one instant, so with continuous delays a span would
        hold about one copy and cost more than the entry it defers.
        The choice is made by ``width``, which the queue fixes at
        construction, so a run's layout does not depend on its
        schedule.
        """
        count = len(times)
        for column in (recipients, msg_ids, transfers):
            if column is not None and len(column) != count:
                raise ValueError(
                    f"{count} instants for a column of {len(column)}"
                )
        seq0 = self._seq
        self._seq = seq0 + count
        batch = (
            times, priority, order_key, seq0, action,
            sender, recipients, payload, msg_ids, transfers,
        )
        width = self._width
        windows = self._windows
        if width:
            keys = [time // width for time in times]
            # Copy indices by window, then by index (the sort is stable),
            # and the window keys in the same order: a window's copies
            # are one span ``order[lo:hi]``.
            order = sorted(range(count), key=keys.__getitem__)
            keys.sort()
            # The copies at or below the open window come first; they
            # are admitted in index order, as a loop of pushes would.
            lo = bisect_right(keys, self._open_key)
            entries = _build(batch, sorted(order[:lo])) if lo else ()
        else:
            lo = count
            entries = _build(batch, range(count))
        for entry in entries:
            time = entry[0]
            key = time // width if width else time
            window = windows.get(key)
            if window is None:
                self._admit(key, entry)
            else:
                window.append(entry)
        if lo < count:
            order = array("I", order)  # 4 bytes per copy
            deferred = self._deferred
            while lo < count:
                key = keys[lo]
                hi = bisect_right(keys, key, lo)
                span = (batch, order, lo, hi)
                lo = hi
                pending = deferred.get(key)
                if pending is not None:
                    pending.append(span)
                    continue
                deferred[key] = [span]
                if key not in windows:
                    # A window's first copy: the one sift it costs.
                    windows[key] = []
                    heapq.heappush(self._keys, key)
                    self.heap_pushes_avoided -= 1
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
        """Sort the earliest closed window into drain position.

        This is where a deferred copy becomes an entry: the window's
        spans, found with one lookup in ``_deferred``, are built — copy
        ``i`` of ``order[lo:hi]`` from the fan-out's columns, with the
        ``seq`` its fan-out reserved — and appended to the entries
        pushed there singly, and the whole window is sorted once.  A
        fan-out's columns and index array are freed when the last
        window holding a span of it opens.

        While a drain culls (:attr:`cull` is ``(terminated, note)``),
        a span builds only the copies whose recipient has no byte set in
        ``terminated``; the
        others never become entries, and are counted in
        ``copies_culled`` and reported as ``note(count)`` per span.
        """
        if not self._keys:
            return False
        key = heapq.heappop(self._keys)
        window = self._windows.pop(key)
        spans = self._deferred.pop(key, None)
        if spans is not None:
            cull = self.cull
            for batch, order, lo, hi in spans:
                indices = order[lo:hi]
                if cull is not None:
                    terminated = cull[0]
                    recipients = batch[6]
                    live = [
                        i for i in indices if not terminated[recipients[i]]
                    ]
                    culled = len(indices) - len(live)
                    if culled:
                        self.copies_culled += culled
                        self._live -= culled
                        cull[1](culled)
                        indices = live
                window += _build(batch, indices)
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
        cannot re-trigger compaction on every subsequent cancel.  A
        deferred copy has no handle, so spans are left as they are."""
        pending = [(window, 0) for window in self._windows.values()]
        pending.append((self._open, self._idx))
        for window, start in pending:
            live = [e for e in window[start:] if not is_cancelled(e)]
            self._cancelled -= len(window) - start - len(live)
            window[start:] = live
