"""Bucketed calendar timeline: the O(1)-append event-queue backend.

Profiling perf-mode BRB at n >= 301 put the heap kernel itself —
``heappush``/``heappop`` per delivery — at ~55% of wall time once digests
and quorum churn were gone.  The workload is tailor-made for a calendar
queue: delivery times are discretized through :func:`repro.sim.clock.
quantize`, and a multicast's whole fan-out typically shares **one**
deliver_time (every fixed/GST-stable policy), so most events land on a
small set of live instants.

:class:`BucketTimeline` therefore keeps one FIFO *bucket* (a plain list)
per distinct quantized instant, in a dict keyed by time, plus a small
min-heap over the live instants only.  A push is a dict probe and a list
append — O(1), no sift — and the per-instant heap is touched once per
*instant*, not once per event.  Within a bucket, entries sort lazily by
``(priority, order_key, seq)`` when the bucket is first drained, so the
observable pop order — ``(time, priority, order_key, seq)``, with ``seq``
the global insertion sequence — is **byte-identical** to the heap
queue's in every instrumentation preset; `tests/sim/test_timeline.py`
drives both queues through randomized schedules to pin that down.

Same-instant pushes that arrive *while their instant is being drained*
(every multicast's self-delivery fires at ``now``) are merge-inserted
into the sorted remainder of the open bucket, exactly where the heap
would have surfaced them.  Cancellation stays lazy (flagged cells are
skipped — and, under the arena, recycled — when they surface), and the
bulk compaction trigger inherited from :class:`~repro.sim.events.
EventQueue` rebuilds the buckets without dead entries.

The queue-facing API is exactly :class:`~repro.sim.events.EventQueue`'s
(it subclasses it, replacing only the ordering structure).
:class:`~repro.sim.scheduler.Simulator` always runs on the calendar;
the heap base class doubles as the reference semantics the parity
tests compare it against.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Callable

from repro.sim.events import Event, EventQueue

#: A bucket entry.  The plain-data prefix makes sorts and bisects run in
#: C, and ``seq`` uniqueness means comparisons never reach the Event.
_Entry = tuple[int, bytes, int, Event]


class BucketTimeline(EventQueue):
    """Calendar-queue event backend: FIFO buckets keyed by instant.

    State invariants:

    * ``_buckets[t]`` holds the not-yet-opened entries for instant ``t``
      in raw append order; ``t`` appears in the ``_times`` heap while its
      bucket exists (stale heap times whose bucket was emptied by
      compaction are skipped at open time);
    * ``_current`` is the sorted entry list of the instant being drained
      (``None`` between instants) and ``_idx`` the next position in it;
      pushes at ``_current_time`` merge-insert into the undrained tail;
    * ``_live`` / ``_cancelled`` bookkeeping is inherited — ``len()``
      stays O(1).
    """

    def __init__(self, *, recycle: bool = False) -> None:
        super().__init__(recycle=recycle)
        self._buckets: dict[float, list[_Entry]] = {}
        self._times: list[float] = []
        self._current: list[_Entry] | None = None
        self._current_time = 0.0
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
    ) -> Event:
        seq = next(self._counter)
        event = self._obtain_cell(
            time, priority, order_key, seq, action, args, transient, label
        )
        entry = (priority, order_key, seq, event)
        current = self._current
        if current is not None and time == self._current_time:
            # The instant is open: keep its undrained tail sorted so the
            # new entry fires exactly where the heap would surface it.
            insort(current, entry, lo=self._idx)
            self.heap_pushes_avoided += 1
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [entry]
                heapq.heappush(self._times, time)
            else:
                bucket.append(entry)
                self.heap_pushes_avoided += 1
        self.bucket_appends += 1
        self._live += 1
        return event

    def push_batch(
        self,
        time: float,
        action: Callable[..., None],
        args_seq: list[tuple],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        transient: bool = False,
    ) -> int:
        """One bucket lookup for a whole same-instant fan-out.

        All entries share the ``(priority, order_key)`` prefix and get
        consecutive fresh ``seq`` numbers, so they form one contiguous
        ascending run — even the merge-into-open-instant case is a
        single bisect plus a slice assignment.

        The cell-filling loop is inlined (instead of calling
        ``_obtain_cell`` per copy): at n >= 301 the fan-out allocates
        ~n cells per multicast and the per-call overhead was the largest
        surviving slice of the push path.
        """
        counter = self._counter
        entries: list[_Entry] = []
        append = entries.append
        if transient and self._recycle:
            free = self._free
            reused = 0
            for args in args_seq:
                seq = next(counter)
                if free:
                    event = free.pop()
                    event.time = time
                    event.priority = priority
                    event.order_key = order_key
                    event.seq = seq
                    event.action = action
                    event.args = args
                    event.cancelled = False  # see _obtain_cell
                    event.label = label
                    event.queue = self
                    reused += 1
                else:
                    event = Event(
                        time, priority, order_key, seq, action, args,
                        transient=True, label=label, queue=self,
                    )
                append((priority, order_key, seq, event))
            self.events_recycled += reused
        else:
            for args in args_seq:
                seq = next(counter)
                append((
                    priority, order_key, seq,
                    Event(
                        time, priority, order_key, seq, action, args,
                        label=label, queue=self,
                    ),
                ))
        count = len(entries)
        if not count:
            return 0
        current = self._current
        if current is not None and time == self._current_time:
            pos = bisect_left(current, entries[0], lo=self._idx)
            current[pos:pos] = entries
            self.heap_pushes_avoided += count
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = entries
                heapq.heappush(self._times, time)
                self.heap_pushes_avoided += count - 1
            else:
                bucket.extend(entries)
                self.heap_pushes_avoided += count
        self.bucket_appends += count
        self._live += count
        return count

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #

    def pop(self) -> Event | None:
        while True:
            current = self._current
            if current is not None:
                idx = self._idx
                if idx >= len(current):
                    self._current = None
                    continue
                times = self._times
                if times and times[0] < self._current_time:
                    # An earlier instant entered the calendar after this
                    # bucket opened (out-of-order push): park the
                    # undrained tail back as a bucket and reopen later.
                    self._park_current()
                    continue
                self._idx = idx + 1
                event = current[idx][3]
                if event.cancelled:
                    self._discard_cancelled(event)
                    continue
                event.queue = None
                self._live -= 1
                return event
            if not self._open_next_bucket():
                return None

    def peek_time(self) -> float | None:
        current_t = None
        current = self._current
        if current is not None:
            # Skip (and, under the arena, recycle) dead entries at the
            # drain front so a fully-cancelled tail never reports a time.
            idx = self._idx
            size = len(current)
            while idx < size and current[idx][3].cancelled:
                self._discard_cancelled(current[idx][3])
                idx += 1
            self._idx = idx
            if idx < size:
                current_t = self._current_time
            else:
                self._current = None
        calendar_t = self._earliest_calendar_time()
        if current_t is None:
            return calendar_t
        if calendar_t is None or current_t <= calendar_t:
            return current_t
        return calendar_t

    def _open_next_bucket(self) -> bool:
        """Move the earliest live instant's bucket into drain position."""
        times = self._times
        buckets = self._buckets
        while times:
            time = heapq.heappop(times)
            bucket = buckets.pop(time, None)
            if bucket is None:
                continue  # stale instant: bucket emptied by compaction
            if len(bucket) > 1:
                bucket.sort()
            self._current = bucket
            self._current_time = time
            self._idx = 0
            return True
        return False

    def _park_current(self) -> None:
        """Return the open bucket's undrained tail to the calendar."""
        assert self._current is not None
        tail = self._current[self._idx:]
        self._current = None
        if tail:
            # No bucket can exist at this instant while it is open —
            # same-time pushes merged into ``_current``.
            self._buckets[self._current_time] = tail
            heapq.heappush(self._times, self._current_time)

    def _earliest_calendar_time(self) -> float | None:
        """Earliest instant whose bucket still holds a live entry.

        Prunes stale heap times and pops cancelled entries off bucket
        *tails* (order within an unopened bucket is irrelevant), so the
        check is O(1) amortized rather than a bucket scan per peek.
        """
        times = self._times
        buckets = self._buckets
        while times:
            time = times[0]
            bucket = buckets.get(time)
            while bucket:
                event = bucket[-1][3]
                if not event.cancelled:
                    return time
                bucket.pop()
                self._discard_cancelled(event)
            if bucket is not None:
                del buckets[time]
            heapq.heappop(times)
        return None

    # ------------------------------------------------------------------ #
    # cancellation compaction
    # ------------------------------------------------------------------ #

    def _compact(self) -> None:
        """Filter cancelled entries out of every bucket (amortized O(live)).

        Emptied buckets are dropped; their heap times go stale and are
        skipped at open time.  The open bucket's undrained tail is
        filtered too (its sorted order survives filtering), so a burst
        of cancellations inside one instant cannot re-trigger compaction
        on every subsequent cancel.
        """
        discard = self._discard_cancelled
        buckets = self._buckets
        for time in list(buckets):
            bucket = buckets[time]
            live = [e for e in bucket if not e[3].cancelled]
            if len(live) != len(bucket):
                for entry in bucket:
                    if entry[3].cancelled:
                        discard(entry[3])
                if live:
                    buckets[time] = live
                else:
                    del buckets[time]
        current = self._current
        if current is not None:
            tail = current[self._idx:]
            live = [e for e in tail if not e[3].cancelled]
            if len(live) != len(tail):
                for entry in tail:
                    if entry[3].cancelled:
                        discard(entry[3])
            self._current = live
            self._idx = 0
