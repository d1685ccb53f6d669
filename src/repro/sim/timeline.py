"""Lookahead-window calendar: the event queue every simulator runs on.

A delay policy that guarantees a minimum delay ``L``
(:meth:`~repro.sim.delays.DelayPolicy.min_delay`) makes the schedule
*closed per window*: while the clock is inside ``[kL, (k+1)L)`` nothing a
handler sends can land before ``(k+1)L``, so the events of a window are
all known by the time the window is reached.  :class:`BucketTimeline`
therefore buckets events by window index ``floor(time / L)`` instead of
ordering them one by one:

* a push into a window that is not being drained is a dict probe and a
  list append of the push's entry — O(1), no sift, and for a handle-free
  push (every message delivery) nothing allocated but the
  ``(time, priority, order_key, seq, action, args)`` tuple itself;
* the only ordered structure is a min-heap of *window indices*, touched
  once per window, not once per event;
* a window is sorted **once**, in C, when the drain reaches it (the
  plain-data prefix of an entry decides every comparison), and is then
  walked by index;
* only a push that lands *inside the window being drained* — a
  multicast's zero-delay self-delivery, a timer, a Byzantine
  ``delay_override`` below ``L``, an instant quantization pulled a hair
  under ``send + L`` — pays a ``bisect.insort`` into the undrained tail:
  an O(log w) search plus an O(w) pointer move for a window of ``w``
  entries.

The lookahead is a *performance* assumption only.  Ordering never relies
on it: an in-window push is merge-inserted exactly where the heap would
have surfaced it, and a push into a window *earlier* than the open one
(possible after a peek opened the next window while the clock was still
behind it) parks the open window back among the closed ones.  The
observable pop order — ``(time, priority, order_key, seq)``, ``seq`` the
global insertion sequence — is therefore **byte-identical** to the heap
:class:`~repro.sim.events.EventQueue`'s for every width, which
``tests/sim/test_timeline.py`` pins with randomized scripts over widths
from 0 to wider than the whole schedule.

``L == 0`` (a policy with no guaranteed minimum: the
:class:`~repro.sim.delays.DelayPolicy` default, ``FunctionDelay``,
``UniformDelay(0.0, ...)``) degenerates through the same code to one
window per distinct instant: the index is the instant itself.  A fixed
delay is the other degenerate case, one instant per window.

Cancellation stays lazy (entries whose handle was cancelled are skipped
when the drain reaches them), and the bulk compaction trigger inherited
from :class:`~repro.sim.events.EventQueue` filters the windows in
place.
"""
from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Sequence

from repro.sim.events import Entry, EventQueue, is_cancelled
from repro.types import INF


class BucketTimeline(EventQueue):
    """Calendar-queue event backend: one bucket per lookahead window.

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
    * ``_live`` / ``_cancelled`` bookkeeping is inherited — ``len()``
      stays O(1).

    The entry's plain-data prefix makes sorts and bisects run in C, and
    ``seq`` uniqueness means comparisons never reach ``action``.

    Counters: ``bucket_appends`` counts every push; ``heap_pushes_avoided``
    the pushes that cost no sift of the window heap — everything but the
    first entry of a window, in-window inserts included.
    """

    def __init__(self, *, width: float = 0.0) -> None:
        super().__init__()
        self._width = width
        self._windows: dict[float, list[Entry]] = {}
        self._keys: list[float] = []
        self._open: list[Entry] = []
        self._open_key = -INF
        self._idx = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

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
        """A whole fan-out, one instant per copy, in one call.

        The loop of transient :meth:`push` with everything per-call
        hoisted out and :meth:`_insert` inlined: a fan-out at n >= 301
        queues ~n entries and the per-call overhead was the largest
        surviving slice of the push path.
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

    # ------------------------------------------------------------------ #
    # cancellation compaction
    # ------------------------------------------------------------------ #

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
