"""The simulation kernel: virtual time plus the event loop.

``Simulator`` owns the global virtual clock.  Everything else (networks,
parties, adversaries, timers) schedules callbacks on it.  Time is a float
in abstract "delay units"; the paper's ``Delta`` and ``delta`` are plain
parameters in those units.
"""
from __future__ import annotations

from typing import Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.timeline import BucketTimeline


class Simulator:
    """Deterministic discrete-event simulation kernel.

    ``recycle_events=True`` turns on the event queue's arena mode:
    transient events (message deliveries) have their cells recycled after
    firing.  The world enables it for the ``perf`` instrumentation preset
    only, so under ``full`` instrumentation event identity semantics are
    untouched.

    The queue is the calendar timeline of :mod:`repro.sim.timeline` — O(1)
    FIFO appends per quantized instant.  Its base class, the binary-heap
    :class:`~repro.sim.events.EventQueue`, replays byte-identical
    schedules for the same pushes and is what the parity tests compare
    it against.
    """

    def __init__(self, *, recycle_events: bool = False) -> None:
        self._queue: EventQueue = BucketTimeline(recycle=recycle_events)
        self._now = 0.0
        self._running = False
        self._events_processed = 0

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
        paths, and parity gates can keep comparing it across modes.
        """
        return self._events_processed

    def note_logical_events(self, extra: int) -> None:
        """Account ``extra`` logical events folded into the current one.

        Called by the network when one delivery-run event stands in for
        ``extra + 1`` per-copy delivery events.
        """
        self._events_processed += extra

    @property
    def events_recycled(self) -> int:
        """Transient event cells reused from the arena freelist."""
        return self._queue.events_recycled

    @property
    def bucket_appends(self) -> int:
        """Events appended to calendar buckets."""
        return self._queue.bucket_appends

    @property
    def heap_pushes_avoided(self) -> int:
        """Pushes that skipped an O(log n) heap sift because their
        instant's bucket already existed."""
        return self._queue.heap_pushes_avoided

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
    ) -> Event:
        """Schedule ``action(*args)`` at absolute virtual time ``time``.

        ``transient=True`` declares that the caller keeps no handle to the
        returned event (so its cell may be recycled after it fires).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        return self._queue.push(
            time, action, priority=priority, order_key=order_key,
            label=label, args=args, transient=transient,
        )

    def schedule_batch(
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
        """Schedule ``action(*args)`` at ``time`` for every tuple in
        ``args_seq`` in one queue call (one bucket lookup on the calendar
        backend).  Equivalent to a loop of :meth:`schedule_at` — same
        sequence numbers, same firing order — but returns no handles, so
        it is for fire-and-forget work (message fan-outs); returns the
        number of events scheduled.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        return self._queue.push_batch(
            time, action, args_seq, priority=priority, order_key=order_key,
            label=label, transient=transient,
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
        virtual time.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        processed = 0
        try:
            if until is None and max_events is None:
                # Run-to-quiescence fast path: no horizon to respect, so
                # pop directly instead of peeking then popping (one heap
                # probe per event instead of two).
                pop = self._queue.pop
                release = self._queue.release
                while True:
                    event = pop()
                    if event is None:
                        break
                    self._now = event.time
                    args = event.args
                    if args:
                        event.action(*args)
                    else:
                        event.action()
                    self._events_processed += 1
                    if event.transient:
                        release(event)
                return self._now
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                event = self._queue.pop()
                assert event is not None
                self._now = event.time
                args = event.args
                if args:
                    event.action(*args)
                else:
                    event.action()
                processed += 1
                self._events_processed += 1
                if event.transient:
                    self._queue.release(event)
        finally:
            self._running = False
        return self._now

    def advance_now(self, time: float) -> None:
        """Jump virtual time forward without processing any event.

        The sharded worker stamps a cross-shard delivery's instant with
        this before injecting the copies directly (bypassing the
        timeline): ``run(until=...)`` stops short of the horizon when
        the local queue drains first, but the handlers invoked by the
        delivery read ``now`` to price their own sends.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move time backwards from {self._now} to {time}"
            )
        self._now = time

    def run_before(self, horizon: float) -> float:
        """Process events strictly before ``horizon``; return final time.

        The sharded worker's window step: the coordinator's lookahead
        guarantees no cross-shard traffic can land inside the window, so
        the whole span runs in one call.  Unlike ``run(until=...)``,
        ``now`` is left at the last processed event's instant — never
        advanced to the horizon itself — so the merged ``final_time``
        still reports the last real event.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        try:
            peek = self._queue.peek_time
            pop = self._queue.pop
            release = self._queue.release
            while True:
                next_time = peek()
                if next_time is None or next_time >= horizon:
                    break
                event = pop()
                assert event is not None
                self._now = event.time
                args = event.args
                if args:
                    event.action(*args)
                else:
                    event.action()
                self._events_processed += 1
                if event.transient:
                    release(event)
        finally:
            self._running = False
        return self._now

    def next_event_time(self) -> float | None:
        """Time of the earliest queued event, or ``None`` when empty.

        The sharded coordinator's barrier probe: each worker reports its
        local timeline's head so the coordinator can pick the global next
        instant.
        """
        return self._queue.peek_time()

    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled)."""
        return len(self._queue)
