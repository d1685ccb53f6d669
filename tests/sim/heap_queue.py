"""The reference event queue: one binary heap over every entry.

The oracle the calendar :class:`~repro.sim.events.EventQueue` must
replay.  It keeps the production queue's entry construction
(:meth:`~repro.sim.events.EventQueue.push`, the ``seq`` counter) and
live/cancelled bookkeeping, and replaces everything that orders entries
with a ``heapq``: written per copy and per event, with nothing batched,
windowed or deferred — a fan-out's copies are built and pushed one by
one the moment it is scheduled.  ``test_timeline.py`` drives both queues
with the same scripts; the ``reference_queue`` fixture (``conftest.py``)
swaps this class into every world built inside it, forked shard workers
included.
"""
from __future__ import annotations

import heapq
from typing import Any, Callable, Sequence

from repro.sim.events import Entry, EventQueue, is_cancelled
from repro.types import INF


class HeapQueue(EventQueue):
    """A deterministic min-heap of entries (``width`` is ignored)."""

    def __init__(self, *, width: float = 0.0) -> None:
        super().__init__()
        self._heap: list[Entry] = []

    def _insert(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

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
        """Exactly a loop of transient :meth:`push`, one per copy, each
        built and pushed at once: the oracle defers nothing."""
        for i, time in enumerate(times):
            args = (
                sender, recipients[i], payload,
                None if msg_ids is None else msg_ids[i],
            )
            if transfers is not None:
                args += (transfers[i],)
            self.push(
                time, action, priority=priority, order_key=order_key,
                args=args, transient=True,
            )
        return len(times)

    def pop(self, stop: float = INF) -> Entry | None:
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
        heap = self._heap
        while heap and is_cancelled(heap[0]):
            heapq.heappop(heap)
            self._cancelled -= 1
        if heap:
            return heap[0][0]
        return None

    def _compact(self) -> None:
        kept = [entry for entry in self._heap if not is_cancelled(entry)]
        self._cancelled -= len(self._heap) - len(kept)
        heapq.heapify(kept)
        self._heap = kept
