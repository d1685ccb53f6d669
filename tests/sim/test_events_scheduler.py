"""Tests for the event queue and simulation kernel."""
import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.scheduler import Simulator


def _fire_all(queue: EventQueue) -> None:
    """Pop and fire every live entry, as ``Simulator._drain`` does."""
    while (entry := queue.pop()) is not None:
        entry[4](*entry[5])


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        _fire_all(queue)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.push(1.0, lambda i=i: fired.append(i))
        _fire_all(queue)
        assert fired == list(range(10))

    def test_priority_beats_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("late"), priority=1)
        queue.push(1.0, lambda: fired.append("early"), priority=0)
        _fire_all(queue)
        assert fired == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.push(1.0, lambda: fired.append("x"))
        queue.push(2.0, lambda: fired.append("y"))
        handle.cancel()
        _fire_all(queue)
        assert fired == ["y"]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue._live == 2
        handle.cancel()
        assert queue._live == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        handle = queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0
        handle.cancel()
        assert queue.peek_time() is None

    def test_len_is_tracked_incrementally(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        assert queue._live == 10
        for handle in handles[::2]:
            handle.cancel()
        assert queue._live == 5
        queue.pop()
        assert queue._live == 4
        for handle in handles:
            handle.cancel()  # double-cancel must not corrupt the count
        assert queue._live == 0
        
    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped[6] is handle
        handle.cancel()  # already out of the heap: must be a no-op
        assert queue._live == 1
        assert queue.pop() is not None
        assert queue.pop() is None
        assert queue._live == 0

    def test_mass_cancellation_compacts_lazily(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(500)]
        for handle in handles[:499]:
            handle.cancel()
        # Compaction kicked in: the windows no longer hold the dead entries.
        assert sum(map(len, queue._windows.values())) < 500
        assert queue._live == 1
        assert queue.pop()[6] is handles[499]
        assert queue.pop() is None

    def test_order_preserved_across_compaction(self):
        queue = EventQueue()
        fired = []
        handles = [
            queue.push(float(i), lambda i=i: fired.append(i))
            for i in range(300)
        ]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        _fire_all(queue)
        assert fired == [i for i in range(300) if i % 3 == 0]

    def test_transient_push_is_a_plain_entry(self):
        """A push nobody can cancel returns no handle and queues the six
        plain fields; a handle push appends its ``Event``."""
        queue = EventQueue()
        assert queue.push(
            1.0, print, order_key=b"k", args=("x",), transient=True
        ) is None
        handle = queue.push(1.0, print, order_key=b"k", label="timer")
        assert isinstance(handle, Event) and handle.label == "timer"
        assert queue.push_batch([1.0, 0.5], print, [(1,), (2,)]) == 2
        assert queue._live == 4
        assert [queue.pop() for _ in range(4)] == [
            (0.5, 0, b"", 3, print, (2,)),
            (1.0, 0, b"", 2, print, (1,)),
            (1.0, 0, b"k", 0, print, ("x",)),
            (1.0, 0, b"k", 1, print, (), handle),
        ]
        assert handle.queue is None  # popped: a late cancel is a no-op


class TestSimulator:
    def test_time_advances_monotonically(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.0, lambda: times.append(sim.now))
        sim.schedule_at(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.0]

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule_after(2.0, chain)

        sim.schedule_after(1.0, chain)
        sim.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        final = sim.run(until=5.0)
        assert fired == [1]
        assert final == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_instant_rejected(self, bad):
        """NaN used to be accepted (firing wherever the queue put it);
        inf used to fire and leave ``now == inf`` for good."""
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(bad, lambda: fired.append("bad"))
        # Anywhere in a batch, and nothing of the batch is queued.
        for times in ([bad, 2.0, 3.0], [2.0, bad, 3.0], [2.0, 3.0, bad]):
            with pytest.raises(SimulationError, match="non-finite"):
                sim.schedule_batch(times, fired.append, [("bad",)] * 3)
        assert sim._queue._live == 1
        assert sim.run() == 1.0
        assert fired == [1.0]
        sim.schedule_at(1.0, lambda: None)  # the clock is still usable

    def test_batch_checked_before_anything_is_queued(self):
        sim = Simulator()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="before now"):
            sim.schedule_batch([3.0, 1.0], print, [(0,), (1,)])
        with pytest.raises(SimulationError, match="2 instants for 1"):
            sim.schedule_batch([3.0, 4.0], print, [(0,)])
        assert sim._queue._live == 0
        assert sim.schedule_batch([], print, []) == 0

    def test_run_until_cannot_move_time_backwards(self):
        """``run(until=3.0)`` after ``run(until=5.0)`` used to set ``now``
        back to 3.0, so an event then scheduled at 4.0 fired after the
        clock had read 5.0."""
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=3.0)
        assert sim.now == 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        assert sim.run(until=5.0) == 5.0  # the same horizon again is fine

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_event_args_passed_positionally(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), args=(1, 2))
        sim.schedule_at(2.0, lambda: seen.append("plain"))
        sim.schedule_at(
            3.0, lambda a: seen.append(a), args=("bare",), transient=True
        )
        sim.run()
        assert seen == [(1, 2), "plain", "bare"]

    def test_nan_horizon_rejected(self):
        """``run(until=nan)`` used to run the whole schedule: no event
        time compares greater than NaN, so the horizon never stopped it."""
        sim = Simulator()
        fired = []
        for t in (1.0, 3.0, 5.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert fired == [] and sim.now == 0.0
        assert sim.run(until=2.0) == 2.0 and fired == [1.0]

    def test_negative_max_events_rejected(self):
        """``max_events=-1`` used to process nothing, silently."""
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=-1)
        assert sim.run(max_events=0) == 0.0 and fired == []
        sim.run(max_events=1)
        assert fired == [1]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_pending_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim._queue._live == 2
        sim.run(until=1.5)
        assert sim._queue._live == 1
