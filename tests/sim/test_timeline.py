"""Calendar queue vs. the heap oracle.

The window calendar (``repro.sim.events.EventQueue``) orders events in
windows purely for speed; its contract is that the observable schedule —
pop order, peek times, horizon behavior, ``RunResult`` outcomes — is
byte-identical to the binary heap's (``heap_queue.HeapQueue``, the
oracle) for the same pushes, observers on or off and **for every window
width**: the lookahead only decides which pushes are O(1) appends and
which are in-window inserts.  These tests drive both backends through
randomized scripts (ties and continuous times, priorities, order keys,
plain entries mixed with live and cancelled handles, interleaved pops,
peeks and bounded pops, per-copy-instant batches) over widths from 0 (one window per
instant) to wider than the whole schedule, and assert the transcripts
match exactly.  Fan-outs that span several windows leave *slices* in the
closed ones (their entries are built only when a window opens); the
fan-out scripts mix them with in-window pushes, pushes that park a
peeked window and compactions, and two targeted cases pin the ``seq``
block a fan-out reserves and a horizon that stops with slices parked.
"""
from __future__ import annotations

import random

import pytest

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.events import _COMPACT_MIN_CANCELLED, Event, EventQueue
from repro.sim.faults import Crash, DuplicateLink, FaultPlan, ReorderJitter
from repro.sim.instrumentation import Instrumentation
from repro.sim.network import Network
from repro.sim.runner import World, run_broadcast
from repro.sim.scheduler import Simulator

from heap_queue import HeapQueue


def _noop(*args) -> None:
    pass


#: A small time grid forces heavy tie-breaking inside windows.
_TIMES = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]
_KEYS = [b"", b"a", b"b", b"zz"]
#: Window widths: per-instant, far below the grid, the benchmark's
#: lookahead, one that straddles grid points, one grid step, and one
#: wider than every script's whole schedule.
_WIDTHS = [0.0, 1e-9, 0.05, 0.3, 1.0, 10.0]


def _random_script(
    seed: int,
    *,
    with_cancels: bool,
    continuous: bool = False,
    handle_share: float = 0.5,
) -> list[tuple]:
    """A seeded op script both backends replay identically.

    Times come from the ``_TIMES`` tie grid or, with ``continuous``, from
    a uniform draw (one distinct instant per push, the randomized-delay
    regime); pushes land before and after what was already popped.  A
    single push asks for a handle with probability ``handle_share`` and
    is transient (a plain entry) otherwise; batches are always plain.
    Cancels target handles only, live or already popped — a transient
    push has none.
    """
    rng = random.Random(seed)

    def when() -> float:
        return rng.uniform(0.0, 3.0) if continuous else rng.choice(_TIMES)

    script: list[tuple] = []
    cancellable = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.45:
            transient = rng.random() >= handle_share
            script.append((
                "push", when(), rng.randrange(2), rng.choice(_KEYS),
                transient,
            ))
            if not transient:
                cancellable += 1
        elif roll < 0.60:
            # One instant per copy; half the batches share one instant.
            count = rng.randrange(1, 6)
            times = (
                [when()] * count
                if rng.random() < 0.5
                else [when() for _ in range(count)]
            )
            script.append((
                "batch", times, rng.randrange(2), rng.choice(_KEYS),
            ))
        elif roll < 0.75 and with_cancels and cancellable:
            script.append(("cancel", rng.randrange(cancellable)))
        elif roll < 0.85:
            script.append(("pop",))
        elif roll < 0.9:
            script.append(("drain", when(), rng.randrange(1, 4)))
        else:
            script.append(("peek",))
    return script


#: A fan-out's optional columns: none, msg ids, transfers, or both.
_LAYOUTS = [(False, False), (True, False), (False, True), (True, True)]


def _fan_out_script(seed: int) -> list[tuple]:
    """A seeded script of fan-outs wide enough to span several windows.

    Each fan-out draws 5-40 copies, in one of the column layouts, spread
    over as much as the whole schedule, so one fan-out's copies land in
    the open window, below it and in several closed windows.  Between fan-outs: single
    pushes (plain and with a handle), pops, bounded drains, peeks that
    open the next window, pushes *below* the peeked head (which park the
    open window) and cancellation bursts big enough to compact the queue
    while slices are parked.
    """
    rng = random.Random(1000 + seed)
    script: list[tuple] = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.3:
            base = rng.uniform(0.0, 3.0)
            span = rng.choice([0.2, 1.0, 3.0])
            times = [
                rng.choice([base, base + rng.uniform(0.0, span)])
                for _ in range(rng.randrange(5, 41))
            ]
            script.append((
                "fanout", times, rng.randrange(2), rng.choice(_KEYS),
                rng.choice(_LAYOUTS),
            ))
        elif roll < 0.45:
            script.append((
                "push", rng.uniform(0.0, 3.0), rng.randrange(2),
                rng.choice(_KEYS), rng.random() < 0.5,
            ))
        elif roll < 0.6:
            script.append(("pop",))
        elif roll < 0.7:
            script.append((
                "drain", rng.uniform(0.0, 3.0), rng.randrange(1, 9),
            ))
        elif roll < 0.8:
            script.append(("peek",))
        elif roll < 0.95:
            script.append(("below", rng.random(), rng.choice(_KEYS)))
        else:
            script.append(("burst", rng.randrange(1 << 30)))
    return script


def _fired(kind: str, entry) -> tuple:
    """An entry's ordering fields, its args and its kind (6 = plain,
    7 = with a handle)."""
    return (kind, *entry[:4], entry[5], len(entry))


def _replay(queue: EventQueue, script: list[tuple]) -> list[tuple]:
    handles = []
    log: list[tuple] = []
    for op in script:
        kind = op[0]
        if kind == "push":
            _, time, priority, key, transient = op
            handle = queue.push(
                time, _noop, priority=priority, order_key=key,
                args=(len(log),), transient=transient,
            )
            if transient:
                assert handle is None
            else:
                handles.append(handle)
        elif kind == "batch":
            _, times, priority, key = op
            queue.push_batch(
                times, _noop, "b", range(len(times)), len(log),
                priority=priority, order_key=key,
            )
        elif kind == "fanout":
            _, times, priority, key, (with_ids, with_transfers) = op
            count = len(times)
            queue.push_batch(
                times, _noop, "f", range(count), len(log),
                [("id", i) for i in range(count)] if with_ids else None,
                [("t", i) for i in range(count)] if with_transfers else None,
                priority=priority, order_key=key,
            )
        elif kind == "below":
            # Under the head a peek just surfaced (opening its window on
            # the calendar): a push there parks the open window.
            _, fraction, key = op
            head = queue.peek_time()
            queue.push(
                (1.0 if head is None else head) * fraction, _noop,
                order_key=key, args=("below", len(log)), transient=True,
            )
        elif kind == "burst":
            # Outnumber the live copies by more than the compaction
            # threshold, then cancel every one: the queue compacts.
            burst = random.Random(op[1])
            doomed = [
                queue.push(burst.uniform(0.0, 3.0), _noop)
                for _ in range(queue._live + _COMPACT_MIN_CANCELLED + 1)
            ]
            for handle in doomed:
                handle.cancel()
        elif kind == "cancel":
            handles[op[1]].cancel()
        elif kind == "pop":
            entry = queue.pop()
            log.append(("pop", None) if entry is None else _fired("pop", entry))
        elif kind == "drain":
            _, stop, limit = op
            for _ in range(limit):
                entry = queue.pop(stop)
                if entry is None:
                    log.append(("drain", None))
                    break
                log.append(_fired("drain", entry))
        else:
            log.append(("peek", queue.peek_time(), queue._live))
    log.extend(_fired("rest", entry) for entry in iter(queue.pop, None))
    log.append(("end", queue._live, queue.peek_time(), queue._cancelled))
    return log


class TestQueueParity:
    @pytest.mark.parametrize("width", _WIDTHS)
    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("handle_share", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_scripts_pop_identically(
        self, seed, handle_share, continuous, width
    ):
        # Plain entries only (the per-copy delivery regime), a mix of
        # plain entries with live and cancelled handles, and every single
        # push a handle (batches stay plain).
        script = _random_script(
            seed, with_cancels=True, continuous=continuous,
            handle_share=handle_share,
        )
        heap_log = _replay(HeapQueue(), script)
        calendar_log = _replay(EventQueue(width=width), script)
        assert heap_log == calendar_log
        assert heap_log[-1] == ("end", 0, None, 0)

    @pytest.mark.parametrize("width", _WIDTHS)
    @pytest.mark.parametrize("seed", range(6))
    def test_fan_outs_across_windows_pop_identically(self, seed, width):
        script = _fan_out_script(seed)
        heap_log = _replay(HeapQueue(), script)
        calendar_log = _replay(EventQueue(width=width), script)
        assert heap_log == calendar_log
        assert heap_log[-1] == ("end", 0, None, 0)

    def test_fan_out_scripts_reach_every_deferred_state(self, monkeypatch):
        """Guards the scripts above: over their seeds, at a width below
        the schedule, a fan-out splits between copies admitted at once
        and deferred ones, and a park and a compaction each happen while
        slices are parked."""
        seen = set()
        real_park, real_compact = EventQueue._park, EventQueue._compact
        real_admit = EventQueue._admit

        def park(queue):
            seen.add(("park", bool(queue._deferred)))
            real_park(queue)

        def compact(queue):
            seen.add(("compact", bool(queue._deferred)))
            real_compact(queue)

        def admit(queue, key, entry):
            fan_out_copy = entry[5][:1] == ("f",)
            seen.add(("admit", fan_out_copy and bool(queue._deferred)))
            real_admit(queue, key, entry)

        monkeypatch.setattr(EventQueue, "_park", park)
        monkeypatch.setattr(EventQueue, "_compact", compact)
        monkeypatch.setattr(EventQueue, "_admit", admit)
        for seed in range(6):
            _replay(EventQueue(width=0.3), _fan_out_script(seed))
        assert {("park", True), ("compact", True), ("admit", True)} <= seen

    @pytest.mark.parametrize("width", _WIDTHS)
    def test_compaction_mid_window_matches_heap(self, width):
        """A cancellation burst past ``_COMPACT_MIN_CANCELLED`` while a
        window is half drained: the open tail and the closed windows are
        filtered in place and the survivors still pop in heap order."""
        rng = random.Random(5)
        count = 4 * _COMPACT_MIN_CANCELLED
        times = [rng.uniform(0.0, 3.0) for _ in range(count)]
        doomed = rng.sample(range(count), 3 * _COMPACT_MIN_CANCELLED)
        logs = []
        for queue in (HeapQueue(), EventQueue(width=width)):
            handles = [
                queue.push(t, _noop, order_key=_KEYS[i % 4])
                for i, t in enumerate(times)
            ]
            log = [_fired("pop", queue.pop()) for _ in range(20)]
            for i in doomed:
                handles[i].cancel()
            log.append(("peek", queue.peek_time(), queue._live))
            queue.push_batch(
                [1.0, 0.1, 2.9], _noop, "b", range(3), "m", order_key=b"m"
            )
            log.extend(_fired("rest", e) for e in iter(queue.pop, None))
            log.append(("end", queue._live, queue._cancelled))
            logs.append(log)
        assert logs[0] == logs[1]
        assert logs[0][-1] == ("end", 0, 0)

    @pytest.mark.parametrize("width", _WIDTHS)
    def test_push_below_a_peeked_window_parks_it(self, width):
        """A peek opens (sorts) the next window while the clock is still
        behind it; a push that then lands earlier must fire first."""
        logs = []
        for queue in (HeapQueue(), EventQueue(width=width)):
            queue.push_batch([5.2, 5.0, 5.1], _noop, "b", range(3), "m")
            log = [queue.peek_time()]
            queue.push(1.0, _noop, args=("early",))
            if not isinstance(queue, HeapQueue) and width < 10.0:
                assert not queue._open  # parked, not merely inserted into
            log.append(queue.peek_time())
            queue.push(5.05, _noop, args=("late",))
            while (event := queue.pop(5.15)) is not None:
                log.append(_fired("pop", event))
            queue.push(0.5, _noop, args=("earlier still",))
            log.extend(_fired("rest", e) for e in iter(queue.pop, None))
            logs.append(log)
        assert logs[0] == logs[1]
        assert [entry[-2] for entry in logs[1][2:]] == [
            ("early",), ("b", 1, "m", None), ("late",), ("b", 2, "m", None),
            ("earlier still",), ("b", 0, "m", None),
        ]

    def test_batch_equals_push_loop(self):
        batched = EventQueue(width=0.3)
        looped = EventQueue(width=0.3)
        batched.push(1.0, _noop, order_key=b"x")
        looped.push(1.0, _noop, order_key=b"x")
        # A batch is a loop of transient pushes: plain entries throughout.
        times = [1.0, 0.2, 1.0, 2.5, 0.2]
        batched.push_batch(
            times, _noop, "s", range(5), "m", order_key=b"m",
        )
        for r, time in enumerate(times):
            looped.push(
                time, _noop, order_key=b"m", args=("s", r, "m", None),
                transient=True,
            )
        out = [
            [_fired("pop", event) for event in iter(queue.pop, None)]
            for queue in (batched, looped)
        ]
        assert out[0] == out[1]
        with pytest.raises(ValueError):
            batched.push_batch([1.0, 2.0], _noop, "s", [0], "m")
        with pytest.raises(ValueError):
            batched.push_batch([1.0], _noop, "s", [0], "m", None, [1, 2])

    @staticmethod
    def _tie_order(queue: EventQueue) -> list:
        """Two fan-outs and a push between them, all tied at 2.5 (same
        priority and order key, a closed window on the calendar): the
        args of what pops, in order."""
        queue.push(0.1, _noop, args=("head",), transient=True)
        assert queue.pop()[5] == ("head",)  # opens the first window
        queue.push_batch([2.5, 0.4, 2.5], _noop, "A", range(3), None,
                         order_key=b"k")
        queue.push(2.5, _noop, order_key=b"k", args=("single",),
                   transient=True)
        queue.push_batch([1.5, 2.5], _noop, "B", range(2), None,
                         order_key=b"k")
        return [entry[5] for entry in iter(queue.pop, None)]

    @pytest.mark.parametrize("width", _WIDTHS)
    def test_tied_copies_pop_in_push_order(self, width):
        """A deferred copy carries the ``seq`` its fan-out reserved at
        push, so it pops before a later push tied with it, wherever
        its window stood when it was built."""
        expected = [
            ("A", 1, None, None), ("B", 0, None, None),
            ("A", 0, None, None), ("A", 2, None, None), ("single",),
            ("B", 1, None, None),
        ]
        assert self._tie_order(HeapQueue()) == expected
        assert self._tie_order(EventQueue(width=width)) == expected

    def test_numbering_at_window_open_breaks_the_tie_order(self):
        """The case above fails against a calendar that numbers a
        deferred copy when its window opens: the single push, numbered
        at push, then overtakes the first fan-out."""

        class NumberedAtOpen(EventQueue):
            def _open_next(self):
                key = self._keys[0] if self._keys else None
                slices = self._deferred.get(key, [])
                for n, (batch, indices) in enumerate(slices):
                    # Renumber the slice from the counter as it is now
                    # (``batch[3]`` is the fan-out's first seq).
                    first = self._seq - indices[0]
                    self._seq += indices[-1] - indices[0] + 1
                    slices[n] = (batch[:3] + (first,) + batch[4:], indices)
                return super()._open_next()

        order = self._tie_order(NumberedAtOpen(width=1.0))
        assert order.index(("single",)) < order.index(("A", 2, None, None))
        assert order != self._tie_order(HeapQueue())

    def test_mass_cancellation_compacts_windows(self):
        queue = EventQueue()
        handles = [queue.push(float(i % 7), _noop) for i in range(500)]
        for handle in handles[:499]:
            handle.cancel()
        assert queue._live == 1
        assert sum(len(w) for w in queue._windows.values()) < 500
        assert queue.pop()[6] is handles[499]
        assert queue.pop() is None

    def test_counters_track_window_reuse(self):
        queue = EventQueue(width=0.5)
        for _ in range(4):
            queue.push(1.0, _noop)
        queue.push_batch([2.0, 2.4, 2.2], _noop, "s", range(3), "m")
        assert queue.bucket_appends == 7
        # 4 pushes at 1.0 share one window (3 avoided); the batch opens
        # window [2.0, 2.5) for 3 distinct instants (2 avoided).
        assert queue.heap_pushes_avoided == 5
        assert queue.pop()[0] == 1.0
        # An in-window insert costs an insort, not a sift: avoided too.
        queue.push(1.2, _noop)
        assert (queue.bucket_appends, queue.heap_pushes_avoided) == (8, 6)
        # Zero width: one window per distinct instant.
        instants = EventQueue()
        instants.push_batch([2.0, 2.4, 2.0], _noop, "s", range(3), "m")
        assert instants.heap_pushes_avoided == 1
        heap = HeapQueue()
        for _ in range(4):
            heap.push(1.0, _noop)
        assert heap.bucket_appends == 0
        assert heap.heap_pushes_avoided == 0


class TestDeadEntriesAmidPlainOnes:
    """A cancelled handle at the drain front is skipped, and accounted,
    the same way by ``pop`` and ``peek_time`` on both backends."""

    @pytest.mark.parametrize("queue_cls", [HeapQueue, EventQueue])
    def test_pop_skips_a_cancelled_handle(self, queue_cls):
        queue = queue_cls()
        doomed = queue.push(1.0, _noop)
        queue.push(2.0, _noop, args=("plain",), transient=True)
        doomed.cancel()
        assert (queue._live, queue._cancelled) == (1, 1)
        assert queue.pop() == (2.0, 0, b"", 1, _noop, ("plain",))
        assert (queue._live, queue._cancelled) == (0, 0)
        assert queue.pop() is None

    @pytest.mark.parametrize("queue_cls", [HeapQueue, EventQueue])
    def test_peek_skips_a_cancelled_handle(self, queue_cls):
        queue = queue_cls()
        doomed = queue.push(1.0, _noop)
        queue.push_batch([2.0], _noop, "s", ["plain"], "m")
        doomed.cancel()
        assert queue.peek_time() == 2.0
        assert queue._cancelled == 0
        doomed.cancel()  # already discarded: a second cancel is a no-op
        assert (queue._live, queue._cancelled) == (1, 0)


class TestHandleFreeDeliveries:
    """A scheduled copy is one tuple: only a push that returns a
    cancellable handle builds an ``Event``."""

    def test_fan_outs_and_self_deliveries_build_no_event(self, monkeypatch):
        built = []
        init = Event.__init__

        def spy(event, *args, **kwargs):
            init(event, *args, **kwargs)
            built.append(event)

        monkeypatch.setattr(Event, "__init__", spy)
        landed = []
        sims = []
        for policy, payload in (
            (UniformDelay(0.05, 1.0, seed=2026, stream="counter"), "propose"),
            (FixedDelay(1.0), "vote"),
        ):
            sim = Simulator(lookahead=policy.min_delay())
            net = Network(sim, policy, n=301)
            for pid in range(301):
                net.attach(pid, lambda sender, msg: landed.append(msg))
            net.multicast(0, payload)  # 300 copies plus the self-delivery
            sims.append((sim, net))
        (uniform, per_copy), (fixed, folded) = sims
        assert (per_copy.delivery_runs_batched, folded.deliveries_batched) \
            == (0, 300)
        assert (uniform._queue._live, fixed._queue._live) == (301, 2)
        uniform.run()
        fixed.run()
        assert sorted(set(landed)) == ["propose", "vote"]
        assert len(landed) == 602
        assert built == []
        # A push without ``transient`` still hands back a live handle.
        handle = uniform.schedule_at(
            uniform.now + 1.0, landed.append, args=("timer",)
        )
        assert built == [handle]
        handle.cancel()
        assert uniform._queue._live == 0
        uniform.run()
        assert "timer" not in landed


class TestSimulatorParity:
    """One ``Simulator`` script, replayed on the heap and the calendar."""

    @staticmethod
    def _on_both(reference_queue, script):
        with reference_queue():
            heap = script()
        return heap, script()

    def _cascade_log(self, *, until=None, max_events=None, lookahead=0.3):
        sim = Simulator(lookahead=lookahead)
        rng = random.Random(7)
        log = []
        spawned = [0]

        def fire(sender: int, tag: int, payload, msg_id) -> None:
            log.append((sim.now, sender, tag))
            if spawned[0] < 120:
                spawned[0] += 3
                fanout = [tag + k + 1 for k in range(3)]
                sim.schedule_batch(
                    [sim.now + rng.choice([0.0, 0.5, 1.0]) for _ in fanout],
                    fire, tag, fanout, None,
                    order_key=bytes([tag % 5]),
                )

        sim.schedule_at(0.0, fire, args=(0, 0, None, None), transient=True)
        final = sim.run(until=until, max_events=max_events)
        return log, final, sim._queue._live, sim.events_processed

    @staticmethod
    def _fan_out_log(*, lookahead: float, split: float | None = None):
        """Fan-outs of uniform delays in ``[0.05, 1.0)``, 600 copies in
        all, run to quiescence — in one ``run()``, or in a
        ``run(until=split)`` and a ``run()`` with a note of whether
        slices were parked at the split."""
        sim = Simulator(lookahead=lookahead)
        rng = random.Random(11)
        log = []
        spawned = [0]

        def fire(sender: int, tag: int, payload, msg_id) -> None:
            log.append((sim.now, sender, tag, msg_id))
            if spawned[0] < 600:
                spawned[0] += 6
                sim.schedule_batch(
                    [sim.now + rng.uniform(0.05, 1.0) for _ in range(6)],
                    fire, tag, range(6), None, [tag] * 6,
                    order_key=bytes([tag % 3]),
                )

        sim.schedule_at(0.0, fire, args=(0, 0, None, None), transient=True)
        if split is not None:
            sim.run(until=split)
            log.append(("split", bool(sim._queue._deferred)))
        final = sim.run()
        return log, final, sim._queue._live, sim.events_processed

    def test_run_to_quiescence_identical(self, reference_queue):
        heap, bucket = self._on_both(reference_queue, self._cascade_log)
        assert heap == bucket

    def test_until_horizon_identical(self, reference_queue):
        heap, bucket = self._on_both(
            reference_queue, lambda: self._cascade_log(until=2.5)
        )
        assert heap == bucket

    @pytest.mark.parametrize("lookahead", [0.05, 0.3, 1.0])
    def test_horizon_with_parked_slices_resumes_identically(
        self, reference_queue, lookahead
    ):
        """``run(until=t)`` stops while fan-out slices are still parked
        in closed windows; the ``run()`` that follows pops exactly what
        one uninterrupted run pops, and so does the heap oracle."""

        def split():
            return self._fan_out_log(lookahead=lookahead, split=1.2)

        heap, bucket = self._on_both(reference_queue, split)
        # The oracle defers nothing, so only the calendar parks slices.
        assert ("split", False) in heap[0] and ("split", True) in bucket[0]
        whole, heap_whole = self._on_both(
            reference_queue, lambda: self._fan_out_log(lookahead=lookahead)
        )
        for log, *outcome in (heap, bucket, heap_whole):
            assert [e for e in log if e[0] != "split"] == whole[0]
            assert outcome == list(whole[1:])
        assert len(whole[0]) == 601

    def test_max_events_horizon_identical(self, reference_queue):
        heap, bucket = self._on_both(
            reference_queue, lambda: self._cascade_log(max_events=37)
        )
        assert heap == bucket

    def test_same_instant_push_during_drain_matches_heap(
        self, reference_queue
    ):
        """Self-delivery pattern: scheduling at ``now`` mid-instant."""

        def run():
            sim = Simulator()
            log = []

            def primary(tag: int) -> None:
                log.append((sim.now, "p", tag))
                sim.schedule_at(
                    sim.now, secondary, order_key=bytes([9 - tag]),
                    args=(tag,),
                )

            def secondary(tag: int) -> None:
                log.append((sim.now, "s", tag))

            for tag in range(5):
                sim.schedule_at(1.0, primary, order_key=bytes([tag]), args=(tag,))
            sim.run()
            return log

        heap, bucket = self._on_both(reference_queue, run)
        assert heap == bucket

    def test_patch_selects_the_queue(self, reference_queue):
        # Guards the fixture itself: were the swap a no-op, every parity
        # test here would compare the calendar with itself.
        with reference_queue():
            assert type(Simulator()._queue) is HeapQueue
        assert type(Simulator()._queue) is EventQueue


def _outcome(cls, kwargs, policy, preset: bool):
    result = run_broadcast(
        party_factory=cls.factory(broadcaster=0, input_value="v"),
        delay_policy=policy,
        instrumentation=Instrumentation(observe=preset),
        **kwargs,
    )
    return (
        result.commits,
        result.commit_global_times,
        result.commit_rounds,
        result.messages_sent,
        result.final_time,
        result.events_processed,
    )


#: Preset name -> the observer switch.
_PRESETS = {"full": True, "perf": False}


#: Delay regimes by what they give the calendar: a lookahead with one
#: distinct instant per copy (the benchmark's ``brb_uniform`` policy), no
#: lookahead at all, and a lookahead with one instant per window.
_POLICIES = {
    "lookahead": lambda: UniformDelay(0.05, 1.0, seed=2026, stream="counter"),
    "zero-lookahead": lambda: UniformDelay(
        0.0, 1.0, seed=2026, stream="counter"
    ),
    "fixed": lambda: FixedDelay(1.0),
}


def _brb31(policy: str, *, faulted: bool = False, preset: str = "perf"):
    """``Brb2Round`` n=31 under one of ``_POLICIES``, optionally with the
    benchmark's chaos plan shape (a recovering crash, duplicate echoes,
    reorder jitter); returns ``(world, result)``."""
    plan = FaultPlan(
        crashes=(Crash(party=30, at=0.2, recover=1.2),),
        duplicates=(
            DuplicateLink(start=0.0, end=2.0, prob=0.25, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.25, start=0.0, end=2.0),),
        seed=2026,
        stream="counter",
    ) if faulted else None
    world = World(
        n=31, f=10, delay_policy=_POLICIES[policy](), fault_plan=plan,
        instrumentation=Instrumentation(observe=_PRESETS[preset]),
    )
    world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
    return world, world.run()


class TestRunResultParity:
    """Same seed, heap vs. calendar: identical outcomes, every preset.

    The one world-level heap-vs-calendar comparison; the other suites run
    on the production queue only.
    """

    @pytest.mark.parametrize("preset", ["full", "perf"])
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("policy", sorted(_POLICIES))
    def test_brb_n31_identical_across_backends(
        self, policy, faulted, preset, reference_queue
    ):
        def run():
            world, result = _brb31(policy, faulted=faulted, preset=preset)
            return (
                result.commits,
                result.commit_global_times,
                result.commit_rounds,
                result.messages_sent,
                result.events_processed,
                result.final_time,
                result.faults_injected,
                result.messages_duplicated,
                # Every honest party's transcript, where recorded.
                [
                    party.transcript and party.transcript.entries
                    for party in world.honest_parties()
                ],
            )

        with reference_queue():
            heap = run()
        assert heap == run()
        assert len(heap[0]) >= 30  # everyone the plan spares committed
        assert (heap[6] > 0) == faulted
        assert (heap[8][0] is not None) == (preset == "full")

    def test_per_copy_path_shares_windows(self):
        """The mechanism, pinned by a count that repeats exactly: with a
        lookahead the per-copy path must append into shared windows, not
        regress to a bucket (and a heap sift) per copy — 62 / 1,953 =
        0.03 before the window calendar, 1,907 / 1,953 = 0.98 with it.
        Without a lookahead a window *is* an instant, so continuous
        delays legitimately share almost nothing."""
        _, shared = _brb31("lookahead")
        assert shared.bucket_appends == shared.events_processed == 1953
        assert shared.heap_pushes_avoided / shared.bucket_appends >= 0.9
        _, lone = _brb31("zero-lookahead")
        assert lone.bucket_appends == 1953
        assert lone.heap_pushes_avoided / lone.bucket_appends < 0.1

    @pytest.mark.parametrize("preset", sorted(_PRESETS))
    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (Brb2Round, dict(n=16, f=5)),
            (PsyncVbb5f1, dict(n=13, f=2)),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 42])
    def test_snapshots_identical(
        self, preset, cls, kwargs, seed, reference_queue
    ):
        def run():
            return _outcome(
                cls, kwargs, UniformDelay(0.0, 1.0, seed=seed),
                _PRESETS[preset],
            )

        with reference_queue():
            heap = run()
        assert heap == run()
        assert heap[0]  # the run actually committed something

    def test_fixed_delay_ties_identical(self, reference_queue):
        for preset in _PRESETS.values():
            def run():
                return _outcome(
                    Brb2Round, dict(n=16, f=5), FixedDelay(1.0), preset
                )

            with reference_queue():
                heap = run()
            assert heap == run()

    def test_counters_flow_into_run_result(self, reference_queue):
        def run():
            return run_broadcast(
                n=16, f=5,
                party_factory=Brb2Round.factory(
                    broadcaster=0, input_value="v"
                ),
                delay_policy=FixedDelay(1.0),
                instrumentation="perf",
            )

        result = run()
        # Every *physical* event went through a bucket append; batched
        # delivery runs fold extra logical deliveries into one event, so
        # the physical count is the logical one minus the folded copies.
        assert result.bucket_appends == (
            result.events_processed
            - result.deliveries_batched
            + result.delivery_runs_batched
        )
        assert result.deliveries_batched > 0
        assert result.heap_pushes_avoided > 0
        with reference_queue():
            heap_result = run()
        assert heap_result.bucket_appends == 0
        assert heap_result.heap_pushes_avoided == 0
        assert heap_result.commits == result.commits
