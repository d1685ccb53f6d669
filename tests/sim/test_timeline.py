"""Heap vs. calendar-timeline parity.

The bucket timeline replaces the heap purely for speed; its contract is
that the observable schedule — pop order, peek times, horizon behavior,
``RunResult`` outcomes — is byte-identical to the heap backend's for the
same pushes, in every instrumentation preset.  These tests drive both
backends through randomized scripts (ties, priorities, order keys,
cancellations, transient recycling, interleaved pops, batch pushes) and
assert the transcripts match exactly.
"""
from __future__ import annotations

import random

import pytest

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.events import EventQueue
from repro.sim.instrumentation import Instrumentation
from repro.sim.runner import run_broadcast
from repro.sim.scheduler import Simulator
from repro.sim.timeline import BucketTimeline


def _noop(*args) -> None:
    pass


#: A small time grid forces heavy tie-breaking through buckets.
_TIMES = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]
_KEYS = [b"", b"a", b"b", b"zz"]


def _random_script(seed: int, *, with_cancels: bool) -> list[tuple]:
    """A seeded op script both backends replay identically.

    Cancels only ever target non-transient pushes: a transient handle
    becomes invalid once its cell is recycled, and the two backends'
    freelists interleave differently — the push contract forbids
    retaining such handles anyway.
    """
    rng = random.Random(seed)
    script: list[tuple] = []
    cancellable = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.45:
            transient = rng.random() < 0.5
            script.append((
                "push",
                rng.choice(_TIMES),
                rng.randrange(2),
                rng.choice(_KEYS),
                transient,
            ))
            if not transient:
                cancellable += 1
        elif roll < 0.60:
            script.append((
                "batch",
                rng.choice(_TIMES),
                rng.randrange(2),
                rng.choice(_KEYS),
                rng.randrange(1, 6),
                rng.random() < 0.5,
            ))
        elif roll < 0.75 and with_cancels and cancellable:
            script.append(("cancel", rng.randrange(cancellable)))
        elif roll < 0.9:
            script.append(("pop",))
        else:
            script.append(("peek",))
    return script


def _replay(queue: EventQueue, script: list[tuple]) -> list[tuple]:
    handles = []
    log: list[tuple] = []
    for op in script:
        kind = op[0]
        if kind == "push":
            _, time, priority, key, transient = op
            handle = queue.push(
                time, _noop, priority=priority, order_key=key,
                transient=transient,
            )
            if not transient:
                handles.append(handle)
        elif kind == "batch":
            _, time, priority, key, count, transient = op
            queue.push_batch(
                time, _noop, [(i,) for i in range(count)],
                priority=priority, order_key=key, transient=transient,
            )
        elif kind == "cancel":
            handles[op[1]].cancel()
        elif kind == "pop":
            event = queue.pop()
            if event is None:
                log.append(("pop", None))
            else:
                log.append((
                    "pop", event.time, event.priority, event.order_key,
                    event.seq, event.args,
                ))
                if event.transient:
                    queue.release(event)
        else:
            log.append(("peek", queue.peek_time(), len(queue)))
    while (event := queue.pop()) is not None:
        log.append((
            "drain", event.time, event.priority, event.order_key, event.seq,
        ))
        if event.transient:
            queue.release(event)
    log.append(("end", len(queue), queue.peek_time()))
    return log


class TestQueueParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("recycle", [False, True])
    def test_randomized_scripts_pop_identically(self, seed, recycle):
        # Cancels are safe under recycle too: scripts only ever cancel
        # non-transient handles, so this also covers cancelled-cell
        # discarding while the arena is recycling.
        script = _random_script(seed, with_cancels=True)
        heap_log = _replay(EventQueue(recycle=recycle), script)
        bucket_log = _replay(BucketTimeline(recycle=recycle), script)
        assert heap_log == bucket_log

    @pytest.mark.parametrize("seed", range(4))
    def test_cancellation_heavy_scripts_match(self, seed):
        script = _random_script(seed + 100, with_cancels=True)
        heap_log = _replay(EventQueue(), script)
        bucket_log = _replay(BucketTimeline(), script)
        assert heap_log == bucket_log

    def test_batch_equals_push_loop(self):
        batched = BucketTimeline()
        looped = BucketTimeline()
        batched.push(1.0, _noop, order_key=b"x")
        looped.push(1.0, _noop, order_key=b"x")
        batched.push_batch(
            1.0, _noop, [(r,) for r in range(5)], order_key=b"m",
        )
        for r in range(5):
            looped.push(1.0, _noop, order_key=b"m", args=(r,))
        out = []
        for queue in (batched, looped):
            seen = []
            while (event := queue.pop()) is not None:
                seen.append((event.time, event.order_key, event.seq, event.args))
            out.append(seen)
        assert out[0] == out[1]

    def test_mass_cancellation_compacts_buckets(self):
        queue = BucketTimeline()
        handles = [queue.push(float(i % 7), _noop) for i in range(500)]
        for handle in handles[:499]:
            handle.cancel()
        assert len(queue) == 1
        assert sum(len(b) for b in queue._buckets.values()) < 500
        assert queue.pop() is handles[499]
        assert queue.pop() is None

    def test_counters_track_bucket_reuse(self):
        queue = BucketTimeline()
        for _ in range(4):
            queue.push(1.0, _noop)
        queue.push_batch(2.0, _noop, [(i,) for i in range(3)])
        assert queue.bucket_appends == 7
        # 4 pushes at 1.0 share one instant (3 avoided); the batch at 2.0
        # opens one instant for 3 entries (2 avoided).
        assert queue.heap_pushes_avoided == 5
        heap = EventQueue()
        for _ in range(4):
            heap.push(1.0, _noop)
        assert heap.bucket_appends == 0
        assert heap.heap_pushes_avoided == 0


class TestCancelledTransientRecycling:
    """Cancelled transient cells must return to the arena, not leak."""

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketTimeline])
    def test_pop_recycles_cancelled_transients(self, queue_cls):
        queue = queue_cls(recycle=True)
        doomed = queue.push(1.0, _noop, transient=True)
        queue.push(2.0, _noop, transient=True)
        doomed.cancel()
        survivor = queue.pop()
        assert survivor.time == 2.0
        reused = queue.push(3.0, _noop, transient=True)
        assert reused is doomed
        assert queue.events_recycled == 1

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketTimeline])
    def test_peek_recycles_cancelled_transients(self, queue_cls):
        queue = queue_cls(recycle=True)
        doomed = queue.push(1.0, _noop, transient=True)
        queue.push(2.0, _noop, transient=True)
        doomed.cancel()
        assert queue.peek_time() == 2.0
        reused = queue.push(3.0, _noop, transient=True)
        assert reused is doomed

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketTimeline])
    def test_without_arena_no_recycling_on_cancel(self, queue_cls):
        queue = queue_cls()
        doomed = queue.push(1.0, _noop, transient=True)
        doomed.cancel()
        assert queue.pop() is None
        assert queue.events_recycled == 0


class TestSimulatorParity:
    """One ``Simulator`` script, replayed on the heap and the calendar."""

    @staticmethod
    def _on_both(reference_queue, script):
        with reference_queue():
            heap = script()
        return heap, script()

    def _cascade_log(self, *, until=None, max_events=None):
        sim = Simulator(recycle_events=True)
        rng = random.Random(7)
        log = []
        spawned = [0]

        def fire(tag: int) -> None:
            log.append((sim.now, tag))
            if spawned[0] < 120:
                spawned[0] += 3
                fanout = [(tag + k + 1,) for k in range(3)]
                sim.schedule_batch(
                    sim.now + rng.choice([0.0, 0.5, 1.0]), fire, fanout,
                    order_key=bytes([tag % 5]), transient=True,
                )

        sim.schedule_at(0.0, fire, args=(0,), transient=True)
        final = sim.run(until=until, max_events=max_events)
        return log, final, sim.pending_events(), sim.events_processed

    def test_run_to_quiescence_identical(self, reference_queue):
        heap, bucket = self._on_both(reference_queue, self._cascade_log)
        assert heap == bucket

    def test_until_horizon_identical(self, reference_queue):
        heap, bucket = self._on_both(
            reference_queue, lambda: self._cascade_log(until=2.5)
        )
        assert heap == bucket

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
            assert type(Simulator()._queue) is EventQueue
        assert type(Simulator()._queue) is BucketTimeline


def _outcome(cls, kwargs, policy, preset: dict):
    result = run_broadcast(
        party_factory=cls.factory(broadcaster=0, input_value="v"),
        delay_policy=policy,
        instrumentation=Instrumentation(name="parity", **preset),
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


_PRESETS = {
    "full": dict(rounds=True, transcripts=True),
    "rounds": dict(rounds=True, transcripts=False),
    "perf": dict(rounds=False, transcripts=False, recycle_events=True),
}


class TestRunResultParity:
    """Same seed, heap vs. bucket: identical outcomes, every preset.

    The one world-level heap-vs-calendar comparison; the other suites run
    on the production queue only.
    """

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
