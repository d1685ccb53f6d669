"""Heap vs. calendar-timeline parity.

The window calendar replaces the heap purely for speed; its contract is
that the observable schedule — pop order, peek times, horizon behavior,
``RunResult`` outcomes — is byte-identical to the heap backend's for the
same pushes, in every instrumentation preset and **for every window
width**: the lookahead only decides which pushes are O(1) appends and
which are in-window inserts.  These tests drive both backends through
randomized scripts (ties and continuous times, priorities, order keys,
plain entries mixed with live and cancelled handles, interleaved pops,
peeks and bounded pops, per-copy-instant batches) over widths from 0 (one window per
instant) to wider than the whole schedule, and assert the transcripts
match exactly.
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
from repro.sim.timeline import BucketTimeline


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
                times, _noop, [(i,) for i in range(len(times))],
                priority=priority, order_key=key,
            )
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
            log.append(("peek", queue.peek_time(), len(queue)))
    log.extend(_fired("rest", entry) for entry in iter(queue.pop, None))
    log.append(("end", len(queue), queue.peek_time(), queue._cancelled))
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
        heap_log = _replay(EventQueue(), script)
        calendar_log = _replay(BucketTimeline(width=width), script)
        assert heap_log == calendar_log
        assert heap_log[-1] == ("end", 0, None, 0)

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
        for queue in (EventQueue(), BucketTimeline(width=width)):
            handles = [
                queue.push(t, _noop, order_key=_KEYS[i % 4])
                for i, t in enumerate(times)
            ]
            log = [_fired("pop", queue.pop()) for _ in range(20)]
            for i in doomed:
                handles[i].cancel()
            log.append(("peek", queue.peek_time(), len(queue)))
            queue.push_batch(
                [1.0, 0.1, 2.9], _noop, [(0,), (1,), (2,)], order_key=b"m"
            )
            log.extend(_fired("rest", e) for e in iter(queue.pop, None))
            log.append(("end", len(queue), queue._cancelled))
            logs.append(log)
        assert logs[0] == logs[1]
        assert logs[0][-1] == ("end", 0, 0)

    @pytest.mark.parametrize("width", _WIDTHS)
    def test_push_below_a_peeked_window_parks_it(self, width):
        """A peek opens (sorts) the next window while the clock is still
        behind it; a push that then lands earlier must fire first."""
        logs = []
        for queue in (EventQueue(), BucketTimeline(width=width)):
            queue.push_batch([5.2, 5.0, 5.1], _noop, [(0,), (1,), (2,)])
            log = [queue.peek_time()]
            queue.push(1.0, _noop, args=("early",))
            if isinstance(queue, BucketTimeline) and width < 10.0:
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
            ("early",), (1,), ("late",), (2,), ("earlier still",), (0,)
        ]

    def test_batch_equals_push_loop(self):
        batched = BucketTimeline(width=0.3)
        looped = BucketTimeline(width=0.3)
        batched.push(1.0, _noop, order_key=b"x")
        looped.push(1.0, _noop, order_key=b"x")
        # A batch is a loop of transient pushes: plain entries throughout.
        times = [1.0, 0.2, 1.0, 2.5, 0.2]
        batched.push_batch(
            times, _noop, [(r,) for r in range(5)], order_key=b"m",
        )
        for r, time in enumerate(times):
            looped.push(
                time, _noop, order_key=b"m", args=(r,), transient=True
            )
        out = [
            [_fired("pop", event) for event in iter(queue.pop, None)]
            for queue in (batched, looped)
        ]
        assert out[0] == out[1]
        with pytest.raises(ValueError):
            batched.push_batch([1.0, 2.0], _noop, [(0,)])

    def test_mass_cancellation_compacts_windows(self):
        queue = BucketTimeline()
        handles = [queue.push(float(i % 7), _noop) for i in range(500)]
        for handle in handles[:499]:
            handle.cancel()
        assert len(queue) == 1
        assert sum(len(w) for w in queue._windows.values()) < 500
        assert queue.pop()[6] is handles[499]
        assert queue.pop() is None

    def test_counters_track_window_reuse(self):
        queue = BucketTimeline(width=0.5)
        for _ in range(4):
            queue.push(1.0, _noop)
        queue.push_batch([2.0, 2.4, 2.2], _noop, [(i,) for i in range(3)])
        assert queue.bucket_appends == 7
        # 4 pushes at 1.0 share one window (3 avoided); the batch opens
        # window [2.0, 2.5) for 3 distinct instants (2 avoided).
        assert queue.heap_pushes_avoided == 5
        assert queue.pop()[0] == 1.0
        # An in-window insert costs an insort, not a sift: avoided too.
        queue.push(1.2, _noop)
        assert (queue.bucket_appends, queue.heap_pushes_avoided) == (8, 6)
        # Zero width: one window per distinct instant.
        instants = BucketTimeline()
        instants.push_batch([2.0, 2.4, 2.0], _noop, [(i,) for i in range(3)])
        assert instants.heap_pushes_avoided == 1
        heap = EventQueue()
        for _ in range(4):
            heap.push(1.0, _noop)
        assert heap.bucket_appends == 0
        assert heap.heap_pushes_avoided == 0


class TestDeadEntriesAmidPlainOnes:
    """A cancelled handle at the drain front is skipped, and accounted,
    the same way by ``pop`` and ``peek_time`` on both backends."""

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketTimeline])
    def test_pop_skips_a_cancelled_handle(self, queue_cls):
        queue = queue_cls()
        doomed = queue.push(1.0, _noop)
        queue.push(2.0, _noop, args=("plain",), transient=True)
        doomed.cancel()
        assert (len(queue), queue._cancelled) == (1, 1)
        assert queue.pop() == (2.0, 0, b"", 1, _noop, ("plain",))
        assert (len(queue), queue._cancelled) == (0, 0)
        assert queue.pop() is None

    @pytest.mark.parametrize("queue_cls", [EventQueue, BucketTimeline])
    def test_peek_skips_a_cancelled_handle(self, queue_cls):
        queue = queue_cls()
        doomed = queue.push(1.0, _noop)
        queue.push_batch([2.0], _noop, [("plain",)])
        doomed.cancel()
        assert queue.peek_time() == 2.0
        assert queue._cancelled == 0
        doomed.cancel()  # already discarded: a second cancel is a no-op
        assert (len(queue), queue._cancelled) == (1, 0)


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
        assert (uniform.pending_events(), fixed.pending_events()) == (301, 2)
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
        assert uniform.pending_events() == 0
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

        def fire(tag: int) -> None:
            log.append((sim.now, tag))
            if spawned[0] < 120:
                spawned[0] += 3
                fanout = [(tag + k + 1,) for k in range(3)]
                sim.schedule_batch(
                    [sim.now + rng.choice([0.0, 0.5, 1.0]) for _ in fanout],
                    fire, fanout,
                    order_key=bytes([tag % 5]),
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
    "perf": dict(rounds=False, transcripts=False),
}


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
        instrumentation=Instrumentation(name=preset, **_PRESETS[preset]),
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
