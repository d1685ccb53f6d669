"""Shard-count independence parity suite.

Sharded execution (``World(shards=k)``) is a pure performance mode: the
same configuration must yield the same ``RunResult`` outcomes — commits,
commit times, final time — and the same merged schedule-invariant
counters (``messages_sent``, ``events_processed``, ``quorum_checks``)
for every shard count, preset and event queue (the calendar or the
heap oracle).  Counters that
describe *how* work was batched locally (``deliveries_batched``,
``bucket_appends``) legitimately differ: a shard only batches its local
slice of a fan-out.

The suite also pins the forced-``shards=1`` rules — every feature whose
semantics need global per-copy visibility must silently fall back, while
an invariant battery, judged after the run, forces nothing — and the
coordinator's zero-delay convergence (same-instant cross-shard
cascades re-step until quiescent).
"""
import multiprocessing
import os
import signal
import time
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.crypto.messages import digest
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    SimulationError,
)
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim import coordinator
from repro.sim.coordinator import shard_bounds
from repro.sim.delays import FixedDelay, GstDelay, PerLinkDelay, UniformDelay
from repro.sim.faults import (
    Crash,
    DropLink,
    DuplicateLink,
    FaultPlan,
    Holdback,
    ReorderJitter,
)
from repro.sim.instrumentation import Instrumentation
from repro.sim.invariants import judge, standard_monitors
from repro.sim.network import Network
from repro.sim.runner import World, run_broadcast

CASES = {
    "brb_2round": (Brb2Round, 13, 4, {}),
    "vbb_5f1": (PsyncVbb5f1, 11, 2, {"big_delta": 1.0}),
}

#: RunResult fields that must be identical for every shard count.
INVARIANT_FIELDS = (
    "commits",
    "commit_global_times",
    "final_time",
    "messages_sent",
    "events_processed",
    "quorum_checks",
    "votes_batched",
    "equivocations_detected",
)

#: Fault-engine counters: schedule-invariant too once the plan draws
#: from counter streams (each link's injections are a pure hash, so the
#: executor split cannot move them).
FAULT_FIELDS = (
    "faults_injected",
    "messages_dropped",
    "messages_duplicated",
    "messages_held",
)


def _counter_plan(n: int) -> FaultPlan:
    """A rich tolerated counter-stream plan: one recovering crash plus
    every link-local primitive (drop, duplicate echo, jitter, holdback)
    so the parity suite exercises each injector seam across shards.
    """
    return FaultPlan(
        crashes=(Crash(party=n - 1, at=0.5, recover=2.5),),
        drops=(DropLink(src=n - 1, prob=0.2, start=2.5, end=4.0),),
        duplicates=(
            DuplicateLink(start=0.0, end=3.0, prob=0.2, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.3, start=0.0, end=3.0),),
        holdbacks=(
            Holdback(src=1, dst=2, start=0.0, end=2.0, flush_delay=0.1),
        ),
        seed=21,
        stream="counter",
    )


class _Recommitter(Brb2Round):
    """Party 5 re-commits ``"other"`` right after its first commit."""

    def commit(self, value):
        super().commit(value)
        if self.id == 5:
            super().commit("other")


def _perf():
    return Instrumentation(observe=False)


def _queue(timeline, reference_queue):
    """The ``timeline`` axis: ``"heap"`` runs the whole world — forked
    workers included — on the reference queue, ``"bucket"`` on the
    production calendar."""
    return reference_queue() if timeline == "heap" else nullcontext()


def _run(case, *, shards, instrumentation, delay=None, **kwargs):
    protocol, n, f, extra = CASES[case]
    return run_broadcast(
        n=n,
        f=f,
        party_factory=protocol.factory(
            broadcaster=0, input_value="v", **extra
        ),
        delay_policy=delay if delay is not None else FixedDelay(1.0),
        instrumentation=instrumentation,
        shards=shards,
        **kwargs,
    )


class TestShardBounds:
    def test_partition_covers_every_party_once(self):
        for n in (2, 3, 10, 17, 10001):
            for k in (1, 2, 3, 4, 7):
                if k > n:
                    continue
                bounds = shard_bounds(n, k)
                assert len(bounds) == k
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1


class TestShardCountIndependence:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("timeline", ["bucket", "heap"])
    def test_perf_preset_parity(self, case, timeline, reference_queue):
        with _queue(timeline, reference_queue):
            baseline = _run(case, shards=1, instrumentation=_perf())
            assert baseline.shards == 1
            assert baseline.shard_batches_exchanged == 0
            assert baseline.all_honest_committed()
            for shards in (2, 4):
                result = _run(case, shards=shards, instrumentation=_perf())
                assert result.shards == shards
                assert result.shard_batches_exchanged > 0
                # The workers really ran on the requested queue.
                assert (result.bucket_appends > 0) == (timeline == "bucket")
                for field in INVARIANT_FIELDS:
                    assert getattr(result, field) == getattr(
                        baseline, field
                    ), field

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_deliveries_off_parity(self, case):
        # The per-copy path, forced the way production forces it.  On one
        # process: the observers (they refuse sharding, so this is the
        # shards=1 reference).  Across shards: a compiled-in (empty)
        # counter-stream plan, whose injector routes every copy.
        observed = _run(case, shards=1, instrumentation=Instrumentation())
        folded = _run(case, shards=1, instrumentation=_perf())
        routed = _run(
            case, shards=2, instrumentation=_perf(),
            fault_plan=FaultPlan(stream="counter"),
        )
        assert routed.shards == 2
        assert folded.deliveries_batched > 0
        assert observed.deliveries_batched == 0
        assert routed.deliveries_batched == 0
        for field in INVARIANT_FIELDS:
            assert getattr(observed, field) == getattr(folded, field), field
            assert getattr(routed, field) == getattr(folded, field), field

    def test_per_link_delay_parity(self):
        protocol, n, f, _ = CASES["brb_2round"]
        links = {
            (s, r): 0.5 + ((3 * s + 5 * r) % 7) * 0.25
            for s in range(n)
            for r in range(n)
            if s != r
        }
        delay = PerLinkDelay(links, default=1.0)
        results = [
            _run(
                "brb_2round", shards=k, instrumentation="perf", delay=delay
            )
            for k in (1, 2, 4)
        ]
        baseline = results[0]
        assert baseline.all_honest_committed()
        for result in results[1:]:
            for field in INVARIANT_FIELDS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_zero_delay_cascades_converge(self):
        # All-zero delays make every cross-shard cascade land at the
        # same instant: the coordinator must re-step t=0 to quiescence.
        # A copy landing in a re-step fires after the destination's own
        # t=0 events, unlike the single-process interleaving, so only
        # outcomes are pinned.
        baseline = _run(
            "brb_2round", shards=1, instrumentation="perf",
            delay=FixedDelay(0.0),
        )
        result = _run(
            "brb_2round", shards=2, instrumentation="perf",
            delay=FixedDelay(0.0),
        )
        assert result.shards == 2
        assert result.commits == baseline.commits
        assert result.commit_global_times == baseline.commit_global_times
        assert result.final_time == baseline.final_time == 0.0
        assert result.messages_sent == baseline.messages_sent

    def test_crash_from_start_byzantine_parity(self):
        byzantine = frozenset({3, 7})
        results = [
            _run(
                "brb_2round", shards=k, instrumentation="perf",
                byzantine=byzantine,
            )
            for k in (1, 2, 4)
        ]
        baseline = results[0]
        assert baseline.all_honest_committed()
        assert set(baseline.commits) == set(range(13)) - byzantine
        for result in results[1:]:
            assert result.shards > 1
            for field in INVARIANT_FIELDS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_until_horizon_parity(self):
        baseline = _run(
            "brb_2round", shards=1, instrumentation="perf", until=1.5
        )
        result = _run(
            "brb_2round", shards=2, instrumentation="perf", until=1.5
        )
        assert result.shards == 2
        assert baseline.final_time == result.final_time == 1.5
        assert result.commits == baseline.commits
        assert result.messages_sent == baseline.messages_sent
        assert result.events_processed == baseline.events_processed


class TestCounterStreamParity:
    """Randomized-schedule parity: counter streams across shard counts.

    Counter-stream ``UniformDelay`` (and counter-stream fault plans)
    price every copy as a pure per-link hash, so shards ∈ {1, 2, 4}
    must replay the identical schedule — including every fault-engine
    counter when a plan is attached.
    """

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("timeline", ["bucket", "heap"])
    @pytest.mark.parametrize("with_plan", [False, True])
    def test_counter_delay_parity(
        self, case, timeline, with_plan, reference_queue
    ):
        with _queue(timeline, reference_queue):
            self._check_counter_delay_parity(case, with_plan)

    def _check_counter_delay_parity(self, case, with_plan):
        _, n, _, _ = CASES[case]
        delay = lambda: UniformDelay(  # noqa: E731
            0.05, 1.0, seed=17, stream="counter"
        )
        plan = _counter_plan(n) if with_plan else None
        baseline = _run(
            case, shards=1, instrumentation=_perf(),
            delay=delay(), fault_plan=plan,
        )
        assert baseline.shards == 1
        assert baseline.shard_fallback_reason is None
        if with_plan:
            assert baseline.faults_injected > 0
            assert baseline.messages_duplicated > 0
            assert baseline.messages_held > 0
        fields = INVARIANT_FIELDS + (FAULT_FIELDS if with_plan else ())
        for shards in (2, 4):
            result = _run(
                case, shards=shards, instrumentation=_perf(),
                delay=delay(), fault_plan=plan,
            )
            assert result.shards == shards
            assert result.shard_batches_exchanged > 0
            for field in fields:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_wire_counters_meter_the_barrier(self):
        single = _run("brb_2round", shards=1, instrumentation="perf")
        assert single.shard_bytes_sent == 0
        assert single.shard_barrier_rounds == 0
        sharded = _run("brb_2round", shards=2, instrumentation="perf")
        assert sharded.shard_bytes_sent > 0
        assert sharded.shard_barrier_rounds > 0
        # Coalescing: rounds only count workers actually stepped, so the
        # round tally can never exceed one per exchanged batch plus the
        # per-instant convergence rounds — sanity-bound it loosely.
        assert sharded.shard_barrier_rounds <= (
            sharded.shard_batches_exchanged + sharded.events_processed
        )


class TestMessageParity:
    """What parties *send*, not only what they end with: every send at
    every instant must be the single-process one for every shard count.

    Each worker runs one calendar, so cross-shard copies interleave with
    local ones in the single-process ``(time, digest)`` order and every
    party builds the same messages (e.g. the same quorum-forward masks).
    """

    CASES = {
        "brb_n101": (Brb2Round, 101, 33, {}),
        "vbb_n41": (PsyncVbb5f1, 41, 8, {"big_delta": 1.0}),
    }
    DELAYS = {
        "fixed": lambda: FixedDelay(1.0),
        "counter_uniform": lambda: UniformDelay(
            0.05, 1.0, seed=17, stream="counter"
        ),
    }

    @staticmethod
    def _record_sends(monkeypatch):
        """Patch ``Network.send`` / ``multicast`` to log ``(now, sender,
        payload digest)`` per call into ``target["dir"]``, one file per
        process: forked workers inherit the patch and the target."""
        target = {"dir": None}

        def logged(method):
            def call(self, sender, *args, **kwargs):
                line = f"{self._sim.now!r} {sender} {digest(args[-1]).hex()}"
                path = target["dir"] / f"{os.getpid()}.log"
                with open(path, "a") as log:
                    log.write(line + "\n")
                return method(self, sender, *args, **kwargs)

            return call

        monkeypatch.setattr(Network, "send", logged(Network.send))
        monkeypatch.setattr(Network, "multicast", logged(Network.multicast))
        return target

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("delay", sorted(DELAYS))
    @pytest.mark.parametrize("staggered", [False, True])
    def test_sends_match_single_process(
        self, case, delay, staggered, monkeypatch, tmp_path
    ):
        protocol, n, f, extra = self.CASES[case]
        offsets = [0.1 * (p % 3) for p in range(n)] if staggered else None
        target = self._record_sends(monkeypatch)
        sends = {}
        for shards in (1, 2, 3):
            target["dir"] = tmp_path / f"shards{shards}"
            target["dir"].mkdir()
            result = run_broadcast(
                n=n, f=f,
                party_factory=protocol.factory(
                    broadcaster=0, input_value="v", **extra
                ),
                delay_policy=self.DELAYS[delay](),
                start_offsets=offsets,
                instrumentation="perf",
                shards=shards,
            )
            assert result.shards == shards
            assert result.shard_fallback_reason is None
            assert result.all_honest_committed()
            sends[shards] = Counter(
                line
                for path in target["dir"].glob("*.log")
                for line in path.read_text().splitlines()
            )
        assert sends[1]
        assert sends[2] == sends[1]
        assert sends[3] == sends[1]


class TestWorkerFailure:
    def test_killed_worker_names_its_shard(self):
        # A worker that dies without a traceback frame (OOM kill,
        # ``os._exit``) just closes its pipe; the coordinator must say
        # which shard died and how, not surface a bare ``EOFError``.
        # With shards=2 the factory only ever runs inside the workers.
        world = World(
            n=7, f=2, delay_policy=FixedDelay(1.0),
            instrumentation="perf", shards=2,
        )
        world.populate(lambda world, pid: os._exit(3))
        assert world.shards == 2
        with pytest.raises(
            SimulationError,
            match=r"shard 0 \(parties \[0, 4\)\) died .* exit code 3",
        ):
            world.run()

    def test_stopped_worker_times_out_and_is_reaped(self, monkeypatch):
        # A worker that stops (SIGSTOP) neither answers nor closes its
        # pipe, and ignores SIGTERM while stopped: the coordinator must
        # give up after its receive deadline, name the shard, and still
        # leave no child process behind.
        monkeypatch.setattr(coordinator, "_RECV_TIMEOUT_SECONDS", 1.0)
        honest = Brb2Round.factory(broadcaster=0, input_value="v")

        def factory(world, pid):
            if pid == 6:
                os.kill(os.getpid(), signal.SIGSTOP)
            return honest(world, pid)

        world = World(
            n=12, f=3, delay_policy=FixedDelay(1.0),
            instrumentation="perf", shards=2,
        )
        world.populate(factory)
        assert world.shards == 2
        began = time.monotonic()
        with pytest.raises(
            SimulationError,
            match=r"shard 1 \(parties \[6, 12\)\) sent nothing .* "
            r"barrier round 0",
        ):
            world.run()
        assert time.monotonic() - began < 1.0 + 5.0
        assert multiprocessing.active_children() == []

    def test_raising_handler_names_its_shard_and_round(self):
        # A handler that raises mid-run ships its traceback as an error
        # frame; the coordinator must name the shard, its party range
        # and the barrier round as it does for a dead or silent worker.
        class Raising(Brb2Round):
            def _on_vote(self, signed_vote):
                if self.id == 9:
                    1 / 0
                super()._on_vote(signed_vote)

        world = World(
            n=12, f=3, delay_policy=FixedDelay(1.0),
            instrumentation="perf", shards=2,
        )
        world.populate(Raising.factory(broadcaster=0, input_value="v"))
        assert world.shards == 2
        began = time.monotonic()
        with pytest.raises(
            SimulationError,
            match=r"(?s)shard 1 \(parties \[6, 12\)\) failed in barrier "
            r"round \d+:\n.*ZeroDivisionError",
        ):
            world.run()
        assert time.monotonic() - began < 5.0
        assert multiprocessing.active_children() == []

    def test_corrupt_payload_frame_names_its_source_shard(self, monkeypatch):
        # The coordinator forwards payload frames unread, so a frame
        # corrupted on the way only fails when the destination worker
        # decodes it: the error must name that worker and the shard the
        # frame came from.  Shard 0 holds the broadcaster, so its
        # proposal is the first frame to cross (to shard 1).
        real_recv = coordinator._recv

        def corrupting(*args, raw=False, **kwargs):
            frame = real_recv(*args, raw=raw, **kwargs)
            return frame[: len(frame) // 2] if raw else frame

        monkeypatch.setattr(coordinator, "_recv", corrupting)
        world = World(
            n=12, f=3, delay_policy=FixedDelay(1.0),
            instrumentation="perf", shards=2,
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        assert world.shards == 2
        began = time.monotonic()
        with pytest.raises(
            SimulationError,
            match=r"(?s)shard 1 \(parties \[6, 12\)\) failed in barrier "
            r"round \d+:\n.*payload frame from source shard 0\b",
        ):
            world.run()
        assert time.monotonic() - began < 5.0
        assert multiprocessing.active_children() == []


class TestForcedSingleProcess:
    def _world(self, *, shards=4, **kwargs):
        kwargs.setdefault("n", 7)
        kwargs.setdefault("f", 2)
        kwargs.setdefault("delay_policy", FixedDelay(1.0))
        kwargs.setdefault("instrumentation", "perf")
        return World(shards=shards, **kwargs)

    def _populate(self, world, behavior_factory=None):
        world.populate(
            Brb2Round.factory(broadcaster=0, input_value="v"),
            behavior_factory,
        )
        return world.shards

    def test_requested_one_stays_one(self):
        world = self._world(shards=1)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason is None

    def test_sharded_when_nothing_forces(self):
        world = self._world()
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_clamped_to_n(self):
        world = self._world(shards=100)
        assert self._populate(world) == 7
        assert world.shard_fallback_reason is None

    def test_full_instrumentation_forces_one(self):
        world = self._world(instrumentation="full")
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "observers"

    def test_unsafe_delay_policy_forces_one(self):
        world = self._world(delay_policy=UniformDelay(0.5, 1.0, seed=7))
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "delay-policy"

    def test_counter_stream_delay_policy_shards(self):
        world = self._world(
            delay_policy=UniformDelay(0.5, 1.0, seed=7, stream="counter")
        )
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_sequential_fault_plans_force_one(self):
        plan = FaultPlan(crashes=(Crash(party=1, at=0.5),), seed=3)
        world = self._world(fault_plan=plan)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "fault-plan"

    def test_counter_fault_plan_shards(self):
        plan = FaultPlan(
            crashes=(Crash(party=1, at=0.5),), seed=3, stream="counter"
        )
        world = self._world(fault_plan=plan)
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_gst_wrapping_unsafe_policy_forces_one(self):
        unsafe = GstDelay(
            gst=2.0, big_delta=1.0,
            pre_gst=UniformDelay(0.5, 1.0, seed=7),
        )
        world = self._world(delay_policy=unsafe)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "delay-policy"

    def test_gst_wrapping_safe_policy_shards(self):
        safe = GstDelay(gst=2.0, big_delta=1.0, pre_gst=FixedDelay(0.5))
        assert self._populate(self._world(delay_policy=safe)) == 4

    def test_staggered_starts_shard_with_parity(self):
        results = {}
        for shards in (1, 2, 4):
            world = self._world(
                shards=shards,
                start_offsets=[0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0],
            )
            assert self._populate(world) == shards
            assert world.shard_fallback_reason is None
            results[shards] = world.run()
            assert results[shards].shards == shards
        assert results[1].all_honest_committed()
        for shards in (2, 4):
            for field in INVARIANT_FIELDS:
                assert getattr(results[shards], field) == getattr(
                    results[1], field
                ), (shards, field)

    def test_behavior_factory_forces_one(self):
        from repro.sim.process import Agent

        class Silent(Agent):
            def __init__(self, world, pid):
                self.world, self.id = world, pid

            def start(self):
                pass

            def deliver(self, sender, payload):
                pass

        world = self._world(byzantine=frozenset({3}))
        assert self._populate(world, lambda w, p: Silent(w, p)) == 1
        assert world.shard_fallback_reason == "behavior-factory"

    @pytest.mark.parametrize(
        "factory, plan, expected",
        [
            (Brb2Round, FaultPlan(stream="counter"), None),
            (Brb2Round, FaultPlan(
                crashes=(Crash(1, 0.0), Crash(2, 0.0), Crash(3, 0.0)),
                stream="counter",
            ), ("termination", 0)),
            (_Recommitter, FaultPlan(stream="counter"), ("integrity", 5)),
        ],
        ids=["clean", "over-budget-crashes", "rigged-recommit"],
    )
    def test_battery_verdict_independent_of_shard_count(
        self, factory, plan, expected
    ):
        """Monitors force nothing: the battery judges the merged result
        after the run, and names the same breach (or none) whether one
        process or two produced it."""
        verdicts = set()
        for shards in (1, 2):
            world = self._world(shards=shards, fault_plan=plan)
            world.populate(factory.factory(broadcaster=0, input_value="v"))
            result = world.run(until=20.0)
            assert result.shards == shards
            assert result.shard_fallback_reason is None
            try:
                judge(
                    standard_monitors(expected="v", deadline=20.0),
                    world, result,
                )
                verdicts.add(None)
            except InvariantViolation as exc:
                verdicts.add((exc.invariant, exc.party))
        assert verdicts == {expected}

    def test_fallback_reason_surfaces_on_run_result(self):
        result = _run(
            "brb_2round", shards=4, instrumentation="perf",
            delay=UniformDelay(0.5, 1.0, seed=7),
        )
        assert result.shards == 1
        assert result.shard_fallback_reason == "delay-policy"
        granted = _run("brb_2round", shards=2, instrumentation="perf")
        assert granted.shards == 2
        assert granted.shard_fallback_reason is None

    def test_max_events_rejected_when_sharded(self):
        world = self._world()
        self._populate(world)
        with pytest.raises(ConfigurationError):
            world.run(max_events=10)

    @pytest.mark.parametrize("shards", [0, -3])
    def test_shards_below_one_rejected(self, shards):
        """``shards=-3`` used to run as ``shards=1`` with no fallback
        reason recorded."""
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            _run("brb_2round", shards=shards, instrumentation="perf")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_bad_run_bounds_rejected_before_anything_runs(self, shards):
        """A sharded ``run(until=nan)`` used to run to completion: the
        coordinator's ``step_time > until`` is never true against NaN.
        A sharded ``run(until=-1.0)`` used to return ``final_time=-1.0``
        and no commits.  Both executors share the one bounds check."""
        world = self._world(shards=shards)
        assert self._populate(world) == shards
        with pytest.raises(SimulationError, match="NaN"):
            world.run(until=float("nan"))
        with pytest.raises(SimulationError, match="before now"):
            world.run(until=-1.0)
        with pytest.raises(SimulationError, match="max_events"):
            world.run(max_events=-1)
        assert world.sim.now == 0.0 and world.sim.events_processed == 0
        assert world.run().all_honest_committed()
