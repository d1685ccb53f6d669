"""The event loop runs with the cyclic garbage collector paused, and no
run leaves cyclic garbage behind.

``Simulator._drain`` switches CPython's cyclic collector off for the
whole loop and back on only if its caller had it on.  Reference counting
keeps freeing every acyclic object, so the pause is safe exactly while a
run makes no reference cycles; the grid below pins that across the delay
models (a zero lookahead, and a run cut while fan-out slices are parked
in the calendar), the fault engine, held copies released late, the
``full`` observers, a view change and a lower-bound witness, and the
negative control shows that the check does see a cycle when a handler
makes one.
"""
import gc
import os

import pytest

from repro.analysis.chaos import run_chaos_plan, viewchange_smoke_plans
from repro.errors import SimulationError
from repro.lowerbounds import run_witness
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import (
    Crash,
    DuplicateLink,
    FaultPlan,
    Holdback,
    ReorderJitter,
)
from repro.sim.runner import World, run_broadcast
from repro.sim.scheduler import Simulator


@pytest.fixture(autouse=True)
def collector_on():
    """Start every case with the collector on and leave it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _run_recording(sim: Simulator, seen: list) -> None:
    sim.schedule_at(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()


class TestPause:
    def test_handler_runs_with_the_collector_off(self):
        seen = []
        _run_recording(Simulator(), seen)
        assert seen == [False]

    def test_collector_is_back_on_after_a_run(self):
        seen = []
        _run_recording(Simulator(), seen)
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_is_back_on_after_a_handler_raises(self):
        sim = Simulator()
        seen = []

        def boom():
            seen.append(gc.isenabled())
            raise ZeroDivisionError

        sim.schedule_at(1.0, boom)
        with pytest.raises(ZeroDivisionError):
            sim.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_collector_stays_off_when_the_caller_turned_it_off(self):
        gc.disable()
        seen = []
        _run_recording(Simulator(), seen)
        assert seen == [False]
        assert not gc.isenabled()

    @pytest.mark.parametrize("inside", [False, True])
    def test_refused_reentrant_drain_leaves_the_collector_alone(self, inside):
        # ``inside`` is the state the handler holds when it re-enters:
        # the loop's own (off), or turned back on by the handler itself.
        # Either way the refused nested call must not change it.
        sim = Simulator()
        seen = []

        def reenter():
            if inside:
                gc.enable()
            before = gc.isenabled()
            with pytest.raises(SimulationError, match="not re-entrant"):
                sim.run()
            seen.append((before, gc.isenabled()))
            gc.disable()

        sim.schedule_at(1.0, reenter)
        sim.run()
        assert seen == [(inside, inside)]
        assert gc.isenabled()

    def test_sharded_worker_runs_with_the_collector_off(
        self, monkeypatch, tmp_path
    ):
        # Forked workers inherit the patch; each process logs what its
        # handlers saw into its own file.
        original = Brb2Round.on_message

        def on_message(self, sender, payload):
            with open(tmp_path / f"{os.getpid()}.log", "a") as log:
                log.write(f"{gc.isenabled()}\n")
            return original(self, sender, payload)

        monkeypatch.setattr(Brb2Round, "on_message", on_message)
        result = run_broadcast(
            n=12, f=3,
            party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
            delay_policy=FixedDelay(1.0),
            instrumentation="perf",
            shards=2,
        )
        assert result.shards == 2
        assert result.all_honest_committed()
        logs = {
            int(path.stem): set(path.read_text().split())
            for path in tmp_path.glob("*.log")
        }
        assert os.getpid() not in logs
        assert len(logs) == 2
        assert all(seen == {"False"} for seen in logs.values())


@pytest.fixture
def cyclic_garbage(monkeypatch):
    """Patch ``World.run`` to record, per run, the unreachable objects
    the collector finds from a ``gc.collect()`` just before the run to
    one just after it, while the world is still alive.

    Collections that run inside that span count too: the loop's
    allocations pile up while it is paused, so the first allocation
    after it (building the result) triggers a young collection that
    would otherwise clear a cycle before the final ``gc.collect()``.
    """
    found = []
    real_run = World.run

    def run(self, *args, **kwargs):
        gc.collect()
        unreachable = []

        def note(phase, info):
            if phase == "stop":
                unreachable.append(info["collected"] + info["uncollectable"])

        gc.callbacks.append(note)
        try:
            result = real_run(self, *args, **kwargs)
            gc.collect()
        finally:
            gc.callbacks.remove(note)
        found.append(sum(unreachable))
        return result

    monkeypatch.setattr(World, "run", run)
    return found


def _brb(**kwargs):
    kwargs.setdefault("instrumentation", "perf")
    return run_broadcast(
        n=31, f=10,
        party_factory=Brb2Round.factory(broadcaster=0, input_value="v"),
        **kwargs,
    )


def _brb_uniform():
    result = _brb(
        delay_policy=UniformDelay(0.05, 1.0, seed=7, stream="counter")
    )
    assert result.all_honest_committed()


def _brb_uniform_cut():
    # Stopped mid-run, so the collection runs while fan-out slices are
    # still parked in closed calendar windows.
    world = World(
        n=31, f=10,
        delay_policy=UniformDelay(0.05, 1.0, seed=7, stream="counter"),
        instrumentation="perf",
    )
    world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
    world.run(until=0.6)
    assert world.sim._queue._deferred


def _zero_lookahead():
    # No lookahead: every window is one instant and no copy is deferred.
    result = _brb(
        delay_policy=UniformDelay(0.0, 1.0, seed=7, stream="counter")
    )
    assert result.all_honest_committed()


def _vbb_fixed():
    result = run_broadcast(
        n=31, f=6,
        party_factory=PsyncVbb5f1.factory(
            broadcaster=0, input_value="v", big_delta=1.0
        ),
        delay_policy=FixedDelay(1.0),
        instrumentation="perf",
    )
    assert result.all_honest_committed()


def _counter_fault_plan():
    plan = FaultPlan(
        crashes=(Crash(3, 0.5),),
        duplicates=(DuplicateLink(prob=0.3, end=3.0, echo_delay=0.1),),
        jitters=(ReorderJitter(jitter=0.5, end=3.0),),
        seed=5,
        stream="counter",
    )
    row = run_chaos_plan("brb_2round", plan)
    assert row["violation"] is None
    assert row["messages_duplicated"] > 0


def _held_then_released():
    plan = FaultPlan(
        holdbacks=(Holdback(dst=3, start=0.0, end=4.0, flush_delay=0.5),),
        seed=11,
    )
    row = run_chaos_plan("brb_2round", plan)
    assert row["violation"] is None
    assert row["messages_held"] > 0


def _full_preset():
    result = _brb(delay_policy=FixedDelay(1.0), instrumentation="full")
    assert result.all_honest_committed()


def _view_change():
    protocol, plan = viewchange_smoke_plans()[0]
    row = run_chaos_plan(protocol, plan, tier="viewchange")
    assert row["violation"] is None
    assert row["max_commit_view"] >= 2


def _witness():
    assert run_witness("thm04").violation is not None


GRID = {
    "brb_uniform_counter": _brb_uniform,
    "brb_uniform_cut_with_parked_slices": _brb_uniform_cut,
    "zero_lookahead_counter": _zero_lookahead,
    "vbb_fixed": _vbb_fixed,
    "fault_plan_counter": _counter_fault_plan,
    "holdback_release": _held_then_released,
    "full_preset": _full_preset,
    "view_change": _view_change,
    "witness_thm04": _witness,
}


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("case", sorted(GRID))
    def test_run_leaves_no_cycles(self, case, cyclic_garbage):
        GRID[case]()
        assert cyclic_garbage
        assert cyclic_garbage == [0] * len(cyclic_garbage)

    def test_check_sees_a_cycle_made_per_delivery(
        self, cyclic_garbage, monkeypatch
    ):
        original = Brb2Round.on_message
        calls = []

        def on_message(self, sender, payload):
            cycle = []
            cycle.append(cycle)
            calls.append(None)
            return original(self, sender, payload)

        monkeypatch.setattr(Brb2Round, "on_message", on_message)
        result = _brb(delay_policy=FixedDelay(1.0))
        assert result.all_honest_committed()
        assert calls
        # Exactly the lists the handler made: one per delivery.
        assert cyclic_garbage == [len(calls)]
