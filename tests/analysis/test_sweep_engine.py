"""Tests for the parallel sweep engine and its sweep wiring."""
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.engine import SweepEngine, SweepTask, point_seed
from repro.analysis.sweeps import (
    sweep_random_delays,
    sweep_sync_regimes,
)


def square(*, x):
    return x * x


def echo_seed(*, seed):
    return seed


def async_rounds(*, n, f):
    from repro.analysis.latency import measure_round_good_case
    from repro.protocols.brb_2round import Brb2Round

    return measure_round_good_case(Brb2Round, n=n, f=f).round_latency


def die_on_two(*, x):
    if x == 2:
        # Late enough that every other point has returned: the pool
        # breaks with this one the only point unfinished.
        time.sleep(0.3)
        os._exit(3)
    return x


def reject_two(*, x):
    if x == 2:
        raise ValueError(f"x={x} rejected")
    return x


class TestSweepEngine:
    def test_results_in_task_order(self):
        engine = SweepEngine()
        tasks = [SweepTask(square, dict(x=x)) for x in (3, 1, 2)]
        assert engine.run(tasks) == [9, 1, 4]

    def test_map_shorthand(self):
        engine = SweepEngine()
        assert engine.map(square, [dict(x=2), dict(x=5)]) == [4, 25]

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)

    def test_seed_injection_is_deterministic(self):
        engine = SweepEngine(base_seed=123)
        tasks = [
            SweepTask(echo_seed, key="a", inject_seed=True),
            SweepTask(echo_seed, key="b", inject_seed=True),
        ]
        first = engine.run(tasks)
        second = engine.run(tasks)
        assert first == second
        assert first[0] != first[1]  # distinct points, distinct seeds
        assert first[0] == point_seed(123, 0, "a")

    def test_explicit_seed_wins_over_injection(self):
        engine = SweepEngine(base_seed=123)
        task = SweepTask(echo_seed, dict(seed=7), key="a", inject_seed=True)
        assert engine.run([task]) == [7]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_names_its_key(self, workers):
        tasks = [
            SweepTask(reject_two, dict(x=x), key=("x", x)) for x in range(4)
        ]
        with pytest.raises(ValueError) as caught:
            SweepEngine(workers=workers).run(tasks)
        assert str(caught.value) == "sweep task ('x', 2): x=2 rejected"

    def test_dead_pool_worker_names_its_point(self):
        tasks = [
            SweepTask(die_on_two, dict(x=x), key=("x", x)) for x in range(4)
        ]
        began = time.monotonic()
        with pytest.raises(BrokenProcessPool) as caught:
            SweepEngine(workers=2).run(tasks)
        assert time.monotonic() - began < 5.0
        assert str(caught.value) == (
            "sweep task ('x', 2) (index 2): a pool worker died before the "
            "task returned"
        )
        assert multiprocessing.active_children() == []

    def test_parallel_matches_serial(self):
        tasks = [SweepTask(square, dict(x=x)) for x in range(6)]
        serial = SweepEngine(workers=1).run(tasks)
        parallel = SweepEngine(workers=2).run(tasks)
        assert serial == parallel == [x * x for x in range(6)]


class TestSweepWiring:
    def test_async_rounds_through_parallel_engine(self):
        """Round accounting runs the same inside pool workers."""
        configs = [dict(n=4, f=1), dict(n=5, f=1)]
        serial = SweepEngine().map(async_rounds, configs)
        parallel = SweepEngine(workers=2).map(async_rounds, configs)
        assert serial == parallel == [2, 2]

    def test_random_delay_sweep_reproduces_at_any_worker_count(self):
        serial = sweep_random_delays(n=4, f=1, samples=3)
        parallel = sweep_random_delays(
            n=4, f=1, samples=3, engine=SweepEngine(workers=2)
        )
        assert serial == parallel
        assert all(r["all_committed"] for r in serial)
        # Distinct per-point seeds => (almost surely) distinct executions.
        assert len({r["latency"] for r in serial}) > 1
        # A different base_seed draws a different sample.
        reseeded = sweep_random_delays(
            n=4, f=1, samples=3, engine=SweepEngine(base_seed=9)
        )
        assert [r["latency"] for r in reseeded] != [
            r["latency"] for r in serial
        ]

    def test_sync_regimes_instrumentation_invariant(self):
        # Latency measurements must not depend on the observability mode.
        full = sweep_sync_regimes(deltas=[0.25])
        perf = sweep_sync_regimes(deltas=[0.25], instrumentation="perf")
        for name in full:
            assert [p.latency for p in full[name]] == [
                p.latency for p in perf[name]
            ]
