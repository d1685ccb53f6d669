"""Culling copies to terminated parties moves nothing a run reports.

A full drain of a world with no observers, fault plan or reliable link
skips each per-copy delivery whose recipient has terminated by the time
the copy's window opens (``Simulator.cull_copies``), counts it as the
processed event and delivered message it would have been, and ends at
the latest instant any copy was given.  The heap oracle of
``tests/sim/heap_queue.py`` never culls: it builds every copy at push
and fires it.  The property below runs the same world on both and
requires every ``RunResult`` field — bar the calendar's own counters,
which the oracle does not keep, and ``copies_culled`` itself — and the
network's delivered count to agree, after each call of a split run
(``run(until=t)`` or ``run(max_events=k)``, then ``run()``) as well.

Its draws cover both headline protocols, uniform and fixed delays,
staggered starts, ids crashed from the start and hosted brains (a brain
that crashes mid-run, or two brains splitting the peers between them,
one of which may terminate while the other still listens).
"""
from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.adversary.behaviors import SplitBrainBehavior, crash_at
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import Crash, FaultPlan
from repro.sim.runner import World

#: What the heap oracle does not count, or never does.
CALENDAR_ONLY = ("bucket_appends", "heap_pushes_avoided", "copies_culled")


@st.composite
def scenarios(draw):
    protocol = draw(st.sampled_from(("brb", "vbb")))
    if protocol == "brb":
        f = draw(st.integers(1, 3))
        n = draw(st.integers(3 * f + 1, 3 * f + 3))
    else:
        f = draw(st.integers(1, 2))
        n = draw(st.integers(5 * f - 1, 5 * f + 1))
    offsets = None
    if draw(st.booleans()):
        offsets = draw(st.lists(
            st.sampled_from((0.0, 0.1, 0.3)), min_size=n, max_size=n,
        ))
    return dict(
        protocol=protocol, n=n, f=f,
        delay=draw(st.sampled_from(("uniform", "fixed"))),
        seed=draw(st.integers(0, 1000)),
        low=draw(st.sampled_from((0.05, 0.2, 0.45))),
        offsets=offsets,
        faulty=draw(st.frozensets(st.integers(1, n - 1), max_size=f)),
        hosts=draw(st.sampled_from(("none", "crash_at", "split_brain"))),
        crash=draw(st.sampled_from((0.3, 1.1, 2.5))),
        schedule=draw(st.sampled_from(("run", "until", "budget"))),
        until=draw(st.floats(0.0, 3.0)),
        budget=draw(st.integers(0, 300)),
    )


def _world(s, *, plan=None, preset="perf"):
    n = s["n"]
    if s["protocol"] == "brb":
        factory = Brb2Round.factory(broadcaster=0, input_value="v")
    else:
        factory = PsyncVbb5f1.factory(
            broadcaster=0, input_value="v", big_delta=1.0
        )
    behavior = None
    if s["hosts"] == "crash_at":
        behavior = crash_at(at=s["crash"], party_factory=factory)
    elif s["hosts"] == "split_brain":
        behavior = SplitBrainBehavior.factory(
            brain_factories={"low": factory, "high": factory},
            membership=lambda peer: "low" if peer < n // 2 else "high",
        )
    policy = (
        UniformDelay(s["low"], 1.0, seed=s["seed"], stream="counter")
        if s["delay"] == "uniform" else FixedDelay(s["low"] + 0.3)
    )
    world = World(
        n=n, f=s["f"], delay_policy=policy, byzantine=s["faulty"],
        start_offsets=s["offsets"], instrumentation=preset,
        fault_plan=plan,
    )
    world.populate(factory, behavior)
    return world


def _reports(world, s):
    """What each ``run`` call of the scenario's schedule reports."""
    calls = {
        "run": [{}],
        "until": [{"until": s["until"]}, {}],
        "budget": [{"max_events": s["budget"]}, {}],
    }[s["schedule"]]
    reports = []
    for kwargs in calls:
        result = asdict(world.run(**kwargs))
        culled = result["copies_culled"]
        for name in CALENDAR_ONLY:
            del result[name]
        reports.append((result, world.network.messages_delivered, culled))
    return reports


def _compare(scenario, reference_queue):
    culling = _reports(_world(scenario), scenario)
    with reference_queue():
        oracle = _reports(_world(scenario), scenario)
    assert [culled for *_, culled in oracle] == [0] * len(oracle)
    for (mine, delivered, _), (theirs, expected, _) in zip(culling, oracle):
        assert mine == theirs
        assert delivered == expected
    # Only the last call, the full drain, may cull.
    assert all(culled == 0 for *_, culled in culling[:-1])
    return culling[-1][2]


_SPLIT = dict(
    protocol="brb", n=10, f=3, delay="uniform", seed=3, low=0.05,
    offsets=None, faulty=frozenset({4}), hosts="split_brain", crash=0.3,
    schedule="run", until=0.0, budget=0,
)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios())
@example(scenario=_SPLIT)
@example(scenario={**_SPLIT, "hosts": "none", "schedule": "until",
                   "until": 1.2})
@example(scenario={**_SPLIT, "hosts": "crash_at", "schedule": "budget",
                   "budget": 150})
def test_culling_matches_the_heap_oracle(scenario, reference_queue):
    _compare(scenario, reference_queue)


class TestWhenCullingRuns:
    def test_a_full_drain_culls(self, reference_queue):
        assert _compare(_SPLIT, reference_queue) > 0

    @pytest.mark.parametrize("preset", ["perf", "full"])
    def test_only_unobserved_unfaulted_worlds_cull(self, preset):
        scenario = {**_SPLIT, "hosts": "none"}
        plan = FaultPlan(crashes=(Crash(party=9, at=5.0),), seed=1)
        plain = _world(scenario, preset=preset).run()
        planned = _world(scenario, plan=plan, preset=preset).run()
        assert (plain.copies_culled > 0) == (preset == "perf")
        assert planned.copies_culled == 0

    def test_sharded_runs_never_cull(self):
        world = World(
            n=10, f=3, delay_policy=UniformDelay(
                0.05, 1.0, seed=3, stream="counter"
            ),
            instrumentation="perf", shards=2,
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        result = world.run()
        assert result.shards == 2
        assert result.copies_culled == 0
