"""The broadcaster's direct copy may arrive after a forwarded one (Fig 8, 9).

Table 1 is measured at ``FixedDelay(delta)``, where the broadcaster's
direct copy of the proposal always lands first (``delta`` against at
least ``2 * delta`` for a forwarded one).  Under per-copy random delays a
forwarded copy can overtake it; the direct copy still arrives by local
``Delta + sigma`` and must still set ``direct_rcv``, or the party misses
the commit rule and waits for the BA at ``6.5 * Delta + 2 * sigma``.  A
late direct copy of *another* value is an equivocation and sets nothing.
"""
import pytest

from repro.adversary.broadcaster import equivocating_broadcaster
from repro.analysis.table1 import FIGURES, TOLERANCE
from repro.sim.delays import PerLinkDelay, UniformDelay
from repro.sim.runner import World, run_broadcast

DELTA, BIG_DELTA = 0.5, 1.0
SEEDS = range(40)


@pytest.mark.parametrize("figure", ["[4]", "Fig 9"])
def test_every_party_commits_within_the_row_bound(figure):
    row = FIGURES[figure]
    m = row.kwargs.get("grid_samples")
    bound = (
        row.expected(DELTA, BIG_DELTA, row.n, row.f)
        + (BIG_DELTA / (2 * m) if m else 0.0)
        + TOLERANCE
    )
    late = {}
    for seed in SEEDS:
        result = run_broadcast(
            n=row.n,
            f=row.f,
            party_factory=row.protocol.factory(
                broadcaster=0, input_value="v", big_delta=BIG_DELTA,
                **row.kwargs,
            ),
            delay_policy=UniformDelay(
                0.0, DELTA, seed=seed, stream="counter"
            ),
            start_offsets=[0.0] * row.n,
            until=200.0,
        )
        assert result.all_honest_committed(), seed
        assert result.committed_value() == "v", seed
        if result.latency_from(0.0) > bound:
            late[seed] = result.commit_global_times
    assert late == {}, f"{len(late)}/{len(SEEDS)} seeds over {bound}"


@pytest.mark.parametrize("figure", ["[4]", "Fig 9"])
def test_late_direct_copy_of_another_value_sets_nothing(figure):
    # Party 3 first hears "v" forwarded at 0.2; the Byzantine broadcaster's
    # own copy to it carries "w" and lands at 1.5 <= Delta + sigma.
    cls = FIGURES[figure].protocol
    world = World(
        n=5,
        f=2,
        delay_policy=PerLinkDelay({(0, 3): 1.5}, default=0.1),
        byzantine=frozenset({0}),
    )
    world.populate(
        cls.factory(broadcaster=0, input_value="v", big_delta=BIG_DELTA),
        equivocating_broadcaster(
            make_broadcaster=lambda w, pid, value: cls(
                w, pid, broadcaster=0, input_value=value, big_delta=BIG_DELTA
            ),
            groups={"v": frozenset({1, 2, 4}), "w": frozenset({3})},
        ),
    )
    result = world.run(until=100.0)
    party = world.agents[3]
    assert (party.t_prop, party.equivocation_detected_at) == (0.2, 1.5)
    assert not party.direct_rcv
    assert all(world.agents[p].direct_rcv for p in (1, 2, 4))
    assert set(result.commits.values()) == {"v"}
