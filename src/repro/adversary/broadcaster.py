"""Adversarial broadcaster strategies.

The canonical attack in every lower bound is the *equivocating
broadcaster*: behave like an honest broadcaster with input ``v_a`` toward
group ``A`` and like an honest broadcaster with input ``v_b`` toward group
``B``.  :func:`equivocating_broadcaster` builds that adversary for any
protocol whose party class takes an ``input_value`` keyword.
"""
from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.adversary.behaviors import SplitBrainBehavior
from repro.sim.process import Party
from repro.sim.runner import BehaviorFactory
from repro.types import PartyId, Value

#: (world, pid, input_value) -> Party — builds an honest broadcaster
#: instance of the protocol under attack with the given input.
BroadcasterFactory = Callable[[Any, PartyId, Value], Party]


def equivocating_broadcaster(
    *,
    make_broadcaster: BroadcasterFactory,
    groups: Mapping[Value, frozenset[PartyId]],
) -> BehaviorFactory:
    """Behavior factory: split-brain honest broadcaster, one value per group.

    Parties not covered by any group hear nothing from the broadcaster.
    """
    covered: set[PartyId] = set()
    for members in groups.values():
        overlap = covered & members
        if overlap:
            raise ValueError(f"groups overlap on parties {sorted(overlap)}")
        covered |= members

    def membership(party: PartyId) -> Value | None:
        for value, members in groups.items():
            if party in members:
                return value
        return None

    return SplitBrainBehavior.factory(
        brain_factories={
            value: lambda world, pid, v=value: make_broadcaster(world, pid, v)
            for value in groups
        },
        membership=membership,
    )
