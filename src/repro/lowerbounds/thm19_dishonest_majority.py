"""Theorem 19 witness: dishonest-majority BRB needs
``(floor(n/(n-f)) - 1) * Delta`` in the good case (Figure 12).

The chain construction: parties form groups ``G_0 .. G_d`` (here
singletons, ``n = 6``, ``f = 4``, ``h = n - f = 2``, ``d = 2*floor(n/h)-1
= 5``); Byzantine parties behave honestly but only talk to their chain
neighbours, with every hop costing ``Delta``.  Information about the
far end of the chain therefore needs ``(d-1)/2`` hops to reach the
middle, i.e. ``(floor(n/h) - 1) * Delta = 2 * Delta`` here.

A strawman that commits at ``1.5 * Delta`` (based on what it has seen)
works fine in Execution 0 (honest broadcaster, value 0) and in Execution
5 (value 1) — but in the middle executions the Byzantine broadcaster
seeds 0 on the low side and 1 on the high side; adjacent honest groups
then commit different values before the cross-chain evidence arrives.
The pairwise indistinguishability checks reproduce the proof's chaining:
``G_i``'s local view is identical in Executions ``i-1`` and ``i`` up to
its commit time.
"""
from __future__ import annotations

from repro.adversary.behaviors import (
    FilteredHonestBehavior,
    ScriptStep,
    ScriptedBehavior,
    per_party,
)
from repro.lowerbounds.framework import (
    WitnessReport,
    check_indistinguishable,
    find_disagreement,
    run_execution,
)
from repro.lowerbounds.strawmen import PROPOSE, NeighborRelayBb
from repro.sim.delays import FixedDelay
from repro.sim.runner import World
from repro.types import PartyId

N, F = 6, 4
H = N - F  # 2
D = 5  # 2 * floor(n/h) - 1 chain groups G_0..G_5 (singletons)
BROADCASTER = 0
BIG_DELTA = 1.0
COMMIT_AT = 1.5 * BIG_DELTA  # < (floor(n/h) - 1) * Delta = 2 * Delta
LOW_SIDE = (1, 2, 3)  # receive 0 directly from the Byzantine broadcaster
HIGH_SIDE = (3, 4, 5)  # receive 1 (G_3 receives both)


def _neighbors(pid: PartyId) -> frozenset[PartyId]:
    """Chain neighbours; the broadcaster also talks to the far end G_d."""
    result = set()
    if pid > 0:
        result.add(pid - 1)
    if pid < N - 1:
        result.add(pid + 1)
    if pid == 0:
        result.add(N - 1)
    if pid == N - 1:
        result.add(0)
    return frozenset(result)


def _strawman_factory(value):
    return NeighborRelayBb.factory(
        broadcaster=BROADCASTER, input_value=value, commit_at=COMMIT_AT
    )


def _neighbor_only(world, pid):
    """Byzantine non-broadcaster: honest relaying, neighbours only."""
    allowed = _neighbors(pid)

    def decide(recipient, payload, now):
        if recipient in allowed:
            return payload, None
        return None

    return FilteredHonestBehavior(
        world,
        pid,
        party_factory=_strawman_factory(None),
        send_filter=decide,
    )


def _byzantine_broadcaster_script(behavior: ScriptedBehavior):
    """Seed 0 on the low side and 1 on the high side, then go quiet."""
    propose_0 = behavior.signer.sign((PROPOSE, 0))
    propose_1 = behavior.signer.sign((PROPOSE, 1))
    steps = [
        ScriptStep(time=0.0, recipient=pid, payload=propose_0)
        for pid in LOW_SIDE
    ]
    steps += [
        ScriptStep(time=0.0, recipient=pid, payload=propose_1)
        for pid in HIGH_SIDE
    ]
    return steps


#: The Byzantine broadcaster of every execution but the first and last.
_seed_both_sides = ScriptedBehavior.factory(
    script_builder=_byzantine_broadcaster_script
)


def _execution(index: int) -> World:
    """Execution ``index``: honest groups ``G_index`` and ``G_index+1``."""
    if index == 0:
        honest = {0, 1}
        value = 0
    elif index == D:
        honest = {0, D}
        value = 1
    else:
        honest = {index, index + 1}
        value = 0  # unused: the broadcaster is Byzantine
    byzantine = frozenset(range(N)) - frozenset(honest)
    return run_execution(
        n=N,
        f=F,
        policy=FixedDelay(BIG_DELTA),
        parties=_strawman_factory(value),
        byzantine=byzantine,
        behaviors=per_party({BROADCASTER: _seed_both_sides}, _neighbor_only),
        horizon=60.0,
    )


def run_witness() -> WitnessReport:
    report = WitnessReport(
        theorem="Theorem 19",
        claim=(
            "any BRB resilient to f >= n/2 needs good-case latency "
            ">= (floor(n/(n-f)) - 1) * Delta, even with synchronized start"
        ),
    )
    for index in range(D + 1):
        report.executions[f"execution-{index}"] = _execution(index)

    # The proof's chaining: G_i sees identical histories in executions
    # i-1 and i, up to its commit deadline.
    for index in range(1, D + 1):
        check_indistinguishable(
            report,
            [index],  # the singleton group G_index
            f"execution-{index - 1}",
            f"execution-{index}",
            local_cutoff=COMMIT_AT,
        )

    report.violation = find_disagreement(report)
    report.notes.append(
        f"strawman commits at {COMMIT_AT} < "
        f"(floor(n/h) - 1)*Delta = {(N // H - 1) * BIG_DELTA}"
    )
    return report
