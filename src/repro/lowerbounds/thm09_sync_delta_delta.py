"""Theorem 9 witness: synchronous BRB with ``f >= n/3`` needs ``Delta+delta``.

The proof's construction with ``n = 3f``, groups A, B, C of size ``f``
and the broadcaster ``s`` inside C:

* Execution 1: honest ``s`` sends 0; B is Byzantine but behaves honestly
  while pretending its links to A and C have delay ``Delta``.  A and C
  commit 0 at ``2*delta < Delta + delta``.
* Execution 2: symmetric with value 1 and A Byzantine.
* Execution 3: the actual delay bound is ``Delta``; ``s`` and the rest of
  C are Byzantine: toward A they replay Execution 1 (value 0), toward B
  Execution 2 (value 1); the A<->B links take ``Delta``.

Before time ``Delta + delta``, A's view is identical in Executions 1 and
3 (everything it would learn about B's value needs the ``Delta`` link),
so a sub-``Delta+delta`` protocol commits 0 in Execution 3 while B
commits 1: agreement violated.  The strawman commits on an ``n - f`` vote
quorum at ``2*delta`` — sound below ``n/3`` faults (that is Figure 10!)
but exactly ``f = n/3`` lets the ``f`` double-voters hide in the quorum
intersection.
"""
from __future__ import annotations

from repro.adversary.behaviors import (
    FilteredHonestBehavior,
    ScriptStep,
    ScriptedBehavior,
    fixed_delay_toward,
    per_party,
)
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.lowerbounds.framework import (
    WitnessReport,
    check_indistinguishable,
    find_disagreement,
    run_execution,
)
from repro.lowerbounds.strawmen import NoForwardQuorumBb
from repro.sim.delays import PerLinkDelay
from repro.sim.runner import World

N, F = 6, 2
BROADCASTER = 0  # s, inside group C
GROUP_A = (1, 2)
GROUP_B = (3, 4)
OTHER_C = 5  # the C member that is not the broadcaster
DELTA = 0.1  # the "fast" executions' actual delay bound
BIG_DELTA = 1.0
CUTOFF = BIG_DELTA + DELTA  # the theorem's Delta + delta


def _strawman_factory(value):
    return NoForwardQuorumBb.factory(broadcaster=BROADCASTER, input_value=value)


#: Byzantine group member: honest behavior, Delta-pretending delays.
_pretend_slow = FilteredHonestBehavior.factory(
    party_factory=_strawman_factory(None),
    send_filter=fixed_delay_toward({}, default=BIG_DELTA),
)


def _honest_execution(value, byzantine_group) -> World:
    return run_execution(
        n=N,
        f=F,
        policy=PerLinkDelay({}, default=DELTA),
        parties=_strawman_factory(value),
        byzantine=byzantine_group,
        behaviors=_pretend_slow,
    )


def _split_execution() -> World:
    """Execution 3: s and C equivocate; A<->B links take Delta."""
    links = {}
    for a in GROUP_A:
        for b in GROUP_B:
            links[(a, b)] = BIG_DELTA
            links[(b, a)] = BIG_DELTA

    split_broadcaster = equivocating_broadcaster(
        make_broadcaster=NoForwardQuorumBb.broadcaster_factory(
            broadcaster=BROADCASTER
        ),
        groups={0: frozenset(GROUP_A), 1: frozenset(GROUP_B)},
    )

    def c_script(behavior):
        vote0 = behavior.signer.sign((NoForwardQuorumBb.VOTE, 0))
        vote1 = behavior.signer.sign((NoForwardQuorumBb.VOTE, 1))
        steps = []
        # Mimic Execution 1's honest C toward A: receive the proposal at
        # delta, vote immediately (arrives at 2*delta via the policy).
        for a in GROUP_A:
            steps.append(ScriptStep(time=DELTA, recipient=a, payload=vote0))
        for b in GROUP_B:
            steps.append(ScriptStep(time=DELTA, recipient=b, payload=vote1))
        return steps

    return run_execution(
        n=N,
        f=F,
        policy=PerLinkDelay(links, default=DELTA),
        parties=_strawman_factory(0),
        byzantine={BROADCASTER, OTHER_C},
        behaviors=per_party(
            {BROADCASTER: split_broadcaster},
            ScriptedBehavior.factory(script_builder=c_script),
        ),
    )


def run_witness() -> WitnessReport:
    report = WitnessReport(
        theorem="Theorem 9",
        claim=(
            "any synchronous BRB resilient to f >= n/3 needs good-case "
            "latency >= Delta + delta, even with synchronized start"
        ),
    )
    report.executions["execution-1"] = _honest_execution(0, GROUP_B)
    report.executions["execution-2"] = _honest_execution(1, GROUP_A)
    report.executions["execution-3"] = _split_execution()

    check_indistinguishable(
        report, GROUP_A, "execution-1", "execution-3", local_cutoff=CUTOFF
    )
    check_indistinguishable(
        report, GROUP_B, "execution-2", "execution-3", local_cutoff=CUTOFF
    )

    report.violation = find_disagreement(report)
    report.notes.append(
        "the quorum strawman (Figure 10's rule pushed to f = n/3) commits "
        f"at 2*delta = {2 * DELTA} < Delta + delta = {CUTOFF}; the f "
        "double-voters in C sit in both quorums"
    )
    return report
