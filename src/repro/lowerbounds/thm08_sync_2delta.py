"""Theorem 8 witness: synchronous BRB needs good-case latency >= 2*delta.

Same three-execution structure as Theorem 4 but in the timed model: all
delays equal ``delta``, and the strawman commits its first proposal at a
deadline strictly below ``2 * delta`` — before any information *about*
the proposal can make a round trip through another party.  Messages A
receives before time ``2 * delta`` were sent before ``delta``, i.e.
before their senders saw the (equivocating) proposal, so Executions 1 and
3 are indistinguishable to A until the commit deadline.
"""
from __future__ import annotations

from repro.lowerbounds.framework import WitnessReport, equivocation_witness
from repro.lowerbounds.strawmen import FastCommitSyncBb

N, F = 4, 1
BROADCASTER = 0
GROUP_A = frozenset({1, 2})
GROUP_B = frozenset({3})
DELTA = 1.0  # the execution's actual delay bound delta
COMMIT_AT = 1.5 * DELTA  # < 2 * delta: what Theorem 8 forbids


def run_witness() -> WitnessReport:
    report = equivocation_witness(
        "Theorem 8",
        "any synchronous BRB resilient to f > 0 needs good-case "
        "latency >= 2*delta, even with synchronized start",
        FastCommitSyncBb,
        n=N,
        f=F,
        broadcaster=BROADCASTER,
        groups={0: GROUP_A, 1: GROUP_B},
        delay=DELTA,
        cutoff=2 * DELTA,
        commit_at=COMMIT_AT,
    )
    report.notes.append(
        f"strawman commits at {COMMIT_AT} < 2*delta = {2 * DELTA}; the "
        "equivocation split breaks agreement in execution 3"
    )
    return report
