"""Theorem 4 witness: asynchronous BRB needs 2 rounds in the good case.

The proof's three executions, with the remaining parties split into
groups A and B:

* Execution 1: honest broadcaster sends 0; everyone commits 0 after
  round-0 messages (a 1-round protocol commits on the proposal alone).
* Execution 2: honest broadcaster sends 1; everyone commits 1.
* Execution 3: Byzantine broadcaster sends 0 to A and 1 to B.

A's round-0 view is identical in Executions 1 and 3 (round-0 messages
depend only on initial state), so a 1-round protocol commits 0 in
Execution 3; symmetrically B commits 1 — an agreement violation.
"""
from __future__ import annotations

from repro.lowerbounds.framework import WitnessReport, equivocation_witness
from repro.lowerbounds.strawmen import OneRoundBrb

N, F = 4, 1
BROADCASTER = 0
GROUP_A = frozenset({1, 2})
GROUP_B = frozenset({3})
DELAY = 1.0
#: Strictly before any round-1 message arrives (votes would arrive at 2).
ROUND1_CUTOFF = 2.0


def run_witness() -> WitnessReport:
    """Build the three executions and check the proof's claims."""
    report = equivocation_witness(
        "Theorem 4",
        "any asynchronous BRB resilient to f > 0 needs good-case "
        "latency >= 2 rounds",
        OneRoundBrb,
        n=N,
        f=F,
        broadcaster=BROADCASTER,
        groups={0: GROUP_A, 1: GROUP_B},
        delay=DELAY,
        cutoff=ROUND1_CUTOFF,
    )
    report.notes.append(
        "the 1-round strawman commits on the bare proposal; the "
        "equivocation split breaks agreement in execution 3"
    )
    return report
