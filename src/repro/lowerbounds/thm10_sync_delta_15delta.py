"""Theorem 10 witness: with unsynchronized start and ``f > n/3``, any BRB
needs good-case latency at least ``Delta + 1.5*delta``.

This is the paper's most intricate construction (Figure 11).  Parties are
split into groups ``g``, ``A``, ``B``, ``C``, ``h`` (sizes 1, f-1, f-1,
f-1, 1; the broadcaster sits in B); the clock skew is ``0.5*delta``.

* **E1** (delay bound ``delta``): honest broadcaster sends 0.  C and h
  are Byzantine but behave honestly, with C pretending to start
  ``0.5*delta`` late and the delays around C/h skewed by ``0.5*delta``.
  ``g``, A, B commit 0 before ``Delta + 1.5*delta``.
* **E4**: the mirror image with value 1 and A, g Byzantine.
* **E2** (delay bound ``Delta``): Byzantine broadcaster sends 0 to g, A
  and 1 to C, h; C honestly starts ``0.5*delta`` late; the delay
  differences exactly compensate, so **g cannot distinguish E1 from E2**
  before ``Delta + 1.5*delta`` and commits 0.
* **E3**: the mirror of E2; **h cannot distinguish E3 from E4** and
  commits 1.  Finally **A and C cannot distinguish E2 from E3 at all**
  (the delay asymmetries absorb who started late), so they commit the
  same value in both — contradicting agreement with g in E2 or with h in
  E3.

The strawman is the paper's *own* Figure 6 protocol — optimal under
synchronized start — run with the skew the unsynchronized model cannot
avoid.  Its good case is ``Delta + delta < Delta + 1.5*delta``, and the
construction splits it, which is precisely why the tight unsynchronized
bound rises to ``Delta + 1.5*delta``.
"""
from __future__ import annotations

from repro.adversary.behaviors import (
    FilteredHonestBehavior,
    pass_all,
    per_party,
)
from repro.adversary.broadcaster import equivocating_broadcaster
from repro.lowerbounds.framework import (
    WitnessReport,
    check_indistinguishable,
    find_disagreement,
    run_execution,
)
from repro.protocols.sync.bb_delta_delta_sync import BbDeltaDeltaSync
from repro.sim.delays import PerLinkDelay
from repro.sim.runner import World
from repro.types import INF

# Groups (f = 2, n = 5 < 3f): singletons for A, B, C.
B_BCAST = 0  # the broadcaster, group B
G = 1
A = 2
C = 3
H = 4

DELTA = 0.2  # the fast executions' delay bound delta
BIG_DELTA = 1.0
SKEW = 0.5 * DELTA
CUTOFF = BIG_DELTA + 1.5 * DELTA
HORIZON = 100.0

#: The proof's symmetry: E4 is E1 and E3 is E2 under g<->h, A<->C, 0<->1.
_MIRROR = {B_BCAST: B_BCAST, G: H, H: G, A: C, C: A}


def _party_factory(value):
    return BbDeltaDeltaSync.factory(
        broadcaster=B_BCAST, input_value=value, big_delta=BIG_DELTA
    )


#: Byzantine party that behaves honestly (delays come from the policy).
_honest_shadow = FilteredHonestBehavior.factory(
    party_factory=_party_factory(None), send_filter=pass_all
)


#: E2/E3 broadcaster: honest-with-0 toward g, A; honest-with-1 toward C, h
#: (delays via the per-link policy).  Its own mirror image.
_split_broadcaster = equivocating_broadcaster(
    make_broadcaster=BbDeltaDeltaSync.broadcaster_factory(
        broadcaster=B_BCAST, big_delta=BIG_DELTA
    ),
    groups={0: frozenset({G, A}), 1: frozenset({C, H})},
)


def _run(links, byzantine, behaviors, mirror: bool) -> World:
    """One execution in E1/E2's labels (C starts ``0.5*delta`` late, the
    broadcaster's value is 0), relabelled through the mirror for E4/E3."""
    name = _MIRROR if mirror else {party: party for party in _MIRROR}
    offsets = [0.0] * 5
    offsets[name[C]] = SKEW
    return run_execution(
        n=5,
        f=2,
        policy=PerLinkDelay(
            {(name[a], name[b]): d for (a, b), d in links.items()},
            default=DELTA,
        ),
        parties=_party_factory(int(mirror)),
        byzantine={name[party] for party in byzantine},
        behaviors=behaviors,
        offsets=offsets,
        horizon=HORIZON,
    )


def _fast_execution(mirror: bool) -> World:
    """E1 (delay bound ``delta``): honest broadcaster; C and h Byzantine
    but honest-looking, C pretending to start ``0.5*delta`` late."""
    links = {
        (C, G): BIG_DELTA + SKEW,
        (C, A): BIG_DELTA - SKEW,
        (G, C): BIG_DELTA - SKEW,
        (A, C): BIG_DELTA - SKEW,
        (H, A): BIG_DELTA - SKEW,
        (A, H): BIG_DELTA + SKEW,
        (G, H): INF,
        (H, G): INF,
    }
    return _run(links, {C, H}, _honest_shadow, mirror)


def _split_execution(mirror: bool) -> World:
    """E2 (delay bound ``Delta``): Byzantine broadcaster and h; honest C
    really starts ``0.5*delta`` late."""
    links = {
        # honest links: g<->A delta; g<->C Delta; C->A Delta-delta; A->C Delta
        (G, C): BIG_DELTA,
        (C, G): BIG_DELTA,
        (C, A): BIG_DELTA - DELTA,
        (A, C): BIG_DELTA,
        # Byzantine broadcaster B: 1.5*delta to C, 0.5*delta back
        (B_BCAST, C): 1.5 * DELTA,
        (C, B_BCAST): 0.5 * DELTA,
        # Byzantine h
        (G, H): INF,
        (H, G): INF,
        (C, H): 0.5 * DELTA,
        (H, C): 1.5 * DELTA,
        (A, H): BIG_DELTA + SKEW,
        (H, A): BIG_DELTA - SKEW,
    }
    behaviors = per_party({B_BCAST: _split_broadcaster}, _honest_shadow)
    return _run(links, {B_BCAST, H}, behaviors, mirror)


def run_witness() -> WitnessReport:
    report = WitnessReport(
        theorem="Theorem 10",
        claim=(
            "any BRB with unsynchronized start resilient to f > n/3 needs "
            "good-case latency >= Delta + 1.5*delta"
        ),
    )
    report.executions["E1"] = _fast_execution(mirror=False)
    report.executions["E2"] = _split_execution(mirror=False)
    report.executions["E3"] = _split_execution(mirror=True)
    report.executions["E4"] = _fast_execution(mirror=True)

    # g cannot distinguish E1 from E2 before Delta + 1.5*delta.
    check_indistinguishable(report, [G], "E1", "E2", local_cutoff=CUTOFF)
    # h cannot distinguish E4 from E3 before Delta + 1.5*delta.
    check_indistinguishable(report, [H], "E4", "E3", local_cutoff=CUTOFF)
    # A and C cannot distinguish E2 from E3 at all (here: through the
    # entire run, BA phase included).  The same signed messages reach them
    # through different channels in the two executions (e.g. the vote
    # batch of the early committer comes from g in E2 and from h in E3),
    # and the Figure 6 protocol authenticates purely by signature, so the
    # content comparison is the faithful one.
    check_indistinguishable(
        report, (A, C), "E2", "E3", local_cutoff=HORIZON, compare="content"
    )

    report.violation = find_disagreement(report)
    report.notes.append(
        "strawman = the paper's Figure 6 protocol (optimal only under "
        "synchronized start) run with skew 0.5*delta; it commits at "
        f"Delta + delta = {BIG_DELTA + DELTA} < {CUTOFF}"
    )
    g_commit = report.executions["E2"].agents[G].commit_global_time
    h_commit = report.executions["E3"].agents[H].commit_global_time
    report.notes.append(
        f"g committed {report.executions['E2'].agents[G].committed_value!r} "
        f"at {g_commit} in E2; h committed "
        f"{report.executions['E3'].agents[H].committed_value!r} at "
        f"{h_commit} in E3"
    )
    return report
