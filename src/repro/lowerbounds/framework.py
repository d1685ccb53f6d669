"""Executable lower-bound witnesses: shared machinery.

Every lower bound in the paper is an indistinguishability argument: it
constructs a handful of executions, shows that some honest party receives
byte-identical local histories in two of them (up to a cut-off on its
local clock), and concludes that a protocol faster than the bound commits
conflicting values somewhere.  A witness module reproduces this as code:

1. build the proof's executions against a *strawman* protocol that claims
   a better-than-tight latency (see :mod:`repro.lowerbounds.strawmen`);
2. machine-check the transcript-indistinguishability claims;
3. exhibit the actual agreement violation in one of the executions;
4. (companion tests) run the *real* protocol through the same schedule
   and observe that it stays safe — it is slower instead.

:class:`WitnessReport` is what a witness returns; benchmarks and tests
assert on its fields.

Every execution of every witness is built by :func:`run_execution` — delay
policy, honest-party factory, Byzantine set and behaviours, start offsets,
horizon in; a finished :class:`~repro.sim.runner.World` out — and every
"this group cannot tell X from Y" claim is one (group-wise)
:func:`check_indistinguishable` call.  :func:`equivocation_witness` is the
three-execution skeleton Theorems 4 and 8 share.

**Adding a witness**: (1) a ``thmNN_*.py`` module whose module-level
``run_witness()`` builds its executions with :func:`run_execution` and
returns a :class:`WitnessReport`; (2) one row in
``repro.lowerbounds.WITNESSES`` — the CLI, ``bench_lowerbounds.py``, the
tour example and the test fixture read it, and a ``thm*`` module missing
from it fails ``test_registry_is_exactly_the_thm_modules``; (3) the
``witness`` key of the ``repro.analysis.table1.REGIMES`` row whose bound it
proves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.adversary.broadcaster import equivocating_broadcaster
from repro.sim.delays import DelayPolicy, FixedDelay
from repro.sim.runner import BehaviorFactory, PartyFactory, World
from repro.sim.transcript import first_divergence, indistinguishable
from repro.types import PartyId, Value


@dataclass(frozen=True)
class IndistinguishabilityCheck:
    """One machine-checked transcript-equality claim."""

    party: PartyId
    execution_a: str
    execution_b: str
    local_cutoff: float
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class Disagreement:
    """Two honest parties committed different values in one execution."""

    execution: str
    party_a: PartyId
    value_a: Value
    party_b: PartyId
    value_b: Value

    def __str__(self) -> str:
        return (
            f"in {self.execution}: party {self.party_a} committed "
            f"{self.value_a!r} but party {self.party_b} committed "
            f"{self.value_b!r}"
        )


@dataclass
class WitnessReport:
    """Outcome of running one lower-bound witness."""

    theorem: str
    claim: str
    executions: dict[str, World] = field(default_factory=dict)
    checks: list[IndistinguishabilityCheck] = field(default_factory=list)
    violation: Disagreement | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def all_checks_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    @property
    def violation_found(self) -> bool:
        return self.violation is not None

    def summary(self) -> str:
        lines = [f"{self.theorem}: {self.claim}"]
        for check in self.checks:
            status = "ok" if check.holds else "FAILED"
            lines.append(
                f"  indistinguishable[{status}] party {check.party}: "
                f"{check.execution_a} ~ {check.execution_b} "
                f"(local cutoff {check.local_cutoff})"
            )
        if self.violation is not None:
            lines.append(f"  violation: {self.violation}")
        else:
            lines.append("  violation: none")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def run_execution(
    *,
    n: int,
    f: int,
    policy: DelayPolicy,
    parties: PartyFactory,
    byzantine: Iterable[PartyId] = (),
    behaviors: BehaviorFactory | None = None,
    offsets: list[float] | None = None,
    horizon: float = 50.0,
) -> World:
    """Build, populate and run one of a proof's executions."""
    world = World(
        n=n,
        f=f,
        delay_policy=policy,
        byzantine=frozenset(byzantine),
        start_offsets=offsets,
    )
    world.populate(parties, behaviors)
    world.run(until=horizon)
    return world


def check_indistinguishable(
    report: WitnessReport,
    group: Iterable[PartyId],
    name_a: str,
    name_b: str,
    *,
    local_cutoff: float,
    compare: str = "channel",
) -> None:
    """Record one transcript-equality check per party of ``group``."""
    world_a = report.executions[name_a]
    world_b = report.executions[name_b]
    for party in group:
        transcript_a = world_a.agents[party].transcript
        transcript_b = world_b.agents[party].transcript
        holds = indistinguishable(
            transcript_a,
            transcript_b,
            local_cutoff=local_cutoff,
            compare=compare,
        )
        detail = ""
        if not holds:
            divergence = first_divergence(transcript_a, transcript_b)
            detail = f"first divergence: {divergence}"
        report.checks.append(
            IndistinguishabilityCheck(
                party, name_a, name_b, local_cutoff, holds, detail
            )
        )


def equivocation_witness(
    theorem: str,
    claim: str,
    protocol,
    *,
    n: int,
    f: int,
    broadcaster: PartyId,
    groups: Mapping[Value, frozenset[PartyId]],
    delay: float,
    cutoff: float,
    **protocol_kwargs: Any,
) -> WitnessReport:
    """The three-execution skeleton of Theorems 4 and 8.

    Executions 1 and 2: an honest broadcaster sends 0, then 1, and
    everyone commits it.  Execution 3: a Byzantine broadcaster sends each
    value of ``groups`` to its group.  Up to ``cutoff`` group ``v`` cannot
    tell execution 3 from the honest execution with value ``v``, so a
    protocol that commits before the cutoff splits.
    """
    report = WitnessReport(theorem=theorem, claim=claim)

    def execution(value, **adversary) -> World:
        return run_execution(
            n=n,
            f=f,
            policy=FixedDelay(delay),
            parties=protocol.factory(
                broadcaster=broadcaster, input_value=value, **protocol_kwargs
            ),
            **adversary,
        )

    report.executions["execution-1"] = execution(0)
    report.executions["execution-2"] = execution(1)
    report.executions["execution-3"] = execution(
        0,
        byzantine={broadcaster},
        behaviors=equivocating_broadcaster(
            make_broadcaster=protocol.broadcaster_factory(
                broadcaster=broadcaster, **protocol_kwargs
            ),
            groups=groups,
        ),
    )
    for value, group in groups.items():
        check_indistinguishable(
            report,
            sorted(group),
            f"execution-{value + 1}",
            "execution-3",
            local_cutoff=cutoff,
        )
    report.violation = find_disagreement(report)
    return report


def find_disagreement(report: WitnessReport) -> Disagreement | None:
    """Scan all executions for an honest-honest commit disagreement."""
    for name, world in report.executions.items():
        commits = [
            (party.id, party.committed_value)
            for party in world.honest_parties()
            if party.has_committed
        ]
        for i in range(len(commits)):
            for j in range(i + 1, len(commits)):
                if commits[i][1] != commits[j][1]:
                    return Disagreement(
                        name,
                        commits[i][0],
                        commits[i][1],
                        commits[j][0],
                        commits[j][1],
                    )
    return None
