"""Chaos sweep: seeded random fault plans, invariant monitors, shrinking.

The paper's claims are *tolerance* claims: every protocol keeps agreement,
validity, integrity and (deadline-bounded) termination as long as the
faults stay inside its model's budget.  This module turns that into an
executable check:

1. a tier's generator (:func:`random_fault_plan`,
   :func:`random_viewchange_plan`) draws a deterministic, seeded
   :class:`~repro.sim.faults.FaultPlan` *within the tolerated bounds* of
   one protocol spec — at most ``f`` crashes (never the broadcaster),
   partitions that heal well before the liveness deadline, message loss
   only out of already-crashed parties, and only fault kinds the spec's
   timing model actually tolerates (a synchronous protocol is entitled to
   its ``delta`` bound, so it gets crashes and duplicates but no
   delay-altering faults);
2. :func:`sweep_chaos` fans a ``protocols x plans`` grid through
   :class:`~repro.analysis.engine.SweepEngine` (deterministic at any
   worker count) with the tier's invariant battery and asserts zero
   violations — ``python -m repro chaos --smoke`` is the CI gate;
3. when a plan *does* break an invariant (e.g. a deliberately over-budget
   plan in the tests), :func:`shrink_plan` strips it greedily — drop one
   primitive at a time, keep the removal whenever the violation survives —
   down to a minimal reproducer.

The tier table
--------------

All that differs between the good-case and the view-change tier is one
:class:`ChaosTier` row of ``_TIERS``; the pipeline
(:func:`run_chaos_plan` -> ``_chaos_point`` -> :func:`sweep_chaos` ->
:func:`run_chaos`) reads the row and never compares tier names.  A tier
supplies its spec dict, its plan generator, the tag leading its engine
task keys (which seed its plans), its monitor battery and an optional
extra gate over a finished record ("a commit in view >= 2").  Every
battery is judged the same way — :func:`~repro.sim.invariants.judge`
replays it over the run's :class:`~repro.sim.runner.RunResult` — so
every tier runs on either randomness stream and, on counter streams,
at any shard count.  A new tier is one more row.

Every piece is module-level and plain-data-parameterized so grid points
pickle to engine workers, like every sweep in
:mod:`repro.analysis.sweeps`.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.analysis.engine import SweepEngine, SweepTask
from repro.errors import FaultPlanError, InvariantViolation
from repro.protocols import PROTOCOLS
from repro.protocols.psync.base import round_robin_leader
from repro.sim.faults import (
    Crash,
    CrashLeader,
    DropLink,
    DuplicateLink,
    FaultPlan,
    GstChurn,
    Holdback,
    Partition,
    ReorderJitter,
)
from repro.sim.invariants import (
    TerminationAfterGst,
    ViewProgress,
    judge,
    standard_monitors,
)


@dataclass(frozen=True)
class ChaosSpec:
    """One protocol's chaos configuration: sizes, timing, fault bounds."""

    protocol: str
    n: int
    f: int
    #: ``"async"`` / ``"psync"`` / ``"sync"`` — selects the delay policy
    #: and which fault kinds the model tolerates (partitions and full
    #: GST churn are asynchrony, so only ``"async"`` specs draw them).
    timing: str
    big_delta: float = 1.0
    #: Max extra per-copy delay the plan may inject (0 disables jitter).
    #: Kept well under the view timeout for psync so the good case —
    #: which is what makes validity checkable — survives the chaos.
    jitter_max: float = 0.0
    #: Max echo delay for duplicated copies.
    echo_max: float = 0.0
    #: Protocol time needed *after* the last fault quiets down; the
    #: termination deadline is ``plan.quiet_time() + slack``.
    slack: float = 10.0


#: The chaos grid: one spec per protocol family, spanning the paper's
#: three timing models and four resilience regimes.
CHAOS_SPECS: dict[str, ChaosSpec] = {
    spec.protocol: spec
    for spec in (
        ChaosSpec(
            protocol="brb_2round", n=7, f=2, timing="async",
            jitter_max=2.0, echo_max=1.0,
        ),
        ChaosSpec(
            protocol="brb_bracha", n=7, f=2, timing="async",
            jitter_max=2.0, echo_max=1.0,
        ),
        ChaosSpec(
            protocol="psync_vbb_5f1", n=4, f=1, timing="psync",
            jitter_max=0.15, echo_max=0.2, slack=12.0,
        ),
        ChaosSpec(
            protocol="psync_pbft", n=4, f=1, timing="psync",
            jitter_max=0.15, echo_max=0.2, slack=12.0,
        ),
        ChaosSpec(
            protocol="psync_fab", n=6, f=1, timing="psync",
            jitter_max=0.15, echo_max=0.2, slack=12.0,
        ),
        ChaosSpec(
            protocol="bb_2delta", n=7, f=2, timing="sync", slack=40.0,
        ),
        ChaosSpec(
            protocol="dolev_strong", n=5, f=2, timing="sync", slack=40.0,
        ),
    )
}


#: View-change tier: the same psync protocols, but every plan *forces*
#: them past the good case — a crashed or starved view-1 leader — and the
#: gate demands a commit in view >= 2 with liveness monitors swapped for
#: their partial-synchrony forms (termination-after-GST, view progress).
#: More slack than the good-case tier: a full view timeout (4 * Delta)
#: plus a second view's worth of protocol time burns before any commit.
CHAOS_SPECS_VIEWCHANGE: dict[str, ChaosSpec] = {
    name: replace(CHAOS_SPECS[name], jitter_max=0.1, slack=16.0)
    for name in ("psync_pbft", "psync_fab", "psync_vbb_5f1")
}

#: One disrupted view (view 1) justifies reaching view 2; 3 leaves room
#: for a straggler round trip without letting runaway timers hide.
VIEWCHANGE_MAX_VIEW = 3


def _violation(
    invariant: str, details: str, protocol: str, party=None, time=None
) -> dict:
    """The one shape of a chaos row's ``violation`` entry."""
    return dict(
        invariant=invariant, details=details, protocol=protocol,
        party=party, time=time,
    )


# ---------------------------------------------------------------------- #
# plan generation
# ---------------------------------------------------------------------- #


def _draw_noise(
    rng: random.Random,
    spec: ChaosSpec,
    chance: float,
    duplicate_end_max: float,
    jitter_span_max: float,
) -> tuple[tuple[DuplicateLink, ...], tuple[ReorderJitter, ...]]:
    """The duplicates and jitter both generators add, in the one draw
    order their seeds are pinned to."""
    duplicates: tuple[DuplicateLink, ...] = ()
    if rng.random() < chance:
        duplicates = (
            DuplicateLink(
                src=rng.randrange(spec.n) if rng.random() < 0.5 else None,
                start=0.0,
                end=round(rng.uniform(1.0, duplicate_end_max), 3),
                prob=round(rng.uniform(0.3, 1.0), 3),
                echo_delay=round(rng.uniform(0.0, spec.echo_max), 3),
            ),
        )
    jitters: tuple[ReorderJitter, ...] = ()
    if spec.jitter_max > 0 and rng.random() < chance:
        start = round(rng.uniform(0.0, 1.0), 3)
        jitters = (
            ReorderJitter(
                jitter=round(rng.uniform(0.0, spec.jitter_max), 3),
                start=start,
                end=start + round(rng.uniform(0.5, jitter_span_max), 3),
            ),
        )
    return duplicates, jitters


def _tolerated(plan: FaultPlan, spec: ChaosSpec) -> FaultPlan:
    """A generator's last step: the plan is in budget and well-formed."""
    deadline = plan.quiet_time() + spec.slack
    problems = plan.check_tolerated(n=spec.n, f=spec.f, deadline=deadline)
    if problems:  # pragma: no cover - generator stays in bounds
        raise AssertionError(
            f"generator produced an untolerated plan: {problems}"
        )
    return plan.validate(spec.n)


def random_fault_plan(protocol: str, seed: int) -> FaultPlan:
    """A seeded random plan inside ``protocol``'s tolerated fault bounds.

    Deterministic in ``(protocol, seed)``.  The broadcaster (party 0) is
    never crashed; crash count stays ``<= f``; drops only suppress links
    out of a crashed party (loss the budget already paid for); partitions
    and churn windows resolve early enough that ``quiet_time() + slack``
    bounds termination; synchronous specs receive no delay-altering
    faults at all (the model promises ``delta``, so injecting more would
    test a claim the paper never makes).
    """
    spec = CHAOS_SPECS[protocol]
    rng = random.Random(seed)
    n = spec.n

    crashes: list[Crash] = []
    crashed = rng.sample(range(1, n), rng.randint(0, spec.f))
    for party in crashed:
        at = round(rng.uniform(0.0, 3.0), 3)
        if rng.random() < 0.5:
            crashes.append(Crash(party=party, at=at))  # crash-stop
        else:
            recover = at + round(rng.uniform(0.5, 2.0), 3)
            crashes.append(Crash(party=party, at=at, recover=recover))

    drops: tuple[DropLink, ...] = ()
    if crashed and rng.random() < 0.5:
        drops = (
            DropLink(
                src=rng.choice(crashed),
                start=0.0,
                end=round(rng.uniform(1.0, 4.0), 3),
                prob=round(rng.uniform(0.3, 1.0), 3),
            ),
        )

    duplicates, jitters = _draw_noise(rng, spec, 0.7, 5.0, 3.0)

    partitions: tuple[Partition, ...] = ()
    if spec.timing == "async" and rng.random() < 0.5:
        members = list(range(n))
        rng.shuffle(members)
        cut = rng.randint(1, n - 1)
        start = round(rng.uniform(0.0, 2.0), 3)
        partitions = (
            Partition(
                groups=(
                    tuple(sorted(members[:cut])),
                    tuple(sorted(members[cut:])),
                ),
                start=start,
                end=start + round(rng.uniform(0.5, 2.0), 3),
                flush_delay=round(rng.uniform(0.0, 1.0), 3),
            ),
        )

    churns: tuple[GstChurn, ...] = ()
    if spec.timing == "async" and rng.random() < 0.5:
        a = round(rng.uniform(0.0, 1.5), 3)
        churns = (
            GstChurn(
                windows=((a, a + round(rng.uniform(0.3, 1.5), 3)),),
                bound=round(rng.uniform(0.3, 1.0), 3),
            ),
        )
    elif spec.timing == "psync" and rng.random() < 0.4:
        # Mild churn only: the window must resolve long before the view
        # timeout (4 * Delta) or the good case — and with it checkable
        # validity — is gone.
        churns = (
            GstChurn(
                windows=((0.0, round(rng.uniform(0.2, 0.5), 3)),),
                bound=round(rng.uniform(0.1, 0.3), 3),
            ),
        )

    plan = FaultPlan(
        crashes=tuple(crashes),
        drops=drops,
        duplicates=duplicates,
        jitters=jitters,
        partitions=partitions,
        churns=churns,
        seed=seed,
    )
    return _tolerated(plan, spec)


def random_viewchange_plan(protocol: str, seed: int) -> FaultPlan:
    """A seeded plan that *forces* ``protocol`` past its good case.

    Deterministic in ``(protocol, seed)``.  Every plan kills view 1 one
    of three ways — crash-stop the view-1 leader, crash it with a
    mid-view-2 recovery (exercising the recovery re-arm path), or hold
    back everything the leader sends until after the view timeout
    (starvation without spending crash budget) — optionally garnished
    with mild duplicates and jitter.  The gate for these plans is not
    merely "no violation": a commit must land in view >= 2.
    """
    spec = CHAOS_SPECS_VIEWCHANGE[protocol]
    rng = random.Random(seed)
    timeout = 4 * spec.big_delta

    leader_crashes: tuple[CrashLeader, ...] = ()
    holdbacks: tuple[Holdback, ...] = ()
    variant = rng.randrange(3)
    if variant == 0:
        # Crash-stop: the leader must be down before its t=0 proposal.
        leader_crashes = (CrashLeader(view=1),)
    elif variant == 1:
        # Crash with recovery after view 2 is underway.
        recover = round(timeout + rng.uniform(1.0, 3.0), 3)
        leader_crashes = (CrashLeader(view=1, recover=recover),)
    else:
        # Starvation: everything the leader sends is held until after
        # every view-1 timer has expired; nothing is lost.
        holdbacks = (
            Holdback(
                src=0,
                start=0.0,
                end=round(timeout + 1.0, 3),
                flush_delay=0.5,
            ),
        )

    duplicates, jitters = _draw_noise(rng, spec, 0.5, timeout + 2.0, timeout)
    plan = FaultPlan(
        duplicates=duplicates,
        jitters=jitters,
        leader_crashes=leader_crashes,
        holdbacks=holdbacks,
        seed=seed,
    )
    return _tolerated(plan, spec)


# ---------------------------------------------------------------------- #
# the tier table
# ---------------------------------------------------------------------- #


def _good_case_battery(plan, input_value, quiet, slack) -> list:
    return standard_monitors(expected=input_value, deadline=quiet + slack)


def _viewchange_battery(plan, input_value, quiet, slack) -> list:
    # Broadcaster-input validity is a *good-case* property: a holdback
    # that starves the (honest) broadcaster through view 1 is pre-GST
    # asynchrony, under which a starved broadcaster is indistinguishable
    # from a crashed one — the view-2 leader rightly proposes its own
    # value.  Crashed broadcasters are already exempt via the faulty
    # set; starved ones must lose the monitor explicitly.
    starved = any(h.src is None or h.src == 0 for h in plan.holdbacks)
    return standard_monitors(expected=None if starved else input_value) + [
        TerminationAfterGst(gst=quiet, bound=slack),
        ViewProgress(max_view=VIEWCHANGE_MAX_VIEW),
    ]


def _reached_view_2(record: dict) -> dict | None:
    # Forcing past view 1 must actually have *reached* view 2 — a commit
    # in view 1 means the plan failed to disrupt and the run proved
    # nothing.
    if (record["max_commit_view"] or 0) >= 2:
        return None
    return _violation(
        "viewchange-forced",
        f"expected a commit in view >= 2, got commit views "
        f"{record['commit_views']}",
        record["protocol"],
    )


class ChaosTier(NamedTuple):
    """One row of the tier table: all that differs between tiers."""

    specs: dict[str, ChaosSpec]
    #: Module-level *name* of the plan generator, looked up per call so
    #: a swapped-in generator (tests rig one) is the one that runs.
    generator: str
    #: Leads the engine task keys, which seed the plans: the good-case
    #: tag predates tiers, and changing a tag re-seeds that sweep.
    key_tag: str
    #: ``(plan, input_value, quiet, slack) -> monitors``; :func:`judge`
    #: labels them with the world's protocol name.
    battery: Callable[..., list]
    #: Extra check of a violation-free record: a violation or ``None``.
    gate: Callable[[dict], dict | None] | None


_TIERS: dict[str, ChaosTier] = {
    "good-case": ChaosTier(
        CHAOS_SPECS, "random_fault_plan", "chaos",
        _good_case_battery, None,
    ),
    "viewchange": ChaosTier(
        CHAOS_SPECS_VIEWCHANGE, "random_viewchange_plan", "chaos-viewchange",
        _viewchange_battery, _reached_view_2,
    ),
}

#: The chaos tiers, in sweep order.
CHAOS_TIERS = tuple(_TIERS)


def _spec(tier: str, protocol: str, error: type = KeyError) -> ChaosSpec:
    specs = _TIERS[tier].specs
    if protocol not in specs:
        raise error(
            f"unknown chaos protocol {protocol!r} for tier {tier!r}; "
            f"expected one of {sorted(specs)}"
        )
    return specs[protocol]


def _plan(tier: str, protocol: str, seed: int, stream: str) -> FaultPlan:
    """The tier's plan for ``seed`` on the given randomness stream — how
    sweeps, shrinking and reproducers all rebuild a row's plan.

    Same primitives and seed whatever the stream: the generator's draws
    are already spent, only the injector's and delay policy's per-copy
    streams change representation.
    """
    generate = globals()[_TIERS[tier].generator]
    return replace(generate(protocol, seed), stream=stream)


# ---------------------------------------------------------------------- #
# execution
# ---------------------------------------------------------------------- #


#: ``RunResult`` counters a chaos row carries verbatim.
_ROW_COUNTERS = (
    "faults_injected", "messages_dropped", "messages_duplicated",
    "messages_held", "partition_windows", "messages_sent",
    "events_processed", "shards", "shard_batches_exchanged",
    "shard_bytes_sent", "shard_barrier_rounds", "shard_fallback_reason",
)


def run_chaos_plan(
    protocol: str,
    plan: FaultPlan,
    *,
    instrumentation: str = "perf",
    input_value: Any = "v",
    tier: str = "good-case",
    shards: int = 1,
) -> dict:
    """Run one faulted execution to its deadline, then judge it.

    Returns a plain record; ``violation`` is ``None`` on a clean run or
    the structured context of the first
    :class:`~repro.errors.InvariantViolation` that
    :func:`~repro.sim.invariants.judge` raises replaying the tier's
    battery over the finished run.

    ``tier`` names the :class:`ChaosTier` row supplying the spec and the
    battery (the ``"viewchange"`` one judges liveness by
    :class:`~repro.sim.invariants.TerminationAfterGst` with GST = the
    plan's quiet time, plus
    :class:`~repro.sim.invariants.ViewProgress`).  Symbolic
    :class:`~repro.sim.faults.CrashLeader` entries are resolved here
    against the protocol's round-robin rotation (broadcaster 0).

    The plan's ``stream`` is the delay policy's too.  ``shards > 1``
    needs ``stream="counter"``, the shard-safe configuration; a counter
    plan at ``shards=1`` runs the identical schedule single-process —
    the twin the parity tests and bench rows compare against.
    """
    from repro.sim.delays import FixedDelay, UniformDelay
    from repro.sim.runner import World

    stream = plan.stream
    if shards > 1 and stream != "counter":
        raise ValueError(
            "sharded chaos needs a counter-stream plan "
            '(build it with FaultPlan(..., stream="counter"))'
        )
    spec = _spec(tier, protocol)
    plan = plan.resolve_leaders(
        lambda view: round_robin_leader(0, view, spec.n)
    )
    quiet = plan.quiet_time()
    deadline = quiet + spec.slack
    kwargs: dict[str, Any] = {}
    if spec.timing == "async":
        delay_policy = UniformDelay(0.0, 1.0, seed=plan.seed, stream=stream)
    elif spec.timing == "psync":
        # Stable-period delays strictly under Delta: the view-1 good case
        # must survive every tolerated fault, or validity is vacuous.
        delay_policy = UniformDelay(0.1, 0.8, seed=plan.seed, stream=stream)
        kwargs["big_delta"] = spec.big_delta
    else:  # sync: the model's worst tolerated assignment
        delay_policy = FixedDelay(spec.big_delta)
        kwargs["big_delta"] = spec.big_delta
    world = World(
        n=spec.n,
        f=spec.f,
        delay_policy=delay_policy,
        instrumentation=instrumentation,
        fault_plan=plan,
        protocol_name=protocol,
        shards=shards,
    )
    world.populate(
        PROTOCOLS[protocol].factory(
            broadcaster=0, input_value=input_value, **kwargs
        )
    )
    result = world.run(until=deadline)
    battery = _TIERS[tier].battery(plan, input_value, quiet, spec.slack)
    violation: dict | None = None
    try:
        judge(battery, world, result)
    except InvariantViolation as exc:
        violation = _violation(
            exc.invariant, exc.details, exc.protocol, exc.party, exc.time
        )
    commit_views = sorted(result.commit_views.values())
    return {
        "protocol": protocol,
        "tier": tier,
        "n": spec.n,
        "f": spec.f,
        "seed": plan.seed,
        "stream": stream,
        "plan_size": len(plan),
        "deadline": deadline,
        "violation": violation,
        "commits": len(result.commits),
        "commit_views": commit_views,
        "max_commit_view": max(commit_views) if commit_views else None,
        **{name: getattr(result, name) for name in _ROW_COUNTERS},
    }


def _run_gated(
    protocol: str, plan: FaultPlan, *, tier: str, **run_kwargs: Any
) -> dict:
    """:func:`run_chaos_plan`, then the tier's extra gate if still clean."""
    record = run_chaos_plan(protocol, plan, tier=tier, **run_kwargs)
    gate = _TIERS[tier].gate
    if record["violation"] is None and gate is not None:
        record["violation"] = gate(record)
    return record


def _chaos_point(
    *,
    protocol: str,
    seed: int,
    instrumentation: str = "perf",
    tier: str = "good-case",
    shards: int = 1,
) -> dict:
    """One grid point: generate a tolerated plan for ``seed``, run it."""
    stream = "counter" if shards > 1 else "sequential"
    plan = _plan(tier, protocol, seed, stream)
    return _run_gated(
        protocol, plan, tier=tier,
        instrumentation=instrumentation, shards=shards,
    )


def sweep_chaos(
    *,
    protocols: list[str] | None = None,
    plans_per_protocol: int = 8,
    engine: SweepEngine | None = None,
    instrumentation: str = "perf",
    tier: str = "good-case",
    shards: int = 1,
) -> list[dict]:
    """The chaos grid: seeded tolerated plans across the protocol specs.

    Each point draws its plan from a deterministic per-point seed
    (engine-injected, like every randomized sweep), runs it, judges it
    with the tier's invariant battery, and reports the injection
    counters plus any violation.  A healthy tree returns rows with
    ``violation=None`` everywhere — that is exactly what the CI smoke
    job asserts.

    The ``"viewchange"`` tier sweeps only the psync protocols, with
    plans that force a view change and the gate additionally demanding
    a commit in view >= 2 (a surviving good case counts as a failure —
    the plan was supposed to kill it).  ``shards > 1`` switches every
    tier's plans to counter streams and runs each across that many
    worker processes.
    """
    engine = engine if engine is not None else SweepEngine()
    chaos_tier = _TIERS[tier]
    names = protocols if protocols is not None else list(chaos_tier.specs)
    for name in names:
        _spec(tier, name, error=ValueError)
    # ``shards`` deliberately stays out of the task key, so a sharded
    # sweep replays exactly the plans the single-process sweep would
    # draw.
    tasks = [
        SweepTask(
            _chaos_point,
            dict(
                protocol=name, instrumentation=instrumentation,
                tier=tier, shards=shards,
            ),
            key=(chaos_tier.key_tag, name, index),
            inject_seed=True,
        )
        for name in names
        for index in range(plans_per_protocol)
    ]
    return engine.run(tasks)


# ---------------------------------------------------------------------- #
# shrinking
# ---------------------------------------------------------------------- #


def shrink_plan(
    plan: FaultPlan, failing: Callable[[FaultPlan], bool]
) -> FaultPlan:
    """Greedily shrink ``plan`` to a minimal still-failing reproducer.

    One mutation — remove a single primitive — applied until no single
    removal keeps ``failing`` true (1-minimality, the classic ddmin
    fixpoint).  ``failing(plan)`` must be true on entry; deterministic
    predicates (ours are: seeded runs) make the result deterministic.
    """
    if not failing(plan):
        raise ValueError("shrink_plan needs a failing plan to start from")
    changed = True
    while changed:
        changed = False
        for primitive in plan.primitives():
            candidate = plan.without(primitive)
            if failing(candidate):
                plan = candidate
                changed = True
                break
    return plan


def shrink_failing_plan(
    protocol: str, plan: FaultPlan, **run_options: Any
) -> FaultPlan:
    """Shrink against the real oracle: does the run still violate?

    ``run_options`` (``instrumentation``, ``tier``, ``shards``) go to
    :func:`run_chaos_plan`, so candidates replay in the mode that found
    the violation (``FaultPlan.without`` preserves the plan's stream: a
    counter-stream reproducer shrinks as one).
    """
    return shrink_plan(
        plan,
        lambda candidate: run_chaos_plan(protocol, candidate, **run_options)[
            "violation"
        ] is not None,
    )


# ---------------------------------------------------------------------- #
# committed regression reproducers
# ---------------------------------------------------------------------- #


def write_reproducer(
    directory: str | Path,
    *,
    protocol: str,
    plan: FaultPlan,
    tier: str = "good-case",
    expect: str = "clean",
    note: str = "",
) -> Path:
    """Write one ready-to-commit reproducer file; returns its path.

    The file is self-contained plain JSON — protocol, tier, the full
    fault plan and the expected outcome (``"clean"`` or
    ``"violation"``) — so the regression corpus (``tests/regressions/``)
    can replay it with :func:`run_reproducer` years after the seed that
    found it stopped mattering.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "protocol": protocol,
        "tier": tier,
        "seed": plan.seed,
        "plan": plan.to_json(),
        "expect": expect,
        "note": note,
    }
    path = directory / f"{protocol}-{tier}-seed{plan.seed}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_reproducer(path: str | Path) -> dict:
    """Parse one reproducer file back into runnable objects.

    A file that is not JSON, lacks its ``plan`` or ``protocol`` key,
    holds a malformed plan, or carries a non-null ``reliable`` key (a
    retry policy: the simulator has none, and replayed without it the
    file would fail as an unexplained termination violation) raises
    :class:`FaultPlanError` naming it."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("plan", "protocol"):
        if key not in data:
            raise FaultPlanError(f"{path}: no {key!r} key")
    if data.get("reliable") is not None:
        raise FaultPlanError(
            f"{path}: 'reliable' key set, but the simulator has no "
            "reliable link; express a copy that is lost and sent again "
            "as a Holdback"
        )
    try:
        plan = FaultPlan.from_json(data["plan"])
    except FaultPlanError as exc:
        raise FaultPlanError(
            f"{path}: {exc.details}", primitive=exc.primitive
        ) from exc
    return {
        "protocol": data["protocol"],
        "tier": data.get("tier", "good-case"),
        "plan": plan,
        "expect": data.get("expect", "clean"),
        "note": data.get("note", ""),
    }


def run_reproducer(
    path: str | Path, *, instrumentation: str = "perf"
) -> dict:
    """Replay one committed reproducer; ``ok`` means outcome == expect."""
    repro = load_reproducer(path)
    record = run_chaos_plan(
        repro["protocol"],
        repro["plan"],
        instrumentation=instrumentation,
        tier=repro["tier"],
    )
    clean = record["violation"] is None
    ok = clean == (repro["expect"] == "clean")
    return {
        "path": str(path),
        "expect": repro["expect"],
        "ok": ok,
        "record": record,
    }


# ---------------------------------------------------------------------- #
# curated smoke plans (CI gate)
# ---------------------------------------------------------------------- #


def viewchange_smoke_plans() -> list[tuple[str, FaultPlan]]:
    """One pinned leader-crash plan per psync protocol (the CI gate).

    Deliberately *not* drawn from :func:`random_viewchange_plan`: the
    smoke gate's job is to pin the canonical scenario — view-1 leader
    crash-stopped from t=0, every honest party commits in view 2 —
    independent of generator evolution.
    """
    plan = FaultPlan(leader_crashes=(CrashLeader(view=1),), seed=7)
    return [(name, plan) for name in sorted(CHAOS_SPECS_VIEWCHANGE)]


def run_viewchange_smoke(*, instrumentation: str = "perf") -> dict:
    """Run the pinned view-change plans; gate on commit in view >= 2."""
    rows = [
        _run_gated(
            protocol, plan, tier="viewchange",
            instrumentation=instrumentation,
        )
        for protocol, plan in viewchange_smoke_plans()
    ]
    failures = [row for row in rows if row["violation"] is not None]
    return {"rows": rows, "failures": failures, "ok": not failures}


# ---------------------------------------------------------------------- #
# CLI entry
# ---------------------------------------------------------------------- #


def run_chaos(
    *,
    plans_per_protocol: int = 8,
    protocols: list[str] | None = None,
    workers: int = 1,
    instrumentation: str = "perf",
    base_seed: int = 0,
    shrink: bool = True,
    tiers: tuple[str, ...] = ("good-case",),
    emit_dir: str | None = None,
    shards: int = 1,
) -> dict:
    """Run the chaos sweep and summarize (the ``repro chaos`` command).

    Returns ``{"rows": [...], "violations": [...], "plans": N}``; each
    violation entry carries the shrunk minimal reproducer (as plain
    primitive reprs) when ``shrink`` is on.  With ``emit_dir`` set,
    every shrunk reproducer is additionally written there as a
    ready-to-commit regression file (``expect: "clean"`` — the corpus
    asserts the plan stays clean once the bug it found is fixed).

    Each tier sweeps the named ``protocols`` its grid holds (a tier
    holding none is skipped); a name no requested tier holds is an
    error.
    """
    if protocols is not None:
        known = {name for tier in tiers for name in _TIERS[tier].specs}
        unknown = sorted(set(protocols) - known)
        if unknown:
            raise ValueError(
                f"unknown chaos protocol {unknown[0]!r} for tiers "
                f"{list(tiers)}; expected one of {sorted(known)}"
            )
    rows: list[dict] = []
    for tier in tiers:
        names = protocols
        if protocols is not None:
            names = [p for p in protocols if p in _TIERS[tier].specs]
            if not names:
                continue
        rows.extend(
            sweep_chaos(
                protocols=names,
                plans_per_protocol=plans_per_protocol,
                engine=SweepEngine(workers=workers, base_seed=base_seed),
                instrumentation=instrumentation,
                tier=tier,
                shards=shards,
            )
        )
    violations = []
    for row in rows:
        if row["violation"] is None:
            continue
        entry = dict(row)
        if shrink:
            # The row's own stream and effective shard count: the plan
            # that is shrunk and written out is the one that ran.
            plan = _plan(
                row["tier"], row["protocol"], row["seed"], row["stream"]
            )
            try:
                minimal = shrink_failing_plan(
                    row["protocol"],
                    plan,
                    instrumentation=instrumentation,
                    tier=row["tier"],
                    shards=row["shards"],
                )
            except ValueError:
                # The monitor battery alone did not reproduce (the
                # tier's extra gate fired): keep the full plan as the
                # reproducer.
                minimal = plan
            entry["minimal_plan"] = [repr(p) for p in minimal.primitives()]
            if emit_dir is not None:
                path = write_reproducer(
                    emit_dir,
                    protocol=row["protocol"],
                    plan=minimal,
                    tier=row["tier"],
                    expect="clean",
                    note=(
                        f"nightly chaos violation "
                        f"[{row['violation']['invariant']}]: "
                        f"{row['violation']['details']}"
                    ),
                )
                entry["reproducer"] = str(path)
        violations.append(entry)
    return {"rows": rows, "violations": violations, "plans": len(rows)}
