"""One benchmark operation, run as a fresh child process of ``run.py``.

This is the benchmark's *only* import of ``repro``: it builds a
workload's inputs from the seed, runs them through the public API
(``World``, the delay and fault models, the protocol factories and the
``repro.analysis`` verbs), checks the outcome, and prints one JSON
object — stamps, counts, resource use and, on the traced pass, the span
aggregates.  A later API change touches this file alone.

    python benchmarks/e2e/adapters.py '{"workload": "brb_fixed", ...}'

The spec (see ``run.py``) carries ``workload``, ``seed``, ``quick``,
``traced`` and ``spawned`` — the parent's ``time.monotonic()`` just
before the spawn, which is system-wide, so every stamp below is time
since the user hit enter.
"""
from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time

import repro
import repro.analysis.chaos
import repro.analysis.sweeps
import repro.analysis.table1
from repro.crypto.messages import digest_stats
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import Crash, DuplicateLink, FaultPlan, ReorderJitter
from repro.sim.runner import World

_IMPORTED = time.monotonic()

INPUT_VALUE = "v"

#: Single-world workloads: protocol, (n, f) full and quick, delay model,
#: whether the pinned fault plan rides along, shards, protocol kwargs.
WORLDS = {
    "brb_fixed": dict(
        cls=Brb2Round, size=(1001, 333), quick=(31, 10), delay="fixed",
    ),
    "brb_fixed_sharded": dict(
        cls=Brb2Round, size=(1001, 333), quick=(31, 10), delay="fixed",
        shards=2,
    ),
    "brb_uniform": dict(
        cls=Brb2Round, size=(301, 100), quick=(31, 10), delay="uniform",
    ),
    # n=221 rather than a rounder 201: there peak RSS sits on an
    # allocator step and flips between 61 and 66 MiB with the seed.
    "brb_uniform_chaos": dict(
        cls=Brb2Round, size=(221, 73), quick=(31, 10), delay="uniform",
        chaos=True,
    ),
    # n >= 5f - 1: the regime where the paper's psync-BB commits in 2 rounds.
    "vbb_fixed": dict(
        cls=PsyncVbb5f1, size=(501, 100), quick=(31, 6), delay="fixed",
        protocol_kwargs=dict(big_delta=1.0),
    ),
}

WITNESSES = (
    "thm04_async_2round",
    "thm07_psync_3round",
    "thm08_sync_2delta",
    "thm09_sync_delta_delta",
    "thm10_sync_delta_15delta",
    "thm19_dishonest_majority",
)

#: ``RunResult`` counters summed over every world an op runs.
RESULT_COUNTERS = (
    "messages_sent", "events_processed", "events_recycled",
    "bucket_appends", "heap_pushes_avoided", "deliveries_batched",
    "delivery_runs_batched", "quorum_checks", "votes_batched",
    "faults_injected", "messages_dropped", "messages_duplicated",
    "messages_held", "shard_batches_exchanged", "shard_bytes_sent",
    "shard_barrier_rounds",
)

#: Each layer's public entry points, ``module:Class.method`` or
#: ``module:function``; layer = the module that owns the time.
ENTRY_POINTS = (
    ("runner", "repro.sim.runner:World.__init__"),
    ("runner", "repro.sim.runner:World.populate"),
    ("runner", "repro.sim.runner:World.run"),
    ("runner", "repro.sim.runner:World.result"),
    ("delays", "repro.sim.delays:DelayPolicy.delay"),
    ("delays", "repro.sim.delays:DelayPolicy.delays_for_multicast"),
    ("network", "repro.sim.network:Network.send"),
    ("network", "repro.sim.network:Network.multicast"),
    # The delivery side (inbox call, crash-window discard) is private but
    # is where a scheduled copy's network time goes.
    ("network", "repro.sim.network:Network._deliver"),
    ("network", "repro.sim.network:Network._deliver_many"),
    ("network", "repro.sim.network:Network._deliver_tracked"),
    ("scheduler", "repro.sim.scheduler:Simulator.schedule_at"),
    ("scheduler", "repro.sim.scheduler:Simulator.schedule_batch"),
    ("scheduler", "repro.sim.scheduler:Simulator.schedule_after"),
    ("scheduler", "repro.sim.scheduler:Simulator.run"),
    ("timeline", "repro.sim.events:EventQueue.push"),
    ("timeline", "repro.sim.events:EventQueue.push_batch"),
    ("timeline", "repro.sim.events:EventQueue.pop"),
    ("timeline", "repro.sim.events:EventQueue.peek_time"),
    ("timeline", "repro.sim.events:EventQueue.release"),
    ("protocols", "repro.sim.process:Agent.start"),
    ("protocols", "repro.sim.process:Agent.deliver"),
    ("quorum", "repro.protocols.quorum:QuorumTracker.add"),
    ("quorum", "repro.protocols.quorum:QuorumTracker.add_batch"),
    ("quorum", "repro.protocols.quorum:QuorumTracker.stage_batch"),
    ("quorum", "repro.protocols.quorum:QuorumTracker.commit_staged"),
    ("quorum", "repro.protocols.quorum:QuorumTracker.quorum_payload"),
    ("crypto", "repro.crypto.messages:digest"),
    ("crypto", "repro.crypto.messages:digest_ex"),
    ("crypto", "repro.crypto.messages:intern_key"),
    ("crypto", "repro.crypto.signatures:Signer.sign"),
    ("crypto", "repro.crypto.signatures:KeyRegistry.verify"),
    ("crypto", "repro.crypto.signatures:KeyRegistry.verify_batch"),
    ("faults", "repro.sim.faults:FaultInjector.block_send"),
    ("faults", "repro.sim.faults:FaultInjector.block_delivery"),
    ("faults", "repro.sim.faults:FaultInjector.route"),
    ("coordinator", "repro.sim.coordinator:run_sharded"),
    ("observers", "repro.sim.instrumentation:Instrumentation.note_commit"),
    ("observers",
     "repro.sim.instrumentation:Instrumentation.note_commit_conflict"),
    ("observers",
     "repro.sim.instrumentation:Instrumentation.note_view_change"),
    ("observers", "repro.sim.rounds:RoundAccountant.begin_start_step"),
    ("observers", "repro.sim.rounds:RoundAccountant.begin_delivery_step"),
    ("observers", "repro.sim.rounds:RoundAccountant.end_step"),
    ("observers", "repro.sim.rounds:RoundAccountant.register_send"),
    ("observers", "repro.sim.rounds:RoundAccountant.round_of_step"),
    ("observers", "repro.sim.transcript:Transcript.record_start"),
    ("observers", "repro.sim.transcript:Transcript.record_recv"),
    ("observers", "repro.sim.transcript:Transcript.record_commit"),
    ("observers", "repro.sim.invariants:InvariantMonitor.on_commit"),
    ("observers", "repro.sim.invariants:InvariantMonitor.on_commit_conflict"),
    ("observers", "repro.sim.invariants:InvariantMonitor.on_view"),
    ("observers", "repro.sim.invariants:InvariantMonitor.finalize"),
    ("analysis", "repro.analysis.table1:generate_table1"),
    ("analysis", "repro.analysis.sweeps:sweep_sync_regimes"),
    ("analysis", "repro.analysis.sweeps:sweep_latency_distribution"),
    ("analysis", "repro.analysis.chaos:run_chaos"),
    *(
        ("analysis", f"repro.lowerbounds.{name}:run_witness")
        for name in WITNESSES
    ),
)

#: Entry points whose call count understates the work: copies priced.
SIZERS = {
    "repro.sim.delays:DelayPolicy.delay": lambda delay: 1,
    "repro.sim.delays:DelayPolicy.delays_for_multicast": len,
}


def install_tracer():
    """Wrap every entry point; returns the :class:`tracing.Tracer`."""
    from tracing import Tracer

    # Subclasses that override an entry point must exist before wrapping;
    # several are imported lazily by the verbs.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    tracer = Tracer()
    for layer, spec in ENTRY_POINTS:
        module_name, _, path = spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.unwrapped.append(spec)
            continue
        owner, _, attr = path.rpartition(".")
        if not owner:
            tracer.wrap_function(module, attr, layer, "repro")
        elif isinstance(getattr(module, owner, None), type):
            tracer.wrap_method(
                getattr(module, owner), attr, layer, SIZERS.get(spec)
            )
        else:
            tracer.unwrapped.append(spec)
    return tracer


def count_runs() -> dict[str, int]:
    """Sum ``RunResult`` counters over every ``World.run`` from now on.

    The analysis verbs build and run their worlds internally, so the op's
    logical deliveries are only visible at this seam.  Returns the live
    totals, ``worlds`` (runs seen) included.
    """
    totals = dict.fromkeys(("worlds", *RESULT_COUNTERS), 0)
    inner = World.run

    def run(world, **kwargs):
        result = inner(world, **kwargs)
        totals["worlds"] += 1
        for name in RESULT_COUNTERS:
            totals[name] += getattr(result, name)
        return result

    World.run = run
    return totals


def chaos_plan(n: int, seed: int) -> FaultPlan:
    """One recovering non-broadcaster crash, Bernoulli duplicate echoes
    and bounded reorder jitter over the first two time units: keeps the
    injector's per-copy path hot for the whole run without threatening
    termination."""
    return FaultPlan(
        crashes=(Crash(party=n - 1, at=0.2, recover=1.2),),
        duplicates=(
            DuplicateLink(start=0.0, end=2.0, prob=0.25, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.25, start=0.0, end=2.0),),
        seed=seed,
        stream="counter",
    )


def run_world(name: str, seed: int, quick: bool) -> dict:
    """Build, run and check one single-world workload."""
    spec = WORLDS[name]
    n, f = spec["quick"] if quick else spec["size"]
    shards = spec.get("shards", 1)
    policy = (
        FixedDelay(1.0)
        if spec["delay"] == "fixed"
        else UniformDelay(0.05, 1.0, seed=seed, stream="counter")
    )
    plan = chaos_plan(n, seed) if spec.get("chaos") else None
    world = World(
        n=n, f=f, delay_policy=policy, instrumentation="perf",
        fault_plan=plan, shards=shards,
    )
    world.populate(
        spec["cls"].factory(
            broadcaster=0, input_value=INPUT_VALUE,
            **spec.get("protocol_kwargs", {}),
        )
    )
    set_up = time.monotonic()
    result = world.run()

    errors = []
    crashed = plan.crashed_parties() if plan is not None else frozenset()
    missing = [
        p for p in result.honest_ids
        if p not in crashed and p not in result.commits
    ]
    if missing:
        errors.append(f"{len(missing)} live honest parties never committed")
    values = set(result.commits.values())
    if values != {INPUT_VALUE}:
        errors.append(f"committed values {sorted(map(repr, values))}")
    if result.shard_fallback_reason is not None:
        errors.append(f"sharding refused: {result.shard_fallback_reason}")
    if result.shards != shards:
        errors.append(f"ran on {result.shards} shards, asked for {shards}")
    latency = (
        max(result.commit_global_times.values()) - result.start_offsets[0]
        if result.commit_global_times else None
    )
    return {
        "set_up": set_up, "errors": errors, "good_case_latency": latency,
        "n": n,
    }


def run_categorization(seed: int, quick: bool) -> dict:
    """One pass of the paper's product: Table 1, every lower-bound
    witness, the synchrony sweep, latency distributions and the chaos
    sweep.  Only on-grid deltas: off the ``grid_samples=8`` grid the
    ``Delta + 1.5*delta`` row legitimately reports ``matches=False``."""
    table1 = repro.analysis.table1
    sweeps = repro.analysis.sweeps
    chaos = repro.analysis.chaos
    deltas = [0.25] if quick else [0.25, 0.5, 1.0]
    if quick:
        grid, samples = [("brb_2round", 16, 5)], 4
        chaos_kwargs = dict(
            plans_per_protocol=2, protocols=["brb_2round", "psync_vbb_5f1"]
        )
    else:
        grid = [("brb_2round", 31, 10), ("psync_vbb_5f1", 31, 6)]
        samples = 20
        chaos_kwargs = dict(plans_per_protocol=60)
    witnesses = [
        importlib.import_module(f"repro.lowerbounds.{name}")
        for name in WITNESSES
    ]
    set_up = time.monotonic()

    errors = []
    latency = None
    for delta in deltas:
        rows = table1.generate_table1(delta=delta, big_delta=1.0)
        errors.extend(
            f"table1 delta={delta}: {row.bound} measured {row.measured}"
            for row in rows if not row.matches
        )
        if delta == 0.25:
            # The paper's non-integer bound, as measured: 1 + 1.5 * 0.25.
            latency = next(
                float(row.measured) for row in rows
                if row.bound == "Delta + 1.5*delta"
            )
    for module in witnesses:
        if not module.run_witness().violation_found:
            errors.append(f"{module.__name__}: no violation exhibited")
    sweeps.sweep_sync_regimes(deltas=deltas, instrumentation="full")
    # Raises unless every sample's honest parties all committed.
    sweeps.sweep_latency_distribution(grid=grid, samples=samples)
    outcome = chaos.run_chaos(
        tiers=chaos.CHAOS_TIERS, base_seed=seed, **chaos_kwargs
    )
    errors.extend(
        f"chaos {v['protocol']} seed {v['seed']}: {v['violation']['invariant']}"
        for v in outcome["violations"]
    )
    return {
        "set_up": set_up, "errors": errors, "good_case_latency": latency,
        "n": max(n for _, n, _ in grid),
        "chaos_plans": outcome["plans"],
        "chaos_violations": len(outcome["violations"]),
        # Chaos runs that committed only after leaving view 1.
        "view_changes": sum(
            1 for row in outcome["rows"] if (row["max_commit_view"] or 1) > 1
        ),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    spawned = spec["spawned"]
    tracer = install_tracer() if spec["traced"] else None
    counts = count_runs()

    def op() -> dict:
        if spec["workload"] == "categorization":
            return run_categorization(spec["seed"], spec["quick"])
        return run_world(spec["workload"], spec["seed"], spec["quick"])

    if tracer is not None:
        # The root span: whatever no layer claims is the benchmark's own
        # glue (input generation, checks) — ``trace.other_self_s``.
        op = tracer.wrap(op, "trace", "trace.op")
    outcome = op()
    done = time.monotonic()

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    set_up = outcome.pop("set_up")
    report = {
        **outcome,
        "stamps": {
            "imported": _IMPORTED - spawned,
            "set_up": set_up - spawned,
            "done": done - spawned,
        },
        "counts": counts,
        "digest": digest_stats.snapshot(),
        "rss_kb": max(own.ru_maxrss, workers.ru_maxrss),
        "cpu_s": own.ru_utime + own.ru_stime
        + workers.ru_utime + workers.ru_stime,
        "worker_cpu_s": workers.ru_utime + workers.ru_stime,
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
