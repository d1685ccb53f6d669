"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` — regenerate the paper's Table 1 on the simulator;
* ``sweep`` — print the synchronous latency spectrum for a delta sweep;
* ``witness <theorem>`` — run a lower-bound witness: a key of
  ``repro.lowerbounds.WITNESSES`` (``repro witness -h`` lists them) or
  ``all``; exits non-zero unless every indistinguishability check holds
  and the agreement violation is exhibited;
* ``smr`` — run the replicated key-value store demo; exits non-zero
  unless every replica commits every slot and the states agree;
* ``ablation`` — run the equivocation-clause ablation;
* ``chaos`` — run seeded random fault plans (within each protocol's
  tolerated bounds) across the chaos grid, each run judged by the
  invariant monitors; failing plans are shrunk to minimal reproducers.
"""
from __future__ import annotations

import argparse
import sys


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, generate_table1

    rows = generate_table1(delta=args.delta, big_delta=args.big_delta)
    print(format_table(rows))
    return 0 if all(row.matches for row in rows) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import SweepEngine, sweep_sync_regimes

    deltas = [float(d) for d in args.deltas.split(",")]
    series = sweep_sync_regimes(
        deltas=deltas,
        big_delta=args.big_delta,
        engine=SweepEngine(workers=args.workers),
        instrumentation=args.instrumentation,
    )
    names = list(series)
    print(f"{'delta':>7} | " + " | ".join(f"{n:>24}" for n in names))
    for index, delta in enumerate(deltas):
        cells = " | ".join(
            f"{series[name][index].latency:>24.4f}" for name in names
        )
        print(f"{delta:>7.3f} | {cells}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    from repro.lowerbounds import WITNESSES, run_witness

    keys = sorted(WITNESSES) if args.theorem == "all" else [args.theorem]
    ok = True
    for key in keys:
        report = run_witness(key)
        print(report.summary())
        print()
        # The checks are the proof; the violation is its conclusion.
        ok = ok and report.all_checks_hold and report.violation_found
    return 0 if ok else 1


def _cmd_smr(args: argparse.Namespace) -> int:
    from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
    from repro.sim.delays import FixedDelay
    from repro.sim.runner import World
    from repro.smr import KeyValueStore, smr_factory
    from repro.types import validate_resilience

    try:
        if args.slots < 1:
            raise ValueError(f"--slots must be at least 1, got {args.slots}")
        validate_resilience(
            args.n, args.f, requirement=PsyncVbb5f1.RESILIENCE
        )
    except ValueError as error:
        print(f"repro smr: {error}", file=sys.stderr)
        return 2
    workload = [("set", f"key{i}", i * i) for i in range(args.slots)]
    world = World(n=args.n, f=args.f, delay_policy=FixedDelay(args.delay))
    world.populate(
        smr_factory(
            leader=0,
            workload=workload,
            state_machine_factory=KeyValueStore,
            big_delta=args.big_delta,
        )
    )
    world.run(until=10_000.0)
    replicas = world.honest_parties()
    replica = replicas[0]
    for slot, command in enumerate(replica.committed_log):
        print(f"slot {slot}: {command!r} @ t={replica.commit_times[slot]:.3f}")
    snapshots = {r.state_machine.snapshot() for r in replicas}
    print(f"replicas agree: {len(snapshots) == 1}")
    committed = min(len(r.committed_log) for r in replicas)
    print(f"slots committed: {committed}/{args.slots}")
    return 0 if len(snapshots) == 1 and committed == args.slots else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.chaos import (
        CHAOS_SPECS,
        CHAOS_TIERS,
        run_chaos,
        run_reliable_drop_demo,
        run_viewchange_smoke,
    )

    if args.shards < 1:
        print(
            f"repro chaos: --shards must be at least 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    if args.deep:
        plans = args.plans if args.plans is not None else 200
    elif args.smoke:
        plans = 8
    else:
        plans = args.plans if args.plans is not None else 16
    protocols = args.protocols.split(",") if args.protocols else None
    tiers = CHAOS_TIERS if args.deep else ("good-case",)
    summary = run_chaos(
        plans_per_protocol=plans,
        protocols=protocols,
        workers=args.workers,
        instrumentation=args.instrumentation,
        base_seed=args.base_seed,
        tiers=tiers,
        emit_dir=args.emit_reproducers,
        shards=args.shards,
    )
    by_protocol: dict[str, int] = {}
    injected = 0
    for row in summary["rows"]:
        by_protocol[row["protocol"]] = by_protocol.get(row["protocol"], 0) + 1
        injected += row["faults_injected"]
    names = protocols if protocols else sorted(CHAOS_SPECS)
    print(
        f"chaos: {summary['plans']} fault plans across "
        f"{len(by_protocol)} protocols ({', '.join(names)})"
        + (f" [tiers: {', '.join(tiers)}]" if len(tiers) > 1 else "")
    )
    print(f"faults injected: {injected}")
    reasons = [
        row["shard_fallback_reason"] for row in summary["rows"]
        if row["shard_fallback_reason"] is not None
    ]
    if reasons:
        print(
            f"shards: {args.shards} requested, {len(reasons)} of "
            f"{len(summary['rows'])} runs fell back to 1 "
            f"({', '.join(sorted(set(reasons)))})"
        )
    failed = False
    if args.smoke or args.deep:
        # View-change gate: every psync protocol must commit in view >= 2
        # under the pinned leader-crash plan, with zero violations.
        vc = run_viewchange_smoke(instrumentation=args.instrumentation)
        views = {
            row["protocol"]: row["max_commit_view"] for row in vc["rows"]
        }
        print(f"view-change smoke: commit views {views}")
        if not vc["ok"]:
            failed = True
            for row in vc["failures"]:
                print(
                    f"  FAIL {row['protocol']}: violation="
                    f"{row['violation']} views={row['commit_views']}"
                )
        # Retransmission gate: an honest-link total-loss plan must kill
        # termination bare and survive with the reliable channel on.
        demo = run_reliable_drop_demo(instrumentation=args.instrumentation)
        print(
            "reliable-drop demo: without="
            f"{demo['without']['violation'] and demo['without']['violation']['invariant']}"
            f" with=clean retransmissions={demo['with']['retransmissions']}"
        )
        if not demo["ok"]:
            failed = True
            print(f"  FAIL reliable-drop demo: {demo}")
    if not summary["violations"]:
        print("invariant violations: 0")
        return 1 if failed else 0
    print(f"invariant violations: {len(summary['violations'])}")
    for entry in summary["violations"]:
        v = entry["violation"]
        print(
            f"  {entry['protocol']} seed={entry['seed']}: "
            f"[{v['invariant']}] {v['details']}"
        )
        for line in entry.get("minimal_plan", []):
            print(f"    minimal: {line}")
        if "reproducer" in entry:
            print(f"    reproducer: {entry['reproducer']}")
    return 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.analysis.ablation import run_equivocation_clause_ablation

    outcome = run_equivocation_clause_ablation()
    print("full protocol   :", outcome["full"])
    print("ablated protocol:", outcome["ablated"])
    full_ok = set(outcome["full"].values()) == {"v"}
    ablated_broken = len(set(outcome["ablated"].values())) > 1
    print(
        f"equivocation clause load-bearing: {full_ok and ablated_broken}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Good-case Latency of Byzantine Broadcast: "
            "A Complete Categorization' (PODC 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--big-delta", dest="big_delta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("sweep", help="synchronous latency spectrum")
    p.add_argument("--deltas", default="0.1,0.25,0.5,1.0")
    p.add_argument("--big-delta", dest="big_delta", type=float, default=1.0)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep grid (1 = in-process)",
    )
    p.add_argument(
        "--instrumentation",
        choices=["full", "perf"],
        default="full",
        help="observability preset for each simulated point",
    )
    p.set_defaults(fn=_cmd_sweep)

    from repro.lowerbounds import WITNESSES

    p = sub.add_parser("witness", help="run a lower-bound witness")
    p.add_argument("theorem", choices=[*sorted(WITNESSES), "all"])
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("smr", help="replicated key-value store demo")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--f", type=int, default=2)
    p.add_argument("--slots", type=int, default=5)
    p.add_argument("--delay", type=float, default=0.1)
    p.add_argument("--big-delta", dest="big_delta", type=float, default=1.0)
    p.set_defaults(fn=_cmd_smr)

    p = sub.add_parser("ablation", help="equivocation-clause ablation")
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser(
        "chaos",
        help="seeded random fault plans + invariant monitors + shrinking",
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="the CI gate: 8 plans per protocol (56 total) plus the "
        "view-change and retransmission smoke checks, <60s",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="the nightly sweep: both tiers (good-case + viewchange), "
        "200 plans per protocol by default",
    )
    p.add_argument(
        "--plans", type=int, default=None,
        help="fault plans per protocol (default: 16; 200 with --deep; "
        "ignored with --smoke)",
    )
    p.add_argument(
        "--emit-reproducers", dest="emit_reproducers", default=None,
        help="write each shrunk failing plan to this directory as a "
        "ready-to-commit regression reproducer (JSON)",
    )
    p.add_argument(
        "--protocols", default=None,
        help="comma-separated protocol subset (default: the whole grid)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the plan grid (1 = in-process)",
    )
    p.add_argument(
        "--base-seed", dest="base_seed", type=int, default=0,
        help="base seed the per-plan seeds derive from",
    )
    p.add_argument(
        "--instrumentation",
        choices=["full", "perf"],
        default="perf",
        help="observability preset for each faulted run",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="worker processes per faulted run (>1 switches plans to "
        "counter streams; the monitor battery is replayed over the "
        "merged RunResult either way)",
    )
    p.set_defaults(fn=_cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
