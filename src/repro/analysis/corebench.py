"""Tracked end-to-end perf runs: the engine behind ``BENCH_core.json``.

Runs the good-case latency measurement for 2-round-BRB and psync-VBB
across system sizes (up to n=10001, the largest rows under sharded
in-run parallelism — see benchmarks/README.md "Sharded worlds") and
instrumentation presets, recording
wall time, events/sec, message counts, digest-subsystem statistics
(including the content-intern tier's hit and plan counters) and the
quorum counter (``quorum_checks`` tally updates across every party's
:class:`~repro.protocols.quorum.QuorumTracker`), plus a seeded
random-delay *latency distribution* (p50/p90/p99 per grid point).  Rows come in ``full`` and ``perf`` instrumentation
variants at the larger sizes; ``speedup_perf_vs_full`` quantifies what
the observability side effects cost at each size, and the n >= 201 rows
run perf-only (full-mode transcripts at that scale measure the observer,
not the simulator).  Rows tagged ``delay="uniform"`` price every copy
through a counter-stream :class:`~repro.sim.delays.UniformDelay` (a pure
per-link hash, identical on every executor), and ``fault="chaos"`` rows
run the pinned tolerated fault plan — both come in single-process and
sharded twins so the randomized and faulted paths have tracked
wall-clock comparisons, with ``shard_bytes_sent`` /
``shard_barrier_rounds`` recording the barrier wire cost.

The previous file's ``baseline`` section is preserved across runs (the
committed baseline is the pre-cache seed), so the perf trajectory is
visible PR over PR.  Entry points::

    PYTHONPATH=src python benchmarks/run_core_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_core_bench.py --smoke  # <60s CI run
    PYTHONPATH=src python benchmarks/run_core_bench.py --profile  # + cProfile
    PYTHONPATH=src python -m repro bench --smoke                # print-only

The grid executes through :class:`repro.analysis.engine.SweepEngine`;
``--workers K`` fans rows out over K processes (each row still times its
runs in-process, so parallel rows only contend for cores — keep the
default of 1 for tracked numbers).

See benchmarks/README.md for how to read the output.
"""
from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.engine import SweepEngine, SweepTask
from repro.analysis.latency import measure_round_good_case
from repro.analysis.sweeps import sweep_latency_distribution
from repro.crypto.messages import clear_digest_cache, digest_stats
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import UniformDelay
from repro.sim.faults import Crash, DuplicateLink, FaultPlan, ReorderJitter

REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"
REPS = 9  # median over 9: the 1-CPU CI boxes jitter full-mode walls ~10%
#: Fewer reps past n=200: one rep is ~1s there and the relative jitter of
#: a long run is far below the small-n rows'.
REPS_LARGE = 5
#: The n >= 701 scale rows run seconds per rep; 3 still gives a median.
REPS_XLARGE = 3
#: The n > 2001 frontier rows run minutes per rep (the sharded n=10001
#: point is ~3 min even across 4 workers): one rep, no median.
REPS_FRONTIER = 1

#: Seeds for the randomized grid rows.  Pinned so the tracked numbers
#: are reproducible draw for draw: counter-stream hashes make the same
#: (seed, sender, recipient, counter) tuple price identically on every
#: executor, so the sharded row replays its single-process twin exactly.
BENCH_DELAY_SEED = 2026
BENCH_CHAOS_SEED = 77


def _bench_delay_policy(tag: str):
    """Delay policy for a grid row's ``delay`` tag (fresh per run).

    Counter streams are pure hashes but the per-link counters still
    tick, so a policy object must never be reused across timed reps —
    the second rep would continue the counters and price a different
    schedule.  ``"fixed"`` returns ``None`` (the model's worst-case
    fixed delay, the historical bench default).
    """
    if tag == "fixed":
        return None
    if tag == "uniform":
        return UniformDelay(
            0.05, 1.0, seed=BENCH_DELAY_SEED, stream="counter"
        )
    raise ValueError(f"unknown bench delay tag {tag!r}")


def _chaos_bench_plan(n: int) -> FaultPlan:
    """The pinned tolerated fault plan behind the ``fault="chaos"`` rows.

    One non-broadcaster crash with recovery, Bernoulli duplicate echoes
    and bounded reorder jitter across the first two time units — enough
    to keep the injector's per-copy path hot for the whole run without
    threatening termination.  ``stream="counter"`` makes the plan
    shard-safe, so the sharded chaos rows replay this exact schedule.
    """
    return FaultPlan(
        crashes=(Crash(party=n - 1, at=0.2, recover=1.2),),
        duplicates=(
            DuplicateLink(start=0.0, end=2.0, prob=0.25, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.25, start=0.0, end=2.0),),
        seed=BENCH_CHAOS_SEED,
        stream="counter",
    )


#: (label, protocol class, measure kwargs, instrumentation modes).  f is
#: the largest fault budget each protocol's resilience bound admits at
#: that n.  ``perf`` variants exist where the observability overhead is
#: worth tracking (n >= 31); the n >= 201 scale rows are perf-only.
CONFIGS = [
    ("brb_2round", Brb2Round, dict(n=4, f=1), ["full"]),
    ("brb_2round", Brb2Round, dict(n=16, f=5), ["full"]),
    ("brb_2round", Brb2Round, dict(n=31, f=10), ["full", "perf"]),
    ("brb_2round", Brb2Round, dict(n=101, f=33), ["full", "perf"]),
    ("brb_2round", Brb2Round, dict(n=201, f=66), ["perf"]),
    ("brb_2round", Brb2Round, dict(n=301, f=100), ["perf"]),
    ("brb_2round", Brb2Round, dict(n=501, f=166), ["perf"]),
    ("brb_2round", Brb2Round, dict(n=701, f=233), ["perf"]),
    ("brb_2round", Brb2Round, dict(n=1001, f=333), ["perf"]),
    # Run batching folds a fan-out's equal-delay copies into one event,
    # so the n=2001 point (4M logical deliveries) is now tractable.
    ("brb_2round", Brb2Round, dict(n=2001, f=666), ["perf"]),
    # Sharded in-run parallelism: the same world partitioned across
    # worker processes under the coordinator barrier.  The n=2001 row
    # doubles as a sharded-vs-single comparison point; n=10001 (200M
    # logical deliveries, ~100M signature pairs in the shared entry
    # stores) only fits through the per-shard O(n^2/k) memory split.
    ("brb_2round", Brb2Round, dict(n=2001, f=666, shards=2), ["perf"]),
    ("brb_2round", Brb2Round, dict(n=10001, f=3333, shards=4), ["perf"]),
    # Shard-safe randomness: counter-stream UniformDelay prices each
    # copy as a pure hash of (seed, sender, recipient, link counter), so
    # the sharded row replays its single-process twin's schedule exactly
    # — the wall-clock pair below is the comparison the counter streams
    # exist for.  The chaos rows add the pinned tolerated fault plan
    # (crash + duplicate echoes + reorder jitter, counter streams) so a
    # sharded run with the injector hot is a tracked number too.
    ("brb_2round", Brb2Round, dict(n=2001, f=666, delay="uniform"),
     ["perf"]),
    ("brb_2round", Brb2Round,
     dict(n=2001, f=666, delay="uniform", shards=2), ["perf"]),
    ("brb_2round", Brb2Round,
     dict(n=1001, f=333, delay="uniform", fault="chaos"), ["perf"]),
    ("brb_2round", Brb2Round,
     dict(n=1001, f=333, delay="uniform", fault="chaos", shards=2),
     ["perf"]),
    ("psync_vbb_5f1", PsyncVbb5f1, dict(n=4, f=1, big_delta=1.0), ["full"]),
    ("psync_vbb_5f1", PsyncVbb5f1, dict(n=16, f=3, big_delta=1.0), ["full"]),
    (
        "psync_vbb_5f1",
        PsyncVbb5f1,
        dict(n=31, f=6, big_delta=1.0),
        ["full", "perf"],
    ),
    ("psync_vbb_5f1", PsyncVbb5f1, dict(n=101, f=20, big_delta=1.0), ["perf"]),
]

#: Reduced grid for CI: exercises both instrumentation modes, <60s total.
SMOKE_CONFIGS = [
    ("brb_2round", Brb2Round, dict(n=16, f=5), ["full", "perf"]),
    ("brb_2round", Brb2Round, dict(n=31, f=10), ["full", "perf"]),
    ("psync_vbb_5f1", PsyncVbb5f1, dict(n=16, f=3, big_delta=1.0), ["full"]),
    # One sharded grid point so CI exercises the coordinator barrier end
    # to end (fork, lockstep instants, batch routing, counter merge); the
    # gate asserts its shard_batches_exchanged > 0.
    ("brb_2round", Brb2Round, dict(n=31, f=10, shards=2), ["perf"]),
    # Sharded counter-stream points: random delays (and, on the second
    # row, the pinned chaos plan) under the coordinator barrier.  The CI
    # gate asserts both exchanged batches and the chaos row's commits.
    ("brb_2round", Brb2Round,
     dict(n=31, f=10, delay="uniform", shards=2), ["perf"]),
    ("brb_2round", Brb2Round,
     dict(n=31, f=10, delay="uniform", fault="chaos", shards=2), ["perf"]),
]

#: Latency-distribution grid: seeded random-delay percentiles per point,
#: covering both tracked protocol families.
DISTRIBUTION_GRID = [
    ("brb_2round", 31, 10),
    ("brb_2round", 101, 33),
    ("psync_vbb_5f1", 31, 6),
]
DISTRIBUTION_SAMPLES = 50
SMOKE_DISTRIBUTION_GRID = [("brb_2round", 16, 5)]
SMOKE_DISTRIBUTION_SAMPLES = 8


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def measure_one(
    *,
    label: str,
    cls,
    kwargs: dict,
    instrumentation: str = "full",
    reps: int = REPS,
    profile: bool = False,
) -> dict:
    measure_kwargs = dict(kwargs)
    delay_tag = measure_kwargs.pop("delay", "fixed")
    fault_tag = measure_kwargs.pop("fault", "none")
    if fault_tag not in ("none", "chaos"):
        raise ValueError(f"unknown bench fault tag {fault_tag!r}")
    fault_plan = (
        _chaos_bench_plan(measure_kwargs["n"])
        if fault_tag == "chaos" else None
    )
    measure = lambda: measure_round_good_case(  # noqa: E731
        cls,
        instrumentation=instrumentation,
        delay_policy=_bench_delay_policy(delay_tag),
        fault_plan=fault_plan,
        **measure_kwargs,
    )
    measure()  # warm-up (and JIT-less caches)
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        meas = measure()
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)

    # One instrumented run from a cold digest cache for the cache stats.
    clear_digest_cache()
    digest_stats.reset()
    meas = measure()
    stats = digest_stats.snapshot()
    events = meas.result.events_processed

    row = {
        "protocol": label,
        **{k: v for k, v in measure_kwargs.items()},
        "delay": delay_tag,
        "fault": fault_tag,
        # Effective values from the run itself: a row whose configuration
        # forces single-process execution reports shards=1 here even if
        # the grid asked for more (and says why in the fallback reason).
        "shards": meas.result.shards,
        "shard_batches_exchanged": meas.result.shard_batches_exchanged,
        "shard_bytes_sent": meas.result.shard_bytes_sent,
        "shard_barrier_rounds": meas.result.shard_barrier_rounds,
        "shard_fallback_reason": meas.result.shard_fallback_reason,
        # Outcome fields: the randomized and faulted rows assert their
        # own health (every live party commits one distinct value).
        "commits": len(meas.result.commits),
        "commit_values": len(set(meas.result.commits.values())),
        "instrumentation": instrumentation,
        "wall_seconds": round(wall, 6),
        "events_processed": events,
        "events_per_second": round(events / wall, 1),
        "messages": meas.messages,
        "round_latency": meas.round_latency,
        "digests_computed": stats["digests_computed"],
        "digest_cache_hits": stats["cache_hits"],
        "interned_hits": stats["interned_hits"],
        "plans_compiled": stats["plans_compiled"],
        "quorum_checks": meas.result.quorum_checks,
        "bucket_appends": meas.result.bucket_appends,
        "heap_pushes_avoided": meas.result.heap_pushes_avoided,
        # Batched-delivery and vectorized-vote counters: copies folded
        # into run events (and the run-event count), and votes absorbed
        # through staged add_batch calls.  Per-copy modes report 0s.
        "deliveries_batched": meas.result.deliveries_batched,
        "delivery_runs_batched": meas.result.delivery_runs_batched,
        "votes_batched": meas.result.votes_batched,
        # Fault-engine counters: nonzero exactly on the fault="chaos"
        # rows (the pinned plan's injections), 0s everywhere else.
        "faults_injected": meas.result.faults_injected,
        "messages_dropped": meas.result.messages_dropped,
        "messages_duplicated": meas.result.messages_duplicated,
        # Reliable-channel counters: all 0 on tracked runs (the channel
        # is opt-in and benches run without it); a nonzero here means a
        # bench configuration grew a link policy.
        "retransmissions": meas.result.retransmissions,
        "acks_sent": meas.result.acks_sent,
        "retries_exhausted": meas.result.retries_exhausted,
    }
    if profile:
        # One extra rep under cProfile: the top-20 cumulative entries are
        # what the "next bottleneck" claims in ROADMAP.md cite; they ride
        # back on the row and land in the side artifact, never the JSON.
        row["profile_top20"] = _profile_one(measure)
    return row


def _profile_one(measure) -> str:
    """Top-20 cumulative-time profile of one measured run, as text."""
    profiler = cProfile.Profile()
    profiler.enable()
    measure()
    profiler.disable()
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(
        "cumulative"
    ).print_stats(20)
    return buffer.getvalue()


def _print_row(row: dict) -> None:
    sharding = (
        f" shards={row['shards']} batches={row['shard_batches_exchanged']}"
        f" wire={row['shard_bytes_sent']}B"
        f" rounds={row['shard_barrier_rounds']}"
        if row.get("shards", 1) > 1
        else ""
    )
    tags = ""
    if row.get("delay", "fixed") != "fixed":
        tags += f" delay={row['delay']}"
    if row.get("fault", "none") != "none":
        tags += f" fault={row['fault']} injected={row['faults_injected']}"
    print(
        f"{row['protocol']:>14} n={row['n']:<3} f={row['f']:<3}"
        f" {row['instrumentation']:>6}{tags}"
        f" wall={row['wall_seconds']*1000:8.2f}ms"
        f" events/s={row['events_per_second']:>10.0f}"
        f" digests={row['digests_computed']}"
        f" hits={row['digest_cache_hits']}"
        f" interned={row['interned_hits']}"
        f" plans={row['plans_compiled']}"
        f" quorum={row['quorum_checks']}"
        f" avoided={row['heap_pushes_avoided']}"
        f" batched={row['deliveries_batched']}"
        f"{sharding}"
    )


def _print_distribution_row(row: dict) -> None:
    print(
        f"{'latency-dist':>14} {row['protocol']:>14}"
        f" n={row['n']:<3} f={row['f']:<3}"
        f" samples={row['samples']:<4}"
        f" p50={row['p50']:.4f} p90={row['p90']:.4f} p99={row['p99']:.4f}"
        f" mean={row['mean']:.4f}"
    )


def _default_reps(n: int) -> int:
    if n <= 101:
        return REPS
    if n <= 501:
        return REPS_LARGE
    if n <= 2001:
        return REPS_XLARGE
    return REPS_FRONTIER


def run_grid(
    configs, *, reps: int | None, workers: int, profile: bool = False
) -> list[dict]:
    tasks = [
        SweepTask(
            measure_one,
            dict(
                label=label,
                cls=cls,
                kwargs=kwargs,
                instrumentation=mode,
                reps=reps if reps is not None else _default_reps(kwargs["n"]),
                profile=profile,
            ),
            key=(label, kwargs["n"], kwargs["f"],
                 kwargs.get("shards", 1), kwargs.get("delay", "fixed"),
                 kwargs.get("fault", "none"), mode),
        )
        for label, cls, kwargs, modes in configs
        for mode in modes
    ]
    rows = SweepEngine(workers=workers).run(tasks)
    for row in rows:
        _print_row(row)
    return rows


def run_distribution(grid, samples, *, workers: int) -> list[dict]:
    rows = sweep_latency_distribution(
        grid=grid,
        samples=samples,
        engine=SweepEngine(workers=workers),
        instrumentation="perf",
    )
    for row in rows:
        for field in ("p50", "p90", "p99", "mean", "min", "max"):
            row[field] = round(row[field], 6)
        _print_distribution_row(row)
    return rows


def _annotate_mode_speedups(rows: list[dict]) -> None:
    """perf-vs-full ratios: computed purely within the current rows.

    Sharded rows are excluded on both sides: the ratio compares
    instrumentation presets on the same executor, and a multi-process
    wall against a single-process one measures the machine, not the
    observability overhead.
    """
    full_by_key = {
        (r["protocol"], r["n"], r["f"],
         r.get("delay", "fixed"), r.get("fault", "none")): r
        for r in rows
        if r["instrumentation"] == "full" and r.get("shards", 1) == 1
    }
    for row in rows:
        if row["instrumentation"] != "perf" or row.get("shards", 1) > 1:
            continue
        full = full_by_key.get(
            (row["protocol"], row["n"], row["f"],
             row.get("delay", "fixed"), row.get("fault", "none"))
        )
        if full and row["wall_seconds"] > 0:
            row["speedup_perf_vs_full"] = round(
                full["wall_seconds"] / row["wall_seconds"], 2
            )


def _annotate_baseline_speedups(
    rows: list[dict], baseline_rows: list[dict]
) -> None:
    base_by_key = {
        (r["protocol"], r["n"], r["f"], r.get("shards", 1),
         r.get("delay", "fixed"), r.get("fault", "none"),
         r.get("instrumentation", "full")): r
        for r in baseline_rows
    }
    for row in rows:
        key = (row["protocol"], row["n"], row["f"],
               row.get("shards", 1), row.get("delay", "fixed"),
               row.get("fault", "none"), row["instrumentation"])
        base = base_by_key.get(key)
        if base and row["wall_seconds"] > 0:
            row["speedup_vs_baseline"] = round(
                base["wall_seconds"] / row["wall_seconds"], 2
            )


def run_core_bench(
    *,
    output: Path | None,
    smoke: bool = False,
    workers: int = 1,
    reps: int | None = None,
    profile: bool = False,
    shards: int | None = None,
) -> dict:
    """Run the bench grid; write/merge ``output`` when given.

    With ``profile=True`` every grid point runs one extra rep under
    cProfile and the top-20 cumulative entries land in a
    ``<output stem>.profile.txt`` next to the bench artifact — the
    one-command reproduction of the "next bottleneck" profiling claims.
    ``shards`` overrides the shard count on *every* grid row (1 forces
    the whole grid single-process, including rows that ship with a
    ``shards=k``); ``None`` keeps the per-row defaults.  Rows whose
    configuration forbids sharding (full instrumentation, unsafe delay
    policies) silently run single-process and report ``shards=1``.
    Returns the document that was (or would have been) written.
    """
    configs = SMOKE_CONFIGS if smoke else CONFIGS
    if shards is not None:
        configs = [
            (label, cls, {**kwargs, "shards": shards}, modes)
            for label, cls, kwargs, modes in configs
        ]
    if reps is None and smoke:
        # 5 reps keeps the whole smoke grid well under a second while
        # giving the CI speedup-floor assert a real median to stand on
        # (2 reps would average in any noisy-neighbor outlier).
        reps = 5
    rows = run_grid(configs, reps=reps, workers=workers, profile=profile)
    profiles = [
        (row, row.pop("profile_top20"))
        for row in rows
        if "profile_top20" in row
    ]
    distribution = run_distribution(
        SMOKE_DISTRIBUTION_GRID if smoke else DISTRIBUTION_GRID,
        SMOKE_DISTRIBUTION_SAMPLES if smoke else DISTRIBUTION_SAMPLES,
        workers=workers,
    )

    current = {
        "rev": _git_rev(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "results": rows,
        "latency_distribution": distribution,
    }
    doc = {"schema": "bench-core/v1"}
    if output is not None and output.exists():
        try:
            doc = json.loads(output.read_text())
        except json.JSONDecodeError:
            pass
    doc.setdefault("schema", "bench-core/v1")
    _annotate_mode_speedups(rows)
    if smoke:
        # Smoke runs gate CI; they never overwrite the tracked numbers —
        # and the reduced small-n/low-rep grid must never seed the
        # sticky baseline.
        if "baseline" in doc:
            _annotate_baseline_speedups(rows, doc["baseline"]["results"])
        doc["smoke"] = current
    else:
        # The baseline sticks once written (the committed one is the
        # pre-cache seed); only "current" tracks the working tree.
        doc.setdefault("baseline", current)
        _annotate_baseline_speedups(rows, doc["baseline"]["results"])
        doc["current"] = current

    if output is not None:
        output.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"\nwrote {output}")
    if profiles:
        sections = [
            f"== {row['protocol']} n={row['n']} f={row['f']}"
            f" shards={row.get('shards', 1)}"
            f" delay={row.get('delay', 'fixed')}"
            f" fault={row.get('fault', 'none')}"
            f" [{row['instrumentation']}] ==\n{text}"
            for row, text in profiles
        ]
        if output is not None:
            profile_path = output.with_suffix(".profile.txt")
            profile_path.write_text("\n".join(sections))
            print(f"wrote {profile_path}")
        else:
            # Print-only mode must not write files as a side effect.
            print("\n" + "\n".join(sections))
    return doc


def build_parser(prog: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "output", nargs="?", type=Path, default=DEFAULT_OUTPUT,
        help="output JSON path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced <60s grid (CI regression gate); fewer reps, small n",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the row grid (default 1: serial timing)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="timing reps per row (default: 9, then 5/3 at larger n, "
        "5 in smoke)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="capture a cProfile top-20 (cumulative) per grid point and "
        "write it to <output stem>.profile.txt next to the bench artifact",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="override the shard count on every grid row (1 forces the "
        "whole grid single-process; default: per-row grid values)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run_core_bench(
        output=args.output,
        smoke=args.smoke,
        workers=args.workers,
        reps=args.reps,
        profile=args.profile,
        shards=args.shards,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
