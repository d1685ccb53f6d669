"""Assert the invariants of a ``run_core_bench.py --smoke`` result file.

    python benchmarks/check_smoke.py /tmp/bench_smoke.json

CI's smoke gate: a broken bench harness, a silently disabled fast path
(calendar buckets, run batching, sharding) or a pathological
slowdown fails the build.  Exits non-zero with the offending row.
"""
from __future__ import annotations

import json
import sys


def check_sharded(rows: list[dict]) -> None:
    sharded = [r for r in rows if r.get("shards", 1) > 1]
    assert sharded, "smoke grid lost its sharded point"
    for row in sharded:
        # The coordinator barrier must actually route cross-shard
        # traffic: zero batches means the world silently fell back to one
        # process (or the shards never talked) — and the wire accounting
        # must meter the frames it carried.
        assert row["shard_batches_exchanged"] > 0, row
        assert row["shard_bytes_sent"] > 0, row
        assert row["shard_barrier_rounds"] > 0, row
        assert row["shard_fallback_reason"] is None, row
    # The counter-stream points: a sharded random-delay row and a sharded
    # faulted row must both survive the barrier with every live party
    # committing the one broadcast value.
    uniform = [r for r in sharded if r.get("delay") == "uniform"]
    assert uniform, "smoke grid lost its sharded counter-stream point"
    chaos = [r for r in uniform if r.get("fault") == "chaos"]
    assert chaos, "smoke grid lost its sharded chaos point"
    for row in uniform:
        floor = row["n"] - (1 if row.get("fault") == "chaos" else 0)
        assert row["commits"] >= floor, row
        assert row["commit_values"] == 1, row
    for row in chaos:
        assert row["faults_injected"] > 0, row


def check_row(row: dict) -> None:
    # Correctness invariants the bench must preserve: the simulated
    # protocols still commit in 2 rounds, in every instrumentation mode.
    if row["instrumentation"] == "full":
        assert row["round_latency"] == 2, row
    assert row["events_processed"] > 0, row
    if row.get("shards", 1) > 1:
        # Sharded rows skip the single-process perf asserts: wall ratios
        # against full mode compare executors, not presets, and digest
        # counters live in the workers.  tests/sim/test_sharded.py pins
        # their outcomes.
        return
    if row["instrumentation"] == "perf":
        # Perf-regression floor: the perf preset must keep beating
        # full-instrumentation wall time.  The true ratio is ~1.3-1.6x at
        # these sizes; 1.05 is the jitter-safe floor on 1-CPU CI boxes —
        # dipping below it means the perf mode (or the digest/intern
        # substrate behind it) regressed.
        speedup = row.get("speedup_perf_vs_full", 0.0)
        assert speedup >= 1.05, f"perf-vs-full floor broken: {row}"
        # The calendar timeline must actually bucket the fan-outs: zero
        # avoided sifts means the simulator regressed to per-event heap
        # pushes.
        assert row["heap_pushes_avoided"] > 0, f"timeline inactive: {row}"
        # With no per-copy observer attached the run emitter must fold
        # fan-out copies into delivery-run events; a zero means every
        # multicast went out copy by copy.
        assert row["deliveries_batched"] > 0, f"run folding inactive: {row}"
    else:
        # full mode keeps the accountant on every copy, so every copy
        # stays its own delivery event.
        assert row["deliveries_batched"] == 0, row
    # Every event is appended through a calendar bucket; a zero means
    # deliveries bypassed the timeline accounting.
    assert row["bucket_appends"] > 0, row
    # The quorum subsystem is the only vote accounting left; a zero here
    # means protocols stopped routing through it.
    assert row["quorum_checks"] > 0, row


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        smoke = json.load(handle)["smoke"]
    rows = smoke["results"]
    assert rows, "smoke bench produced no rows"
    check_sharded(rows)
    for row in rows:
        check_row(row)
    dist = smoke["latency_distribution"]
    assert dist, "smoke bench produced no distribution rows"
    for r in dist:
        assert r["min"] <= r["p50"] <= r["p90"] <= r["p99"] <= r["max"], r
    print(f"smoke ok: {len(rows)} rows, {len(dist)} distribution rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
