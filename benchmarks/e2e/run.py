"""The repo benchmark: named workloads as a closed loop of one client.

Each *operation* is one fresh ``python`` child (``adapters.py``) — what a
user of ``python -m repro <verb>`` pays: interpreter, ``import repro``,
cold digest and plan caches, first-touch memory, and fork / barrier /
merge when sharded.  Ops run strictly one after another.  The untraced
pass yields the end-to-end metrics; the traced pass runs the same inputs
with span wrappers around each layer's entry points and yields the
per-layer metrics.  Names, units and bounds live in ``BENCHMARK.json``.

    python benchmarks/e2e/run.py                    # all workloads, both passes
    python benchmarks/e2e/run.py --workload brb_fixed --seed 7 --trace 0

With one workload and one pass the last line of stdout is the result as
one JSON object.  See README.md next to this file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ADAPTERS = HERE / "adapters.py"
DEFAULT_SEED = 2026
#: Exact simulated results for the default seed, full and quick sizes.
PINS = HERE / "pins.json"
#: A pass never has fewer ops: a repeat is what the exactness check compares.
MIN_OPS = 2
#: Spans that contain the whole run, not one layer's work: their self
#: time is whatever no entry point below them claims, so a layer that
#: loses its wrappers shows up here and ``trace.coverage`` falls.
CONTAINER_SPANS = ("trace.op", "runner.run", "scheduler.run")
#: A child still running after this long is killed and counted failed.
OP_TIMEOUT_S = 120.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def build(env: dict[str, str]) -> None:
    """Byte-compile the program and the benchmark, as an installed
    package would be: ops then time imports, not the compiler, whatever
    ``PYTHONDONTWRITEBYTECODE`` says around us."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         str(ROOT / "src" / "repro"), str(HERE)],
        env=env, stdout=subprocess.DEVNULL, check=False,
    )


def run_op(
    spec: dict, env: dict[str, str], *,
    timeout_s: float = OP_TIMEOUT_S, child: Path = ADAPTERS,
) -> dict:
    """One operation: spawn the child, wait for it, parse its report.

    Always returns an op record; ``errors`` is non-empty when the op
    failed (non-zero exit, timeout, unparsable report, failed check).
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(child), json.dumps({**spec, "spawned": spawned})],
        stdout=subprocess.PIPE, env=env, text=True,
        # Own process group, so a timeout also reaches shard workers.
        start_new_session=True,
    )
    try:
        try:
            stdout, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"errors": [f"killed after {timeout_s:g} s"]}
        wall = time.monotonic() - spawned
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        return {"errors": [f"exit code {proc.returncode}"]}
    try:
        op = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": ["child printed no report"]}
    stamps = op["stamps"]
    op["wall_s"] = wall
    op["import_s"] = stamps["imported"]
    op["setup_s"] = stamps["set_up"]
    op["run_s"] = stamps["done"] - stamps["set_up"]
    op["exit_s"] = wall - stamps["done"]
    # Simulated results: must repeat exactly on every op of one seed.
    op["exact"] = {
        "good_case_latency": op["good_case_latency"],
        "messages_sent": op["counts"]["messages_sent"],
        "events_processed": op["counts"]["events_processed"],
    }
    return op


def check_exact(ops: list[dict], pinned: dict | None) -> None:
    """Fail every op whose exact values differ from the first clean op's
    or, when the seed is pinned, from the pinned ones."""
    expected = pinned
    for op in ops:
        if op["errors"]:
            continue
        if expected is None:
            expected = op["exact"]
        for name, want in expected.items():
            if op["exact"][name] != want:
                op["errors"].append(
                    f"{name} = {op['exact'][name]!r}, expected {want!r}"
                )


def run_ops(
    spec: dict, env: dict[str, str], *, seconds: float, pinned: dict | None,
) -> list[dict]:
    """The closed loop: as many operations as start within ``seconds``
    (never fewer than :data:`MIN_OPS`); the next starts only when the
    previous has ended."""
    done: list[dict] = []
    began = time.monotonic()
    while len(done) < MIN_OPS or time.monotonic() - began < seconds:
        done.append(run_op(spec, env))
    check_exact(done, pinned)
    return done


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, extremes and the sample count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples), "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples), "n": len(samples),
        "samples": samples,
    }


def end_to_end(ops: list[dict]) -> dict[str, dict]:
    """The user-visible metrics, over the clean ops of an untraced pass."""
    events = ops[0]["exact"]["events_processed"]
    return {
        "wall_s": summarize([op["wall_s"] for op in ops]),
        "setup_s": summarize([op["setup_s"] for op in ops]),
        "deliveries_per_s": summarize([events / op["run_s"] for op in ops]),
        "peak_rss_mb": summarize([op["rss_kb"] / 1024 for op in ops]),
    }


def per_layer(op: dict, reference_run_s: float) -> dict[str, float]:
    """One traced op's per-layer metrics, by their ``BENCHMARK.json`` names.

    Call counts count entries into a layer from outside it (a layer's
    calls to itself are its own business); ``self_s`` sums span time not
    covered by child spans; plain counts come from the program's results.
    """
    spans = op["trace"]["spans"]
    counts = op["counts"]
    cache = op["digest"]

    def calls(layer: str, *attrs: str, nested: bool = False) -> int:
        return sum(
            agg[0]
            for attr in attrs
            for parent, agg in spans.get(f"{layer}.{attr}", {}).items()
            if nested or parent != layer
        )

    def total_s(name: str) -> float:
        return sum(agg[1] for agg in spans.get(name, {}).values()) / 1e9

    def self_s(layer: str) -> float:
        return sum(
            agg[2]
            for name, parents in spans.items() if name.startswith(layer + ".")
            for agg in parents.values()
        ) / 1e9

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    root = spans["trace.op"][""]
    unclaimed = sum(
        agg[2] for name in CONTAINER_SPANS
        for agg in spans.get(name, {}).values()
    )
    lookups = (
        cache["cache_hits"] + cache["interned_hits"]
        + cache["digests_computed"]
    )
    sharded_s = total_s("coordinator.run_sharded")
    return {
        "process.import_s": op["import_s"],
        "process.cpu_s": op["cpu_s"],
        "process.exit_s": op["exit_s"],
        "runner.build_s": total_s("runner.__init__"),
        "runner.populate_s": total_s("runner.populate"),
        "runner.result_s": total_s("runner.result"),
        "runner.worlds": counts["worlds"],
        "runner.worlds_per_s": ratio(counts["worlds"], root[1] / 1e9),
        "runner.good_case_latency": op["good_case_latency"],
        "delays.calls": calls("delays", "delay", "delays_for_multicast"),
        "delays.copies_priced": sum(op["trace"]["sized"].values()),
        "delays.self_s": self_s("delays"),
        "network.multicast_calls": calls("network", "multicast"),
        "network.send_calls": calls("network", "send"),
        "network.self_s": self_s("network"),
        "network.messages_sent": counts["messages_sent"],
        "network.deliveries_batched": counts["deliveries_batched"],
        "network.delivery_runs_batched": counts["delivery_runs_batched"],
        "network.fold_ratio": ratio(
            counts["deliveries_batched"], counts["messages_sent"]
        ),
        "scheduler.schedule_calls": calls(
            "scheduler", "schedule_at", "schedule_batch", "schedule_after"
        ),
        "scheduler.self_s": self_s("scheduler"),
        "scheduler.events_processed": counts["events_processed"],
        "timeline.pushes": calls("timeline", "push", "push_batch"),
        "timeline.pops": calls("timeline", "pop"),
        "timeline.self_s": self_s("timeline"),
        "timeline.bucket_appends": counts["bucket_appends"],
        "timeline.heap_pushes_avoided": counts["heap_pushes_avoided"],
        "timeline.sift_avoid_ratio": ratio(
            counts["heap_pushes_avoided"], counts["bucket_appends"]
        ),
        "timeline.events_recycled": counts["events_recycled"],
        "protocols.deliver_calls": calls("protocols", "deliver"),
        "protocols.self_s": self_s("protocols"),
        "quorum.calls": calls(
            "quorum", "add", "add_batch", "stage_batch", "commit_staged",
            "quorum_payload",
        ),
        "quorum.checks": counts["quorum_checks"],
        "quorum.votes_batched": counts["votes_batched"],
        "quorum.vote_batch_ratio": ratio(
            counts["votes_batched"], counts["quorum_checks"]
        ),
        "quorum.self_s": self_s("quorum"),
        "crypto.digest_calls": calls("crypto", "digest", "digest_ex"),
        "crypto.digests_computed": cache["digests_computed"],
        "crypto.cache_hits": cache["cache_hits"],
        "crypto.interned_hits": cache["interned_hits"],
        "crypto.digest_hit_ratio": ratio(
            cache["cache_hits"] + cache["interned_hits"], lookups
        ),
        "crypto.plans_compiled": cache["plans_compiled"],
        "crypto.sign_calls": calls("crypto", "sign"),
        "crypto.verify_calls": calls("crypto", "verify"),
        "crypto.verify_batch_calls": calls("crypto", "verify_batch"),
        "crypto.self_s": self_s("crypto"),
        "faults.calls": calls(
            "faults", "block_send", "block_delivery", "route"
        ),
        "faults.self_s": self_s("faults"),
        "faults.injected": counts["faults_injected"],
        "faults.dropped": counts["messages_dropped"],
        "faults.duplicated": counts["messages_duplicated"],
        "faults.held": counts["messages_held"],
        "coordinator.run_sharded_s": sharded_s,
        "coordinator.barrier_rounds": counts["shard_barrier_rounds"],
        "coordinator.bytes_sent": counts["shard_bytes_sent"],
        "coordinator.bytes_per_round": ratio(
            counts["shard_bytes_sent"], counts["shard_barrier_rounds"]
        ),
        "coordinator.batches_exchanged": counts["shard_batches_exchanged"],
        "coordinator.worker_cpu_s": op["worker_cpu_s"],
        "coordinator.cpu_to_wall": ratio(op["worker_cpu_s"], sharded_s),
        "observers.self_s": self_s("observers"),
        "observers.monitor_checks": calls(
            "observers", "on_commit", "on_commit_conflict", "on_view",
            "finalize", nested=True,  # note_commit fans out to the monitors
        ),
        "observers.violations": op.get("chaos_violations", 0),
        "analysis.table1_s": total_s("analysis.generate_table1"),
        "analysis.witness_s": total_s("analysis.run_witness"),
        "analysis.sweep_s": total_s("analysis.sweep_sync_regimes"),
        "analysis.distribution_s": total_s(
            "analysis.sweep_latency_distribution"
        ),
        "analysis.chaos_s": total_s("analysis.run_chaos"),
        "analysis.chaos_plans": op.get("chaos_plans", 0),
        "analysis.view_changes": op.get("view_changes", 0),
        "trace.overhead_ratio": ratio(op["run_s"], reference_run_s),
        "trace.coverage": 1 - ratio(unclaimed, root[1]),
        "trace.other_self_s": unclaimed / 1e9,
        "trace.unwrapped": len(op["trace"]["unwrapped"]),
    }


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def print_workload(name: str, row: dict, units: dict[str, str]) -> None:
    for label, ops in (("untraced", row.get("untraced")),
                       ("traced", row.get("traced"))):
        if ops is None:
            continue
        rate = ops["failed"] / ops["attempted"]
        print(
            f"\n== {name} [{label}] n={row['n']} ops={ops['attempted']} "
            f"failed={ops['failed']} failure_rate={rate:.3f}"
        )
        for error in ops["errors"]:
            print(f"   FAILED: {error}")
    for key, value in row.get("exact", {}).items():
        unit = "Delta (simulated time)" if key == "good_case_latency" else "count"
        print(f"   {key:<28} {value!r} {unit}  (exact)")
    if "end_to_end" in row:
        n = row["untraced"]["attempted"] - row["untraced"]["failed"]
        print(
            f"   end to end, host time: median [q1, q3] min..max over {n} "
            "samples" + (
                " (fewer than 11: no percentile above the median qualifies)"
                if n < 11 else ""
            )
        )
        for metric, s in row["end_to_end"].items():
            print(
                f"   {metric:<28} {s['median']:.6g} {units[metric]}  "
                f"[{s['q1']:.6g}, {s['q3']:.6g}]  "
                f"{s['min']:.6g}..{s['max']:.6g}  n={s['n']}"
            )
    if "per_layer" in row:
        print("   per layer, traced pass:")
        for metric, value in row["per_layer"].items():
            print(f"   {metric:<28} {value:.6g} {units[metric]}")


def tally(ops: list[dict]) -> dict:
    errors = [error for op in ops for error in op["errors"]]
    failed = sum(1 for op in ops if op["errors"])
    return {"attempted": len(ops), "failed": failed, "errors": errors}


def measure(
    spec: dict, env: dict[str, str], *,
    passes: tuple[int, ...], seconds: float, pinned: dict | None,
    trace_path: Path,
) -> dict:
    """Both passes (or one) of one workload; returns its results row."""
    untraced = {**spec, "traced": False}
    row: dict = {}
    clean: list[dict] = []
    if 0 in passes:
        done = run_ops(untraced, env, seconds=seconds, pinned=pinned)
        clean = [op for op in done if not op["errors"]]
        row["untraced"] = tally(done)
        if clean:
            row["end_to_end"] = end_to_end(clean)
    if 1 in passes:
        # The overhead ratio needs an untraced run of the same inputs.
        reference = clean or [
            op for op in [run_op(untraced, env)] if not op["errors"]
        ]
        done = run_ops(
            {**spec, "traced": True}, env, seconds=seconds, pinned=pinned,
        )
        traced = [op for op in done if not op["errors"]]
        row["traced"] = tally(done)
        if traced and reference:
            reference_run_s = statistics.median(
                op["run_s"] for op in reference
            )
            layers = [per_layer(op, reference_run_s) for op in traced]
            row["per_layer"] = {
                metric: statistics.median(m[metric] for m in layers)
                for metric in layers[0]
            }
            trace_path.write_text(
                json.dumps({**spec, **traced[-1]["trace"]}) + "\n"
            )
        clean = clean or traced
    row["n"] = clean[0]["n"] if clean else None
    row["exact"] = clean[0]["exact"] if clean else {}
    return row


def result_line(row: dict, trace: int, units: dict[str, str]) -> str | None:
    """The machine-readable result of one workload and one pass."""
    if trace:
        values = row.get("per_layer")
    elif "end_to_end" in row:
        values = {m: s["median"] for m, s in row["end_to_end"].items()}
    else:
        values = None
    if values is None:
        return None
    ops = row["traced" if trace else "untraced"]
    return json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the generated inputs only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="each pass starts ops for this long; default: "
                        "run_seconds of BENCHMARK.json, 0 with --quick")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced pass, 1: traced pass; default both")
    parser.add_argument("--quick", action="store_true",
                        help=f"n <= 31, {MIN_OPS} ops: the self-test's sizes")
    parser.add_argument("--out", type=Path,
                        default=HERE / "out" / "results.json",
                        help="results file; traces land next to it")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in declared["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; expected one of {known}")
    units = {
        m["name"]: m["unit"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }
    passes = (0, 1) if args.trace is None else (args.trace,)
    wanted = {
        m["name"]
        for trace, key in enumerate(("end_to_end", "per_layer"))
        if trace in passes
        for m in declared[key]
    }
    size = "quick" if args.quick else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.quick else float(declared["run_seconds"])
    pins = (
        json.loads(PINS.read_text())[size]
        if args.seed == DEFAULT_SEED else {}
    )
    env = child_env()
    build(env)
    args.out.parent.mkdir(parents=True, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    meta = {
        "rev": git_rev(), "nproc": nproc,
        "python": platform.python_version(), "seed": args.seed,
        "size": size, "seconds": seconds,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print("  ".join(f"{key} {value}" for key, value in meta.items()))
    rows: dict[str, dict] = {}
    problems = 0
    for name in workloads:
        row = rows[name] = measure(
            {"workload": name, "seed": args.seed, "quick": args.quick}, env,
            passes=passes, seconds=seconds, pinned=pins.get(name),
            trace_path=args.out.parent / f"trace-{name}.json",
        )
        print_workload(name, row, units)
        if nproc < 2 and name.endswith("_sharded"):
            print("   WARNING: nproc < 2 — the shard workers time-slice one "
                  "core; this is not a parallel measurement")
        measured = {*row.get("end_to_end", ()), *row.get("per_layer", ())}
        if measured != wanted:
            problems += 1
            print("   metric names differ from BENCHMARK.json: "
                  f"{sorted(measured ^ wanted)}")
        problems += sum(
            row[key]["failed"] for key in ("untraced", "traced") if key in row
        )
    args.out.write_text(
        json.dumps({"meta": meta, "workloads": rows}, indent=1) + "\n"
    )
    print(f"\nwrote {args.out}")

    if len(workloads) == 1 and args.trace is not None:
        # The caller asked one question: answer it on the last line, and
        # let the failure count in it speak for the ops.
        line = result_line(rows[workloads[0]], args.trace, units)
        if line is None:
            return 1
        print(line)
        return 0
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
