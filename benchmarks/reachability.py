"""Which ``src/`` functions no production root reaches.

    PYTHONPATH=src python benchmarks/reachability.py

Runs every *root* — the CLI verbs with the arguments CI and the nightly
job use, ``examples/*.py``, the figure scripts, ``heap_peak.py`` in all
three modes and ``benchmarks/e2e/adapters.py`` for all six workloads — as a
child process with ``sys.setprofile`` installed.  Each process, forked
shard and pool workers included (they inherit the hook), appends every
``src/`` code object it enters for the first time to a file of its own,
so a worker that ends in ``os._exit`` loses nothing.  The union is
diffed against an ``ast`` list of every ``def`` under ``src/repro``.

A function no root reaches must sit on :data:`ALLOWLIST` with exactly
one of the fixed :data:`REASONS`; the scan exits 1 and names every
function that does not, every entry that no longer names a ``src/``
function, every entry a root now reaches, and every root that failed.
``tests/test_reachability_allowlist.py`` imports this module (nothing
runs on import) to keep the allowlist from going stale.
"""
from __future__ import annotations

import ast
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

HOOK = "base-class hook that production overrides"
REPR = "__repr__"
FAILURE = "failure-only path (violation, shrink, reproducer I/O, error text)"
BYZANTINE = "protocol branch only tests' Byzantine or crash scenarios take"
ENCODER_SPEC = "canonical_encode, the encoder spec tests check digests against"
FROZEN = "named in the frozen benchmarks/e2e/adapters.py"
SYNC_TIER = "forwarded-quorum path waiting for a random-delay sync root"
REASONS = (HOOK, REPR, FAILURE, BYZANTINE, ENCODER_SPEC, FROZEN, SYNC_TIER)

#: ``path:qualname`` (path relative to ``src/repro``) -> reason.
ALLOWLIST: dict[str, str] = {
    # Base-class hooks: every production subclass overrides them.
    "protocols/psync/base.py:ViewChangeParty._carried_value": HOOK,
    "protocols/psync/base.py:ViewChangeParty._viewchange_report": HOOK,
    "protocols/psync/base.py:ViewChangeParty._vote": HOOK,
    "protocols/psync/base.py:ViewParty._on_enter_view": HOOK,
    "protocols/psync/base.py:ViewParty._propose_initial": HOOK,
    "protocols/psync/base.py:ViewParty._replay_proposal": HOOK,
    "protocols/psync/base.py:ViewParty._timeout_message": HOOK,
    "protocols/sync/base.py:SyncBroadcastParty.on_protocol_message": HOOK,
    "sim/delays.py:DelayPolicy.delay": HOOK,
    "sim/hosting.py:PartyHost.hosted_send": HOOK,
    "sim/process.py:Agent.start": HOOK,
    "sim/process.py:Party.on_message": HOOK,
    "sim/process.py:Party.on_recover": HOOK,
    "sim/process.py:Party.on_start": HOOK,
    "smr/state_machine.py:StateMachine.apply": HOOK,
    "smr/state_machine.py:StateMachine.snapshot": HOOK,
    # __repr__s.
    "crypto/messages.py:DigestStats.__repr__": REPR,
    "crypto/signatures.py:Signature.__repr__": REPR,
    "crypto/signatures.py:SignedPayload.__repr__": REPR,
    "crypto/signatures.py:Signer.__repr__": REPR,
    "protocols/psync/certificates.py:Certificate.__repr__": REPR,
    # Failure-only paths: violations, shrinking, reproducer I/O, errors.
    "analysis/chaos.py:load_reproducer": FAILURE,
    "analysis/chaos.py:run_reproducer": FAILURE,
    "analysis/chaos.py:shrink_failing_plan": FAILURE,
    "analysis/chaos.py:shrink_plan": FAILURE,
    "analysis/chaos.py:_violation": FAILURE,
    "analysis/chaos.py:write_reproducer": FAILURE,
    "errors.py:AgreementViolation.__init__": FAILURE,
    "errors.py:FaultPlanError.__init__": FAILURE,
    "errors.py:IntegrityViolation.__init__": FAILURE,
    "errors.py:InvariantViolation.__init__": FAILURE,
    "errors.py:TerminationViolation.__init__": FAILURE,
    "errors.py:ValidityViolation.__init__": FAILURE,
    "errors.py:ViewProgressViolation.__init__": FAILURE,
    "sim/faults.py:FaultPlan.from_json": FAILURE,
    "sim/faults.py:FaultPlan.to_json": FAILURE,
    "sim/faults.py:FaultPlan.without": FAILURE,
    "sim/faults.py:_decode": FAILURE,
    "sim/faults.py:_decode_value": FAILURE,
    "sim/faults.py:_encode": FAILURE,
    "sim/hosting.py:HostedWorld.note_commit_conflict": FAILURE,
    "sim/instrumentation.py:Instrumentation.note_commit_conflict": FAILURE,
    "sim/invariants.py:IntegrityMonitor.on_commit_conflict": FAILURE,
    "sim/invariants.py:InvariantMonitor.on_commit_conflict": FAILURE,
    "sim/runner.py:World.note_commit_conflict": FAILURE,
    "sim/scheduler.py:Simulator._reject": FAILURE,
    "sim/transcript.py:first_divergence": FAILURE,
    # Protocol branches only the tests' Byzantine or crash scenarios take.
    "protocols/psync/base.py:ViewParty.on_recover": BYZANTINE,
    "protocols/psync/vbb_5f1.py:PsyncVbb5f1._replay_proposal": BYZANTINE,
    "protocols/sync/bb_delta_delta_n3.py:BbDeltaDeltaN3._exposed_byzantine":
        BYZANTINE,
    "protocols/sync/dishonest_majority.py:WanStyleBb._adoptable_cert_value":
        BYZANTINE,
    "protocols/sync/dishonest_majority.py:WanStyleBb._cert_value": BYZANTINE,
    "crypto/messages.py:canonical_encode": ENCODER_SPEC,
    "crypto/messages.py:digest_ex": FROZEN,
    "protocols/quorum.py:QuorumTracker.add_batch": FROZEN,
    "sim/events.py:EventQueue.release": FROZEN,
    "sim/network.py:Network._deliver_tracked": FROZEN,
    "sim/transcript.py:Transcript.record_commit": FROZEN,
    "sim/transcript.py:Transcript.record_start": FROZEN,
    # A forwarded vote batch crosses a sync party's threshold before its
    # own votes do only off the worst-case schedule, and every root runs
    # the sync protocols at FixedDelay(delta).
    "protocols/sync/bb_delta_15delta.py:BbDelta15Delta._on_votes_crossed":
        SYNC_TIER,
    "protocols/sync/bb_delta_2delta.py:BbDelta2Delta._on_votes_crossed":
        SYNC_TIER,
    "protocols/sync/bb_delta_delta_n3.py:BbDeltaDeltaN3._on_votes_crossed":
        SYNC_TIER,
}


def _adapter(workload: str, quick: bool) -> list[str]:
    spec = (
        f'{{"workload": "{workload}", "seed": 0, "quick": {str(quick).lower()},'
        f' "traced": false, "spawned": 0}}'
    )
    return ["benchmarks/e2e/adapters.py", spec]


def roots() -> list[list[str]]:
    """Every root's argv (``-m module ...`` or ``script ...``).

    ``categorization`` runs at full size: only the full chaos grid
    reaches ``BrachaBrb``, PBFT's view change and two fault-primitive
    paths.  The single-world workloads reach the same functions at
    either size, so they run quick.
    """
    verbs = [
        ["table1"], ["table1", "--delta", "0.5"],
        ["sweep"], ["sweep", "--workers", "2", "--instrumentation", "perf"],
        ["witness", "all"], ["ablation"],
        ["smr", "--n", "9", "--f", "2", "--slots", "5"],
        ["chaos", "--smoke"],
        ["chaos", "--protocols", "brb_2round", "--plans", "4",
         "--shards", "2"],
        ["chaos", "--deep", "--plans", "20"],
    ]
    figures = sorted(
        str(path.relative_to(ROOT))
        for path in (ROOT / "benchmarks").glob("bench_*.py")
        if path.name != "bench_perf_micro.py"
    )
    return [
        *(["-m", "repro", *verb] for verb in verbs),
        *([str(path.relative_to(ROOT))]
          for path in sorted((ROOT / "examples").glob("*.py"))),
        ["-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *figures],
        ["benchmarks/heap_peak.py"],
        ["benchmarks/heap_peak.py", "--delay", "uniform"],
        ["benchmarks/heap_peak.py", "--delay", "chaos"],
        *(_adapter(name, quick=True) for name in (
            "brb_fixed", "brb_fixed_sharded", "brb_uniform",
            "brb_uniform_chaos", "vbb_fixed",
        )),
        _adapter("categorization", quick=False),
    ]


# ---------------------------------------------------------------------- #
# the def list
# ---------------------------------------------------------------------- #


def src_functions() -> dict[str, tuple[str, int, int, tuple[int, ...]]]:
    """``path:qualname`` -> (path, first line, last line, entry lines)
    for every ``def`` under ``src/repro``.  The entry lines are the ones
    a code object of the def can report as ``co_firstlineno``: the first
    decorator's (CPython >= 3.8) and the ``def`` line.  Same-named defs
    (a property and its setter) share one key and the widest span."""
    found: dict[str, tuple[str, int, int, tuple[int, ...]]] = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)]
                )
                last = child.end_lineno
                entries = (first, child.lineno)
                key = f"{path}:{qualname}"
                if key in found:
                    _, low, high, more = found[key]
                    first, last = min(low, first), max(high, last)
                    entries += more
                found[key] = (path, first, last, entries)
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = str(file.relative_to(PACKAGE))
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def src_lines() -> int:
    return sum(
        len(file.read_text().splitlines()) for file in PACKAGE.rglob("*.py")
    )


# ---------------------------------------------------------------------- #
# one traced root (the child process)
# ---------------------------------------------------------------------- #


def _install(out_dir: str) -> None:
    """Record each ``src/`` code object a process enters, once."""
    prefix = str(PACKAGE) + os.sep
    seen: set = set()
    sink = {"pid": None, "file": None}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        if not code.co_filename.startswith(prefix):
            return
        pid = os.getpid()
        if sink["pid"] != pid:  # a forked worker writes its own file
            sink["pid"] = pid
            sink["file"] = open(
                os.path.join(out_dir, f"{pid}.txt"), "a", buffering=1
            )
        sink["file"].write(
            f"{code.co_filename[len(prefix):]}\t{code.co_firstlineno}\n"
        )

    threading.setprofile(profile)
    sys.setprofile(profile)


def _run_child(out_dir: str, argv: list[str]) -> int:
    """Run one root's argv as ``python`` would, traced; its exit code."""
    module = argv[1] if argv[0] == "-m" else None
    sys.argv = argv[1:] if module else argv
    sys.path[0] = str(ROOT if module else (ROOT / argv[0]).parent)
    _install(out_dir)
    try:
        if module:
            runpy.run_module(module, run_name="__main__")
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else int(code is not None)
    finally:
        sys.setprofile(None)
    return 0


# ---------------------------------------------------------------------- #
# the scan
# ---------------------------------------------------------------------- #


def _trace_root(argv: list[str], out_dir: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, __file__, "--child", out_dir, *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def reached_functions(functions: dict, out_dir: str) -> set[str]:
    """The def keys whose code objects any traced process entered."""
    by_line = {
        (path, line): key
        for key, (path, _, _, entries) in functions.items()
        for line in entries
    }
    reached = set()
    for file in Path(out_dir).glob("*.txt"):
        for line in file.read_text().splitlines():
            path, lineno = line.split("\t")
            key = by_line.get((path, int(lineno)))
            if key is not None:
                reached.add(key)
    return reached


def scan() -> int:
    functions = src_functions()
    with tempfile.TemporaryDirectory() as out_dir:
        with ThreadPoolExecutor(max_workers=2) as pool:
            argvs = roots()
            codes = list(pool.map(lambda a: _trace_root(a, out_dir), argvs))
        failed = [" ".join(a) for a, code in zip(argvs, codes) if code]
        reached = reached_functions(functions, out_dir)
    unreached = sorted(set(functions) - reached)
    unlisted = [key for key in unreached if key not in ALLOWLIST]
    missing = sorted(key for key in ALLOWLIST if key not in functions)
    stale = sorted(key for key in ALLOWLIST if key in reached)
    bad_reason = sorted(
        key for key, reason in ALLOWLIST.items() if reason not in REASONS
    )

    def span(key: str) -> int:
        _, first, last, _ = functions[key]
        return last - first + 1

    print(f"roots: {len(argvs)} run, {len(failed)} failed")
    print(f"src/: {src_lines()} lines, {len(functions)} functions")
    print(
        f"unreached: {len(unreached)} functions "
        f"({sum(map(span, unreached))} def-span lines), "
        f"{len(unreached) - len(unlisted)} allowlisted, "
        f"{len(unlisted)} unlisted"
    )
    print("allowlist by reason:")
    counts = Counter(ALLOWLIST.values())
    for reason in REASONS:
        print(f"  {counts[reason]:4d}  {reason}")
    problems = [
        *(f"root failed: {argv}" for argv in failed),
        *(f"unreached, not allowlisted: {key} ({span(key)} lines)"
          for key in unlisted),
        *(f"allowlisted but reached: {key}" for key in stale),
        *(f"allowlisted but not a src/ function: {key}" for key in missing),
        *(f"allowlist reason not in REASONS: {key}" for key in bad_reason),
    ]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        sys.exit(_run_child(sys.argv[2], sys.argv[3:]))
    sys.exit(scan())
