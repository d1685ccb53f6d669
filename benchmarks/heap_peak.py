"""Traced heap growth of one 2-round BRB run.

    PYTHONPATH=src python benchmarks/heap_peak.py                  # n=1001
    PYTHONPATH=src python benchmarks/heap_peak.py --n 301
    PYTHONPATH=src python benchmarks/heap_peak.py --delay uniform  # n=301
    PYTHONPATH=src python benchmarks/heap_peak.py --delay chaos    # n=221

Builds ``Brb2Round`` at ``(n, (n - 1) // 3)`` under the ``perf`` preset,
populates it, then reports by how much the Python heap (``tracemalloc``)
peaks above its post-``populate`` size while the world runs, in total and
per message sent.  A second line reports the cyclic collector: the
collections of each generation during ``World.run`` (``gc.get_stats()``
deltas) and how many unreachable objects a ``gc.collect()`` finds right
after it with the world still alive.  The event loop pauses the
collector, so only generation 0 should move (1 at n=301, 2 at n=1001):
those collections fire while the result is built after the loop, on the
allocations the pause let pile up.  The second figure should read 0,
the no-cyclic-garbage invariant the pause relies on.

* ``--delay fixed`` (the default, n=1001): ``FixedDelay(1.0)``, the
  folded fast path.  The working set — fan-out recipients, quorum
  payloads, digest and encoding memos — should grow about linearly in
  ``n``; ``tests/sim/test_heap_scaling.py`` holds the n=301 / n=101
  ratio under a bound.
* ``--delay uniform`` (default n=301): counter-stream
  ``UniformDelay(0.05, 1.0)``, the per-copy path.  Nothing folds, so the
  peak is dominated by in-flight copies.  Only the calendar's open
  window holds a queue entry plus ``args`` per copy; a copy in a closed
  window holds no Python object of its own: an 8-byte instant in its
  fan-out's ``array('d')``, a slot of the fan-out's recipient ``range``,
  and a 4-byte index in the fan-out's window-ordered index array, plus
  a share of one span per window (``benchmarks/README.md``, "In-flight
  entries": ~6.9 MiB, ~40 B per message at n=301).
  ``tests/sim/test_heap_scaling.py`` bounds the bytes per message sent.
* ``--delay chaos`` (default n=221): the same counter-stream delays
  under a counter-stream fault plan — one recovering crash of the last
  party, Bernoulli duplicate echoes and reorder jitter over the first
  two time units (the shape of the benchmark's ``brb_uniform_chaos``
  plan).  Every fan-out is routed through the injector in one packed
  pass, and copies to terminated parties no crash window can reach are
  culled as under ``uniform``.
"""
from __future__ import annotations

import argparse
import gc
import tracemalloc

from repro.crypto.messages import clear_digest_cache
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import DelayPolicy, FixedDelay, UniformDelay
from repro.sim.faults import Crash, DuplicateLink, FaultPlan, ReorderJitter
from repro.sim.runner import World


def _uniform() -> UniformDelay:
    return UniformDelay(0.05, 1.0, seed=2026, stream="counter")


def _chaos_plan(n: int) -> FaultPlan:
    """One recovering crash of the last party, Bernoulli duplicate
    echoes and bounded reorder jitter over the first two time units."""
    return FaultPlan(
        crashes=(Crash(party=n - 1, at=0.2, recover=1.2),),
        duplicates=(
            DuplicateLink(start=0.0, end=2.0, prob=0.25, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.25, start=0.0, end=2.0),),
        seed=2026,
        stream="counter",
    )


#: Delay model -> (policy factory, fault plan factory or None, default
#: n, label).
DELAYS = {
    "fixed": (lambda: FixedDelay(1.0), None, 1001, "FixedDelay(1.0)"),
    "uniform": (
        _uniform, None, 301, "UniformDelay(0.05, 1.0) counter stream",
    ),
    "chaos": (
        _uniform, _chaos_plan, 221,
        "UniformDelay(0.05, 1.0) counter stream + crash/duplicate/jitter "
        "plan",
    ),
}


def _collections() -> list[int]:
    """Collections run so far, per generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def _run(
    n: int, policy: DelayPolicy, plan: FaultPlan | None = None
) -> tuple[int, int, list[int], int]:
    """Traced peak above the post-``populate`` heap, messages sent, the
    collections per generation during the run, and what ``gc.collect()``
    finds right after it."""
    clear_digest_cache()
    tracemalloc.start()
    try:
        world = World(
            n=n, f=(n - 1) // 3, delay_policy=policy, instrumentation="perf",
            fault_plan=plan,
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        before = _collections()
        result = world.run()
        peak = tracemalloc.get_traced_memory()[1]
        during = [a - b for a, b in zip(_collections(), before)]
        cyclic = gc.collect()
    finally:
        tracemalloc.stop()
    spared = plan.crashed_parties() if plan is not None else frozenset()
    if any(
        p not in result.commits and p not in spared
        for p in result.honest_ids
    ):
        raise SystemExit(f"n={n}: not every live honest party committed")
    return peak - base, result.messages_sent, during, cyclic


def run_peak_bytes(n: int, policy: DelayPolicy) -> tuple[int, int]:
    """Bytes the traced heap peaks above its post-``populate`` size, and
    the messages the run sent."""
    peak, messages, _, _ = _run(n, policy)
    return peak, messages


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay", choices=sorted(DELAYS), default="fixed")
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args()
    make_policy, make_plan, default_n, label = DELAYS[args.delay]
    n = args.n if args.n is not None else default_n
    plan = make_plan(n) if make_plan is not None else None
    peak, messages, during, cyclic = _run(n, make_policy(), plan)
    print(f"Brb2Round n={n} {label} perf: traced run peak "
          f"{peak / 2**20:.2f} MiB ({peak} B), {peak / messages:.1f} B per "
          f"message ({messages} messages)")
    print(f"collector: {' / '.join(map(str, during))} collections of "
          f"generations 0 / 1 / 2 during the run, {cyclic} cyclic objects "
          f"found right after it")


if __name__ == "__main__":
    main()
