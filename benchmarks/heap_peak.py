"""Traced heap growth of one 2-round BRB run.

    PYTHONPATH=src python benchmarks/heap_peak.py                  # n=1001
    PYTHONPATH=src python benchmarks/heap_peak.py --n 301
    PYTHONPATH=src python benchmarks/heap_peak.py --delay uniform  # n=301

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
"""
from __future__ import annotations

import argparse
import gc
import tracemalloc

from repro.crypto.messages import clear_digest_cache
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import DelayPolicy, FixedDelay, UniformDelay
from repro.sim.runner import World

#: Delay model -> (policy factory, default n, label).
DELAYS = {
    "fixed": (lambda: FixedDelay(1.0), 1001, "FixedDelay(1.0)"),
    "uniform": (
        lambda: UniformDelay(0.05, 1.0, seed=2026, stream="counter"),
        301,
        "UniformDelay(0.05, 1.0) counter stream",
    ),
}


def _collections() -> list[int]:
    """Collections run so far, per generation."""
    return [gen["collections"] for gen in gc.get_stats()]


def _run(n: int, policy: DelayPolicy) -> tuple[int, int, list[int], int]:
    """Traced peak above the post-``populate`` heap, messages sent, the
    collections per generation during the run, and what ``gc.collect()``
    finds right after it."""
    clear_digest_cache()
    tracemalloc.start()
    try:
        world = World(
            n=n, f=(n - 1) // 3, delay_policy=policy, instrumentation="perf",
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
    if not result.all_honest_committed():
        raise SystemExit(f"n={n}: not every honest party committed")
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
    make_policy, default_n, label = DELAYS[args.delay]
    n = args.n if args.n is not None else default_n
    peak, messages, during, cyclic = _run(n, make_policy())
    print(f"Brb2Round n={n} {label} perf: traced run peak "
          f"{peak / 2**20:.2f} MiB ({peak} B), {peak / messages:.1f} B per "
          f"message ({messages} messages)")
    print(f"collector: {' / '.join(map(str, during))} collections of "
          f"generations 0 / 1 / 2 during the run, {cyclic} cyclic objects "
          f"found right after it")


if __name__ == "__main__":
    main()
