"""Traced heap growth of one 2-round BRB run under fixed delays.

    PYTHONPATH=src python benchmarks/heap_peak.py            # n=1001
    PYTHONPATH=src python benchmarks/heap_peak.py --n 301

Builds ``Brb2Round`` at ``(n, (n - 1) // 3)`` under ``FixedDelay(1.0)``
and the ``perf`` preset, populates it, then reports by how much the
Python heap (``tracemalloc``) peaks above its post-``populate`` size
while the world runs.  This is the fast path's working set — fan-out
recipients, quorum payloads, digest and encoding memos — without the
interpreter, the imports and the parties themselves.  It should grow
about linearly in ``n``; ``tests/sim/test_heap_scaling.py`` holds the
n=301 / n=101 ratio under a bound.
"""
from __future__ import annotations

import argparse
import tracemalloc

from repro.crypto.messages import clear_digest_cache
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay
from repro.sim.runner import World


def run_peak_bytes(n: int) -> int:
    """Bytes the traced heap peaks above its post-``populate`` size."""
    clear_digest_cache()
    tracemalloc.start()
    try:
        world = World(
            n=n, f=(n - 1) // 3, delay_policy=FixedDelay(1.0),
            instrumentation="perf",
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = world.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not result.all_honest_committed():
        raise SystemExit(f"n={n}: not every honest party committed")
    return peak - base


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1001)
    args = parser.parse_args()
    peak = run_peak_bytes(args.n)
    print(f"Brb2Round n={args.n} FixedDelay(1.0) perf: traced run peak "
          f"{peak / 2**20:.2f} MiB ({peak} B)")


if __name__ == "__main__":
    main()
